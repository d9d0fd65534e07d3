// Command mass-server runs MASS as a live HTTP/JSON service: queries are
// answered from the ingestion engine's current snapshot while new posts,
// comments and links arrive through the mutation endpoints (or a streaming
// crawl), and the corpus is re-analyzed incrementally in the background
// (see internal/api for the endpoint list).
//
// Usage:
//
//	mass-server -corpus crawl.xml -addr :8080          serve a snapshot, keep ingesting
//	mass-server -addr :8080                            start empty, ingest over HTTP
//	mass-server -crawl http://blogs:9090 -seed Amery   stream-crawl into the engine
//	mass-server -data-dir ./data -addr :8080           durable ingest: WAL + checkpoints,
//	                                                   crash recovery on boot
//	mass-server -shards 4 -addr :8080                  consistent-hash partition the corpus
//	                                                   across 4 engine shards behind a
//	                                                   scatter-gather coordinator
//
//	curl localhost:8080/api/v1                         discovery document
//	curl 'localhost:8080/api/v1/bloggers/top?limit=3'
//	curl -X POST localhost:8080/api/v1/posts -d '{"id":"p9","author":"Zoe","body":"..."}'
//	curl localhost:8080/api/v1/engine
//
// Requests run behind the api package's middleware chain (request IDs,
// structured logging, panic recovery, per-client rate limiting) and the
// HTTP server enforces read/write/idle timeouts so one stuck client
// cannot pin a connection forever. Pass -pprof localhost:6060 to expose
// net/http/pprof on a separate private listener for production profiling
// of the solver and ingest hot paths.
//
// SIGINT/SIGTERM shut down gracefully: in-flight requests finish, pending
// mutations are folded into a final snapshot, and with -data-dir the WAL is
// synced and a final checkpoint written so the next boot recovers warm with
// an empty replay tail.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // profiling endpoints on the -pprof listener only
	"os"
	"os/signal"
	"syscall"
	"time"

	"mass/internal/api"
	"mass/internal/blog"
	"mass/internal/cluster"
	"mass/internal/core"
	"mass/internal/crawler"
	"mass/internal/xmlstore"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mass-server: ")
	var (
		corpusPath    = flag.String("corpus", "", "XML corpus snapshot to preload (empty: start with no data)")
		addr          = flag.String("addr", ":8080", "listen address")
		flushEvery    = flag.Int("flush-every", 64, "re-analyze after this many mutations")
		flushInterval = flag.Duration("flush-interval", 2*time.Second, "re-analyze pending mutations at least this often")
		crawlURL      = flag.String("crawl", "", "blog service base URL to stream-crawl into the engine")
		crawlSeed     = flag.String("seed", "", "seed blogger for -crawl")
		crawlWorkers  = flag.Int("crawl-workers", 4, "concurrent fetchers for -crawl")
		crawlRadius   = flag.Int("crawl-radius", 2, "BFS radius for -crawl")
		rateLimit     = flag.Float64("rate-limit", 50, "per-client requests/second (0 disables rate limiting)")
		rateBurst     = flag.Int("rate-burst", 100, "per-client token-bucket burst")
		readTimeout   = flag.Duration("read-timeout", 15*time.Second, "HTTP server read timeout")
		writeTimeout  = flag.Duration("write-timeout", 30*time.Second, "HTTP server write timeout")
		idleTimeout   = flag.Duration("idle-timeout", 2*time.Minute, "HTTP server idle-connection timeout")
		quiet         = flag.Bool("quiet", false, "disable per-request logging")
		pprofAddr     = flag.String("pprof", "", "expose net/http/pprof on this address (e.g. localhost:6060; empty disables)")
		dataDir       = flag.String("data-dir", "", "WAL + snapshot directory for durable ingest (empty: in-memory only)")
		walSync       = flag.Int("wal-sync", 64, "fsync the WAL every N records (group commit)")
		walSyncIvl    = flag.Duration("wal-sync-interval", 100*time.Millisecond, "fsync the WAL at least this often (<0 disables the timer)")
		ckptEvery     = flag.Int("checkpoint-every", 4096, "write a snapshot once this many WAL records accumulate past the last one")
		shards        = flag.Int("shards", 1, "engine shards behind the consistent-hash coordinator (1: single engine, full feature set)")
		shardTimeout  = flag.Duration("shard-timeout", 2*time.Second, "per-shard scatter deadline before a query degrades to a partial result")
		probeIvl      = flag.Duration("probe-interval", time.Second, "shard supervisor health-probe and restart cadence")
		probeTimeout  = flag.Duration("probe-timeout", 0, "supervisor probe deadline before a shard counts as wedged (0: same as -shard-timeout)")
		breakerAfter  = flag.Int("breaker-threshold", 3, "consecutive shard failures before its circuit breaker opens (quarantine)")
		spillLimit    = flag.Int("spill-limit", 4096, "per-shard spill-queue capacity; writes beyond it are shed with 429")
		ingestRetries = flag.Int("ingest-retries", 3, "transient ingest failures tolerated per write before the shard quarantines")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Boot is serial — decode, analyze, listen — and each stage logs its
	// own wall time, so a slow start points at the stage that caused it.
	var corpus *blog.Corpus
	if *corpusPath != "" {
		t0 := time.Now()
		var err error
		if corpus, err = xmlstore.Load(*corpusPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("loaded corpus in %s (%d bloggers, %d posts from %s)\n",
			time.Since(t0).Round(time.Millisecond), len(corpus.Bloggers), len(corpus.Posts), *corpusPath)
	}

	// One code path for every deployment shape: the cluster with one shard
	// is a byte-identical pass-through to a bare engine (same WAL layout in
	// -data-dir, same responses), so -shards 1 costs nothing.
	t0 := time.Now()
	cl, err := cluster.New(corpus, cluster.Options{
		Shards:           *shards,
		ShardTimeout:     *shardTimeout,
		DataDir:          *dataDir,
		ProbeInterval:    *probeIvl,
		ProbeTimeout:     *probeTimeout,
		BreakerThreshold: *breakerAfter,
		SpillLimit:       *spillLimit,
		IngestRetries:    *ingestRetries,
		Engine: core.EngineOptions{
			FlushEvery:    *flushEvery,
			FlushInterval: *flushInterval,
			Durability: core.DurabilityOptions{
				SyncEvery:       *walSync,
				SyncInterval:    *walSyncIvl,
				CheckpointEvery: *ckptEvery,
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	analysis := time.Since(t0)
	if *dataDir != "" {
		st := cl.Status()
		switch {
		case st.RecoveryTruncatedAt >= 0:
			log.Printf("recovered %s: %d WAL records replayed, torn tail truncated at record %d",
				*dataDir, st.RecoveredRecords, st.RecoveryTruncatedAt)
		case st.RecoveredRecords > 0 || corpus == nil:
			fmt.Printf("recovered %s: %d WAL records replayed\n", *dataDir, st.RecoveredRecords)
		}
	}
	fmt.Printf("initial analysis in %s (%s)\n", analysis.Round(time.Millisecond), cl.Stats(cl.View()))
	if cl.NumShards() > 1 {
		fmt.Printf("sharded: %d shards, %d boundary edges, scatter deadline %s\n",
			cl.NumShards(), cl.BoundaryEdges(), *shardTimeout)
	}

	if *crawlURL != "" {
		if *crawlSeed == "" {
			log.Fatal("-crawl requires -seed")
		}
		go func() {
			cr := crawler.New(crawler.Config{Workers: *crawlWorkers, Radius: *crawlRadius}, nil)
			stats, err := cr.Stream(ctx, *crawlURL, blog.BloggerID(*crawlSeed), cl)
			if err != nil {
				log.Printf("streaming crawl: %v", err)
				return
			}
			fmt.Printf("streaming crawl done: %d spaces in %s (depth %d, %d failed)\n",
				stats.Fetched, stats.Elapsed.Round(time.Millisecond), stats.Depth, stats.Failed)
		}()
	}

	if *pprofAddr != "" {
		// A separate listener keeps the profiling surface (and the default
		// mux net/http/pprof registers on) off the public API address, so
		// solver and ingest hot spots are inspectable in production without
		// exposing /debug/pprof to API clients:
		//
		//	go tool pprof http://localhost:6060/debug/pprof/profile
		go func() {
			log.Printf("pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof: %v", err)
			}
		}()
	}

	apiOpts := []api.Option{api.WithRateLimit(*rateLimit, *rateBurst)}
	if !*quiet {
		apiOpts = append(apiOpts, api.WithLogger(log.New(os.Stderr, "http: ", 0)))
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api.NewCluster(cl, apiOpts...),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		<-ctx.Done()
		fmt.Println("shutting down ...")
		// Subscriptions first: closing the hub ends every SSE stream, so
		// the graceful drain below is not held open by standing
		// connections that would otherwise never finish. (Sharded clusters
		// have no hub — the surface answers 501 there.)
		if hub := cl.Subscriptions(); hub != nil {
			hub.Shutdown()
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			log.Printf("shutdown: %v", err)
		}
	}()

	fmt.Printf("listening on %s (discovery: GET /api/v1)\n", *addr)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-drained // in-flight requests finish before the shards close
	// Close drains every shard in turn: pending mutations fold into a
	// final snapshot per shard, WALs sync, and — with -data-dir — each
	// shard writes a final checkpoint so the next boot replays empty tails.
	if err := cl.Close(); err != nil {
		log.Printf("closing cluster: %v", err)
	}
	st := cl.Status()
	if *dataDir != "" {
		fmt.Printf("durable state in %s (%d WAL records, %d syncs, %d checkpoints)\n",
			*dataDir, st.WALRecords, st.WALSyncs, st.Checkpoints)
	}
	fmt.Printf("bye (seq %d, %d mutations ingested)\n", st.Seq, st.TotalMutations)
}
