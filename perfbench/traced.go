package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mass/internal/advert"
	"mass/internal/api"
	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/cluster"
	"mass/internal/core"
	"mass/internal/influence"
	"mass/internal/lexicon"
	"mass/internal/linkrank"
	"mass/internal/query"
	"mass/internal/recommend"
	"mass/internal/subs"
	"mass/internal/synth"
	"mass/internal/textutil"
	"mass/internal/trend"
	"mass/internal/viz"
	"mass/internal/wal"
	"mass/internal/xmlstore"
)

// maxReplayFlushes bounds how many of the run's flushes the traced run
// replays layer by layer after the load.
const maxReplayFlushes = 3

// maxReplayQueries bounds the distinct /query ASTs replayed per layer.
const maxReplayQueries = 300

// spanHandler wraps the API server: one span per request, named by route.
type spanHandler struct {
	tr *tracer
	h  http.Handler
}

// statusRecorder captures the status code; it passes Flush through so the
// SSE stream still streams.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

func (s spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	_, end := s.tr.start("api."+routeName(r), s.tr.parentOf(r.Header.Get(requestIDHeader)))
	s.h.ServeHTTP(rec, r)
	end(rec.Header().Get(requestIDHeader), rec.status >= 400)
}

// routeName maps a request to the api route it exercises.
func routeName(r *http.Request) string {
	p := strings.TrimPrefix(r.URL.Path, "/api/v1/")
	switch {
	case p == "bloggers/top":
		return "top"
	case strings.HasPrefix(p, "bloggers/") && strings.HasSuffix(p, "/network"):
		return "network"
	case strings.HasPrefix(p, "bloggers/"):
		return "blogger"
	case strings.HasPrefix(p, "domains/") && strings.HasSuffix(p, "/top"):
		return "domain_top"
	case p == "posts" || p == "comments" || p == "links":
		return "ingest"
	case p == "subscriptions" && r.Method == "POST":
		return "subscribe"
	case strings.HasPrefix(p, "subscriptions/") && strings.HasSuffix(p, "/events"):
		return "events"
	case p == "query", p == "advert", p == "profile", p == "stats", p == "domains", p == "trends", p == "engine":
		return p
	}
	return "other"
}

// sharedRoutes are exercised by every workload; their spans are the api
// per-layer metrics of the final JSON line.
var sharedRoutes = []string{"top", "blogger", "domain_top", "query", "advert", "profile"}

// flushMark is one harness-triggered flush: how many acked writes it
// covers (cumulative) and its cost.
type flushMark struct {
	acks    int
	allocMB float64
}

// runTraced hosts the workload's stack in this process, drives it with
// the same schedule as the untraced run and records spans around the
// calls into each layer.
func runTraced(ctx context.Context, cfg *config) (*report, error) {
	w := cfg.w
	rep := &report{correct: true}
	tr := newTracer()
	corpusPath := filepath.Join(cfg.runDir, "corpus.xml")
	c, base, err := genCorpus(cfg.seed, corpusPath)
	if err != nil {
		return nil, err
	}
	ci := newCorpusInfo(c)
	sched := buildSchedule(ci, w, cfg.seed, cfg.window)
	c = nil // the server's copy is loaded from XML below

	// Set-up, timed per layer.
	var loaded *blog.Corpus
	tLoad, err := tr.timed("xmlstore.load", 0, func(int64) (err error) {
		loaded, err = xmlstore.Load(corpusPath)
		return err
	})
	if err != nil {
		return nil, err
	}
	mirror := loaded.Snapshot() // replay copy, untouched by ingest
	dataDir := ""
	if w.durable {
		dataDir = filepath.Join(cfg.runDir, "data")
	}
	opts := clusterOptions(w, dataDir)
	var cl *cluster.Cluster
	tInit, err := tr.timed("core.initial_analysis", 0, func(int64) (err error) {
		cl, err = cluster.New(loaded, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			cl.Close()
		}
	}()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: spanHandler{tr: tr, h: api.NewCluster(cl, api.WithRateLimit(0, 0))}}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	defer srv.Close()
	baseURL := "http://" + ln.Addr().String()

	main := newConn(baseURL)
	defer main.close()
	d := newRunner(w, sched, main)
	d.tr = tr

	// Flushes: the harness calls Refresh on the server's debounce schedule,
	// so every flush has a span.
	var acked atomic.Int64
	d.onAck = func() { acked.Add(1) }
	var marks []flushMark
	flushStop := make(chan struct{})
	var flushWG sync.WaitGroup
	flushWG.Add(1)
	go func() {
		defer flushWG.Done()
		flushed, last := int64(0), time.Now()
		for {
			select {
			case <-flushStop:
				return
			case <-time.After(10 * time.Millisecond):
			}
			n := acked.Load()
			if n == flushed || (n-flushed < int64(w.flushEvery) && time.Since(last) < w.flushInterval) {
				continue
			}
			m, err := tracedRefresh(ctx, tr, cl)
			if err != nil {
				d.count(err, "refresh")
			}
			m.acks = int(n)
			marks = append(marks, m)
			flushed, last = n, time.Now()
		}
	}()

	loadCtx, stopLoad := context.WithCancel(ctx)
	defer stopLoad()
	var wg sync.WaitGroup
	if w.subscribe {
		if err := startSSE(ctx, loadCtx, d, baseURL, &wg); err != nil {
			return nil, err
		}
	}
	d.t0 = time.Now()
	if w.dashboard {
		c2 := newConn(baseURL)
		defer c2.close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.dashboardLoop(loadCtx, c2, dashThink)
		}()
	}
	computes := -cacheComputes(cl)
	d.runMain(ctx)
	// Read the cache's miss count before the drain and the read-back, whose
	// queries go through the same cache but are not scheduled requests.
	computes += cacheComputes(cl)
	if w.dashboard {
		d.stopDashboard(stopLoad, dashGrace)
	}
	if w.writeRate > 0 {
		if err := d.drain(ctx, 60*time.Second); err != nil {
			rep.gate("drain: %v", err)
		}
		if w.subscribe {
			d.waitPushed(5 * time.Second)
		}
		if err := retryReadback(ctx, main, sched.startPost, expectAfter(ci, base, d.acks), d); err != nil {
			rep.gate("after drain: %v", err)
		}
	}
	close(flushStop)
	flushWG.Wait()
	// One more flush after the load, so every workload has a refresh span
	// (with no pending writes it is the flush floor).
	if _, err := tracedRefresh(ctx, tr, cl); err != nil {
		d.count(err, "refresh")
	}
	if hub := cl.Subscriptions(); hub != nil {
		hub.Shutdown() // ends the SSE stream
	}
	stopLoad()
	wg.Wait()

	// Live counters.
	st := cl.FullStatus()
	var liveSubs subs.Stats
	if hub := cl.Subscriptions(); hub != nil {
		liveSubs = hub.Stats()
	}

	// The cluster layer: the run's distinct /query ASTs through
	// Cluster.Query on the final view.
	queries, err := decodeQueries(sched.queries)
	if err != nil {
		return nil, err
	}
	view := cl.View()
	for _, q := range queries {
		if _, err := tr.timed("cluster.query", 0, func(int64) error {
			_, _, err := cl.Query(view, q)
			return err
		}); err != nil {
			d.count(err, "cluster.Query replay")
		}
	}

	var walSeg, walSnap int64
	var walSnaps int
	closed = true
	if w.durable {
		walSeg, walSnap, walSnaps = walFiles(dataDir)
		if err := recoverTraced(tr, cl, opts, lastPost(d.acks), rep); err != nil {
			return nil, err
		}
	} else if err := cl.Close(); err != nil {
		return nil, err
	}
	shutCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	err = srv.Shutdown(shutCtx)
	cancel()
	if err != nil {
		return nil, err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return nil, err
	}

	// Replays through the layers' public entry points, after the load so
	// they do not disturb it.
	rp, err := replayFlushes(tr, mirror, d.acks, marks, sched)
	if err != nil {
		return nil, err
	}
	for _, q := range queries {
		if _, err := tr.timed("query.execute", 0, func(int64) error {
			_, err := query.Execute(rp.corpus, rp.result, q)
			return err
		}); err != nil {
			d.count(err, "query.Execute replay")
		}
	}
	if err := replayReadLayers(tr, rp, sched); err != nil {
		return nil, err
	}
	if len(d.acks) > 0 {
		if err := replayWAL(tr, filepath.Join(cfg.runDir, "wal-replay"), d.acks); err != nil {
			return nil, err
		}
	}

	clientMetrics(rep, d)
	tracedOverhead(cfg, rep)
	layerMetrics(rep, tr, layerInputs{
		load: tLoad, init: tInit, marks: marks, status: st, computes: computes,
		lookups: cacheLookups(d, w.shards), liveSubs: liveSubs, replay: rp,
		walSeg: walSeg, walSnap: walSnap, walSnaps: walSnaps,
	})
	if err := tr.write(filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", w.name, cfg.seed))); err != nil {
		return nil, err
	}
	return rep, nil
}

// clusterOptions mirrors mass-server's defaults, except that flushes are
// left to the harness.
func clusterOptions(w *workload, dataDir string) cluster.Options {
	return cluster.Options{
		Shards: w.shards, ShardTimeout: 2 * time.Second, DataDir: dataDir,
		ProbeInterval: time.Second, BreakerThreshold: 3, SpillLimit: 4096, IngestRetries: 3,
		Engine: core.EngineOptions{
			FlushEvery:    1 << 30,
			FlushInterval: 24 * time.Hour,
			Durability:    core.DurabilityOptions{SyncEvery: 64, SyncInterval: 100 * time.Millisecond, CheckpointEvery: 4096},
		},
	}
}

// tracedRefresh runs one Refresh inside a span and measures what it
// allocated (process-wide, so concurrent request handling counts too).
func tracedRefresh(ctx context.Context, tr *tracer, cl *cluster.Cluster) (flushMark, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := tr.timed("core.refresh", 0, func(int64) error { return cl.Refresh(ctx) })
	runtime.ReadMemStats(&after)
	return flushMark{allocMB: float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)}, err
}

// recoverTraced crashes every shard (no drain, no final checkpoint), stops
// the cluster's supervisor so it cannot restart them, and times
// cluster.New on the data directory; the recovered cluster must serve the
// last acked post.
func recoverTraced(tr *tracer, cl *cluster.Cluster, opts cluster.Options, last blog.PostID, rep *report) error {
	for i := range cl.NumShards() {
		cl.Shard(i).Kill()
	}
	if err := cl.Close(); err != nil { // engines are already closed: no flush, no checkpoint
		return err
	}
	var rec *cluster.Cluster
	if _, err := tr.timed("wal.recover", 0, func(int64) (err error) {
		rec, err = cluster.New(nil, opts)
		return err
	}); err != nil {
		return err
	}
	defer rec.Close()
	if last == "" {
		return nil
	}
	q, err := query.Decode(latestPostsQuery)
	if err != nil {
		return err
	}
	res, _, err := rec.Query(rec.View(), q)
	if err != nil {
		return err
	}
	for _, r := range res.Rows {
		if r.ID == string(last) {
			return nil
		}
	}
	rep.gate("in-process recovery lost the last acked post %s", last)
	return nil
}

// walFiles sums the on-disk WAL segment and checkpoint sizes.
func walFiles(dir string) (segBytes, snapBytes int64, snaps int) {
	_ = filepath.Walk(dir, func(p string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return nil // sizes are best effort; a vanished file is skipped
		}
		switch filepath.Ext(p) {
		case ".seg":
			segBytes += fi.Size()
		case ".snap":
			snapBytes += fi.Size()
			snaps++
		}
		return nil
	})
	return segBytes, snapBytes, snaps
}

func decodeQueries(bodies [][]byte) ([]*query.Query, error) {
	var qs []*query.Query
	for _, b := range bodies[:min(len(bodies), maxReplayQueries)] {
		q, err := query.Decode(b)
		if err != nil {
			return nil, err
		}
		qs = append(qs, q)
	}
	return qs, nil
}

// cacheComputes sums the query-cache misses of every shard so far. A
// shard's cache outlives its generations, so the count is cumulative.
func cacheComputes(cl *cluster.Cluster) int64 {
	n := int64(0)
	for i := range cl.NumShards() {
		n += cl.Shard(i).Current().QueryCache().Computes()
	}
	return n
}

// cacheLookups counts scheduled requests answered through an engine's
// query cache: every ranking, query and scenario read and freshness poll
// at one shard; only owner-routed author queries when sharded (scatter
// sub-plans bypass the cache).
func cacheLookups(d *runner, shards int) int {
	n := 0
	for _, r := range d.results {
		switch {
		case !r.ok:
		case shards == 1 && r.kind != opBlogger && (r.kind.interactive() || r.kind == opPoll):
			n++
		case r.kind == opQueryAuthor:
			n++
		}
	}
	return n
}

// replayed is the state the flush replay ends in.
type replayed struct {
	corpus     *blog.Corpus
	result     *influence.Result
	flushes    int
	iterations dist
	reusedPost dist
	reusedSent dist
	hub        subs.Stats
}

// replayFlushes re-runs the run's first flushes, one delta at a time,
// through the calls the engine's flush makes (Corpus.Snapshot, Validate,
// Analyzer.AnalyzeCached, advert.New, recommend.New, Hub.Apply with the
// standing subscriptions), warm from a cold analysis of the initial
// corpus. A run without writes replays one empty flush.
func replayFlushes(tr *tracer, mirror *blog.Corpus, acks []ack, marks []flushMark, sched *schedule) (*replayed, error) {
	nb, err := classify.TrainNaiveBayes(synth.TrainingExamples(lexicon.Domains(), 30, 1))
	if err != nil {
		return nil, err
	}
	an, err := influence.NewAnalyzer(influence.Config{Workers: runtime.GOMAXPROCS(0)}, nb)
	if err != nil {
		return nil, err
	}
	cache := influence.NewCache()
	prev, err := an.AnalyzeCached(mirror.Snapshot(), nil, cache)
	if err != nil {
		return nil, err
	}
	hub := subs.NewHub(subs.Generation{Seq: 1, Corpus: mirror.Snapshot(), Result: prev}, subs.Options{})
	defer hub.Shutdown()
	for _, b := range sched.replaySubs {
		q, err := query.Decode(b)
		if err != nil {
			return nil, err
		}
		if _, _, _, err := hub.Subscribe(q); err != nil {
			return nil, err
		}
	}
	var deltas [][]ack
	from := 0
	for _, m := range marks {
		if m.acks > from {
			deltas = append(deltas, acks[from:m.acks])
			from = m.acks
		}
	}
	if len(deltas) == 0 {
		deltas = [][]ack{nil}
	}
	rp := &replayed{}
	var snap *blog.Corpus
	for i, delta := range deltas[:min(len(deltas), maxReplayFlushes)] {
		if err := applyAcked(mirror, delta); err != nil {
			return nil, err
		}
		parent, end := tr.start("replay.flush", 0)
		steps := []struct {
			name string
			fn   func() error
		}{
			{"blog.snapshot", func() error { snap = mirror.Snapshot(); return nil }},
			{"blog.validate", func() error { return snap.Validate() }},
			{"influence.analyze", func() (err error) { prev, err = an.AnalyzeCached(snap, prev, cache); return err }},
			{"advert.new", func() error { _, err := advert.New(nb, prev); return err }},
			{"recommend.new", func() error { _, err := recommend.New(nb, prev, snap); return err }},
			{"subs.apply", func() error {
				hub.Apply(subs.Generation{Seq: uint64(i + 2), Corpus: snap, Result: prev})
				return nil
			}},
		}
		for _, s := range steps {
			if _, err := tr.timed(s.name, parent, func(int64) error { return s.fn() }); err != nil {
				end("", true)
				return nil, fmt.Errorf("replay %s: %w", s.name, err)
			}
		}
		end("", false)
		rp.flushes++
		rp.iterations.add(float64(prev.Iterations))
		rp.reusedPost.add(float64(prev.ReusedPosteriors) / float64(max(len(snap.Posts), 1)))
		comments := 0
		for _, p := range snap.Posts {
			comments += len(p.Comments)
		}
		rp.reusedSent.add(float64(prev.ReusedSentiments) / float64(max(comments, 1)))
	}
	rp.corpus, rp.result, rp.hub = snap, prev, hub.Stats()
	return rp, nil
}

// replayReadLayers times the dashboard's layers once each on the final
// replayed generation: blog stats, trends, and the network around the
// first dashboard centre at the default radius (build, then layout).
func replayReadLayers(tr *tracer, rp *replayed, sched *schedule) error {
	for range 3 {
		tr.timed("linkrank.pagerank", 0, func(int64) error {
			linkrank.PageRankCSR(rp.corpus.LinkCSR(), linkrank.Options{})
			return nil
		})
	}
	tr.timed("blog.stats", 0, func(int64) error {
		blog.ComputeStats(rp.corpus, textutil.WordCount)
		return nil
	})
	if _, err := tr.timed("trend.analyze", 0, func(int64) error {
		_, err := trend.Analyze(rp.corpus, rp.result, trend.Config{})
		return err
	}); err != nil {
		return err
	}
	var n *viz.Network
	if _, err := tr.timed("viz.build", 0, func(int64) (err error) {
		n, err = viz.Build(rp.corpus, sched.pages[0], api.DefaultRadius, rp.result.BloggerScores)
		return err
	}); err != nil {
		return err
	}
	tr.timed("viz.layout", 0, func(int64) error { n.Layout(1, 0); return nil })
	return nil
}

// replayWAL appends the run's acked writes to a fresh log in the data
// directory layout the engine uses, syncing every 64 records as the
// server's default group commit does.
func replayWAL(tr *tracer, dir string, acks []ack) error {
	l, _, err := wal.Open(wal.Options{Dir: dir, SyncEvery: 1 << 30, SyncInterval: -1})
	if err != nil {
		return err
	}
	for i, a := range acks {
		op := walOp(a.w)
		if _, err := tr.timed("wal.append", 0, func(int64) error { return l.Append(op) }); err != nil {
			l.Close()
			return err
		}
		if (i+1)%64 == 0 || i == len(acks)-1 {
			if _, err := tr.timed("wal.sync", 0, func(int64) error { return l.Sync() }); err != nil {
				l.Close()
				return err
			}
		}
	}
	return l.Close()
}

func walOp(w *write) wal.Op {
	switch w.Kind {
	case opPost:
		return wal.Op{Kind: wal.OpPost, Post: &blog.Post{ID: w.Post, Author: w.Author, Title: w.Title, Body: w.Text, Posted: w.Posted, Tags: w.Tags}}
	case opComment:
		return wal.Op{Kind: wal.OpComment, PostID: w.Post, Comment: &blog.Comment{Commenter: w.Author, Text: w.Text, Posted: w.Posted}}
	}
	return wal.Op{Kind: wal.OpLink, From: w.From, To: w.To}
}

// tracedOverhead prints the traced minus the untraced value of each
// shared end-to-end metric, when an untraced run of the same workload and
// seed left its numbers in the build directory.
func tracedOverhead(cfg *config, rep *report) {
	b, err := os.ReadFile(sharedPath(cfg))
	if err != nil {
		rep.note("tracing overhead: no untraced run with seed %d found; run --trace 0 with the same seed first", cfg.seed)
		return
	}
	var untraced map[string]float64
	if err := json.Unmarshal(b, &untraced); err != nil {
		rep.note("tracing overhead: unreadable %s: %v", sharedPath(cfg), err)
		return
	}
	for _, m := range rep.metrics {
		if u, ok := untraced[m.name]; ok && strings.HasPrefix(m.name, "read_") {
			rep.note("tracing overhead %-12s traced %.3f − untraced %.3f = %+.3f %s", m.name, m.value, u, m.value-u, m.unit)
		}
	}
}

// layerInputs are the live and replayed observations layerMetrics reads.
type layerInputs struct {
	load, init time.Duration
	marks      []flushMark
	status     cluster.ClusterStatus
	computes   int64
	lookups    int
	liveSubs   subs.Stats
	replay     *replayed
	walSeg     int64 // WAL segment bytes in the data dir
	walSnap    int64 // checkpoint bytes in the data dir
	walSnaps   int
}

// layerMetrics reports every per-layer metric. Those the final JSON line
// carries are measured on every workload; the rest exist only where the
// workload exercises the layer.
func layerMetrics(rep *report, tr *tracer, in layerInputs) {
	us, ms := time.Microsecond, time.Millisecond
	add := func(name, unit string, v float64, n int) {
		rep.add(metric{name: name, unit: unit, value: v, n: n, json: true})
	}
	requests := 0
	for _, r := range sharedRoutes {
		d := tr.byName("api."+r, us)
		add("api."+r+".p50_us", "us", d.median(), d.n())
		add("api."+r+".p99_us", "us", d.p(99), d.n())
		requests += d.n()
	}
	// Transport: a scheduled request's client span minus the server
	// handler span nested in it (same request ID) is the time spent in the
	// HTTP stacks and on loopback.
	all := tr.all()
	self := selfTimes(all)
	var transport dist
	for _, s := range all {
		if strings.HasPrefix(s.Name, "client.") {
			transport.addDur(self[s.ID], us)
		}
	}
	add("api.transport_p50_us", "us", transport.median(), transport.n())
	add("api.transport_p99_us", "us", transport.p(99), transport.n())
	add("api.requests", "count", float64(requests), 0)
	add("api.errors", "count", float64(tr.errors("api.")), 0)
	for _, r := range []string{"stats", "domains", "trends", "network", "ingest", "subscribe"} {
		if d := tr.byName("api."+r, us); d.n() > 0 {
			rep.add(metric{name: "api." + r + ".p50_us", unit: "us", value: d.median(), n: d.n()})
			rep.add(metric{name: "api." + r + ".p99_us", unit: "us", value: d.p(99), n: d.n()})
		}
	}

	qe := tr.byName("query.execute", us)
	add("query.execute_p50_us", "us", qe.median(), qe.n())
	add("query.execute_p99_us", "us", qe.p(99), qe.n())
	add("query.cache_hit_ratio", "ratio", max(0, 1-float64(in.computes)/float64(max(in.lookups, 1))), in.lookups)

	cq := tr.byName("cluster.query", us)
	add("cluster.query_p50_us", "us", cq.median(), cq.n())
	add("cluster.query_p99_us", "us", cq.p(99), cq.n())
	add("cluster.scatter_queries", "count", float64(in.status.ScatterQueries), 0)
	add("cluster.degraded_queries", "count", float64(in.status.DegradedQueries), 0)
	add("cluster.boundary_edges", "count", float64(in.status.BoundaryEdges), 0)

	ref := tr.byName("core.refresh", ms)
	var alloc, muts dist
	prev := 0
	for _, m := range in.marks {
		alloc.add(m.allocMB)
		muts.add(float64(m.acks - prev))
		prev = m.acks
	}
	add("core.initial_analysis_s", "s", in.init.Seconds(), 0)
	add("core.refresh_p50_ms", "ms", ref.median(), ref.n())
	add("core.refresh_max_ms", "ms", ref.max(), ref.n())
	add("core.alloc_mb_per_flush", "MB", zeroIfNaN(alloc.median()), alloc.n())

	add("xmlstore.load_s", "s", in.load.Seconds(), 0)
	for _, n := range []string{"blog.snapshot", "blog.validate", "blog.stats", "influence.analyze", "advert.new", "recommend.new", "subs.apply", "linkrank.pagerank", "trend.analyze", "viz.build", "viz.layout"} {
		d := tr.byName(n, ms)
		add(n+"_ms", "ms", d.median(), d.n())
	}
	rp := in.replay
	add("influence.iterations", "count", rp.iterations.median(), rp.iterations.n())
	add("influence.reused_posterior_ratio", "ratio", rp.reusedPost.median(), rp.reusedPost.n())
	add("influence.reused_sentiment_ratio", "ratio", rp.reusedSent.median(), rp.reusedSent.n())
	evals := rp.hub.IncrementalEvals + rp.hub.FullEvalFallbacks
	add("subs.incremental_ratio", "ratio", float64(rp.hub.IncrementalEvals)/float64(max(evals, 1)), int(evals))
	add("subs.dropped_diffs", "count", float64(in.liveSubs.DroppedDiffs), 0)

	// Counts set by how often the harness flushes: a faster Refresh means
	// more flushes with fewer mutations each, so these describe the run
	// and have no better direction. Printed, not in the JSON line.
	flushCount := func(name string, v float64, n int) {
		rep.add(metric{name: name, unit: "count", value: v, n: n, note: "set by the flush schedule"})
	}
	flushCount("core.flushes", float64(len(in.marks)), 0)
	flushCount("core.mutations_per_flush", zeroIfNaN(muts.median()), muts.n())
	flushCount("linkrank.delta_flushes", float64(in.status.PageRankDelta), 0)
	flushCount("linkrank.fallback_flushes", float64(in.status.PageRankFallback), 0)
	flushCount("linkrank.pushed_nodes", float64(in.status.PageRankPushed), 0)
	flushCount("subs.pushed_diffs", float64(in.liveSubs.PushedDiffs), 0)

	// Layers only some workloads exercise: printed, not in the JSON line.
	if d := tr.byName("wal.append", us); d.n() > 0 {
		rep.add(metric{name: "wal.append_p50_us", unit: "us", value: d.median(), n: d.n(), note: "replayed acked writes"})
		rep.add(metric{name: "wal.append_p99_us", unit: "us", value: d.p(99), n: d.n()})
		s := tr.byName("wal.sync", ms)
		rep.add(metric{name: "wal.sync_ms", unit: "ms", value: s.median(), n: s.n(), note: "fsync per 64-record group commit"})
	}
	if in.status.WALRecords > 0 {
		rep.add(metric{name: "wal.records_per_sync", unit: "count", value: float64(in.status.WALRecords) / float64(max(in.status.WALSyncs, 1))})
		rep.add(metric{name: "wal.bytes_per_op", unit: "B", value: float64(in.walSeg) / float64(in.status.WALRecords), note: "WAL segment bytes per record"})
		rep.add(metric{name: "wal.checkpoints", unit: "count", value: float64(in.status.Checkpoints)})
	}
	if in.walSnaps > 0 {
		rep.add(metric{name: "wal.checkpoint_bytes", unit: "B", value: float64(in.walSnap) / float64(in.walSnaps), n: in.walSnaps})
	}
	if d := tr.byName("wal.recover", time.Second); d.n() > 0 {
		rep.add(metric{name: "wal.recover_s", unit: "s", value: d.median(), note: "cluster.New on the killed data dir"})
	}
}

func zeroIfNaN(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}
