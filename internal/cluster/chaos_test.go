package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/core"
	"mass/internal/linkrank"
	"mass/internal/query"
	"mass/internal/wal"
)

// The chaos harness: deterministic fault injection (crash, wedge, slow
// probe, fsync failure) against the shard supervisor, asserting the three
// robustness invariants end to end — no acknowledged ingest is ever lost,
// no query hangs past its deadline, and a recovered cluster converges to
// the same state as one that never crashed.

// supervisedOptions is the common fast-cadence supervision config the
// chaos tests run under: quick probes so recovery happens within test
// timescales, and a short breaker fuse.
func supervisedOptions(shards int) Options {
	return Options{
		Shards:           shards,
		Engine:           quietEngine(),
		ShardTimeout:     time.Second,
		ProbeInterval:    5 * time.Millisecond,
		ProbeTimeout:     50 * time.Millisecond,
		BreakerThreshold: 2,
		IngestRetryDelay: time.Millisecond,
	}
}

// waitSettled polls until every shard is Healthy with an empty spill
// queue — the supervisor's steady state after faults stop.
func waitSettled(t *testing.T, cl *Cluster, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		settled := cl.FullStatus().SpillPending == 0
		for _, h := range cl.ShardHealths() {
			settled = settled && h == HealthHealthy
		}
		if settled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster did not settle in %v: health=%v spillPending=%d",
				timeout, cl.ShardHealths(), cl.FullStatus().SpillPending)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// ownedID finds the first ID with the given prefix the ring assigns to
// shard.
func ownedID(cl *Cluster, shard int, prefix string) blog.BloggerID {
	for i := 0; ; i++ {
		id := blog.BloggerID(fmt.Sprintf("%s%04d", prefix, i))
		if cl.Owner(id) == shard {
			return id
		}
	}
}

// clusterPosts unions the post sets across all shards.
func clusterPosts(cl *Cluster) map[blog.PostID]bool {
	out := make(map[blog.PostID]bool)
	for i := 0; i < cl.NumShards(); i++ {
		for pid := range cl.Shard(i).Current().Corpus().Posts {
			out[pid] = true
		}
	}
	return out
}

// TestBreakerFastFailsQuarantinedShard: a crashed-and-wedged shard must
// not cost scatters its timeout — the open breaker skips it outright, the
// result comes back degraded almost immediately, and after the wedge
// clears the supervisor walks the shard back to Healthy with full data.
func TestBreakerFastFailsQuarantinedShard(t *testing.T) {
	c := postCorpus(t)
	cl, err := New(c, supervisedOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wedged atomic.Bool
	wedged.Store(true)
	cl.SetSlowShardHook(func(si int) {
		if si == 2 && wedged.Load() {
			time.Sleep(200 * time.Millisecond) // > ProbeTimeout: rejoin probes fail
		}
	})
	cl.CrashShard(2)
	if h := cl.ShardHealths()[2]; h != HealthQuarantined && h != HealthRecovering {
		t.Fatalf("crashed shard health = %v", h)
	}

	q := query.Bloggers().OrderBy(query.Desc(query.FieldInfluence)).Limit(100).Build()
	start := time.Now()
	got, degraded, err := cl.Query(cl.View(), q)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if !degraded {
		t.Fatal("scatter over a quarantined shard must report degraded")
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("degraded scatter took %v — breaker did not fast-fail (timeout is %v)",
			elapsed, cl.opts.ShardTimeout)
	}
	for _, r := range got.Rows {
		if cl.Owner(blog.BloggerID(r.ID)) == 2 {
			t.Fatalf("row %q leaked from the quarantined shard", r.ID)
		}
	}
	fs := cl.FullStatus()
	if fs.BreakerOpens == 0 {
		t.Fatal("breakerOpens counter did not move")
	}
	if fs.ShardHealth[2] == "healthy" {
		t.Fatalf("status shardHealth = %v", fs.ShardHealth)
	}

	// Heal: the half-open probe passes, the shard rejoins, data returns.
	wedged.Store(false)
	waitSettled(t, cl, 10*time.Second)
	got, degraded, err = cl.Query(cl.View(), q)
	if err != nil || degraded {
		t.Fatalf("after rejoin: degraded=%v err=%v", degraded, err)
	}
	if got.Total != len(c.Bloggers) {
		t.Fatalf("after rejoin total = %d, want %d — restart lost data", got.Total, len(c.Bloggers))
	}
	if cl.FullStatus().ShardRestarts == 0 {
		t.Fatal("shardRestarts counter did not move")
	}
}

// TestSpillAckAndShedOverload: writes against a down shard are
// acknowledged into the bounded spill queue; once it saturates they shed
// with a retryable OverloadError; after recovery the spilled writes are
// replayed and the shed one can be resubmitted.
func TestSpillAckAndShedOverload(t *testing.T) {
	opts := supervisedOptions(1)
	opts.SpillLimit = 4
	cl, err := New(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wedged atomic.Bool
	wedged.Store(true)
	cl.SetSlowShardHook(func(si int) {
		if wedged.Load() {
			time.Sleep(200 * time.Millisecond)
		}
	})
	cl.CrashShard(0)

	when := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
	batch := func(i int) core.Batch {
		id := fmt.Sprintf("s%03d", i)
		return core.Batch{
			Bloggers: []*blog.Blogger{{ID: blog.BloggerID(id), Name: id}},
			Posts:    []*blog.Post{post("sp"+id, id, when.Add(time.Duration(i)*time.Hour))},
		}
	}
	// Each batch is 2 ops (blogger + post); SpillLimit 4 takes exactly two.
	for i := 0; i < 2; i++ {
		if err := cl.AddBatch(batch(i)); err != nil {
			t.Fatalf("spill ack %d: %v", i, err)
		}
	}
	err = cl.AddBatch(batch(2))
	var ov *OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("saturated spill returned %v, want OverloadError", err)
	}
	if !ov.Temporary() || ov.RetryAfter <= 0 {
		t.Fatalf("OverloadError not retryable: %+v", ov)
	}
	fs := cl.FullStatus()
	if fs.SpilledRecords != 4 || fs.ShedRequests == 0 || fs.SpillPending != 4 {
		t.Fatalf("spilled=%d shed=%d pending=%d, want 4/>0/4",
			fs.SpilledRecords, fs.ShedRequests, fs.SpillPending)
	}

	wedged.Store(false)
	waitSettled(t, cl, 10*time.Second)
	if err := cl.AddBatch(batch(2)); err != nil {
		t.Fatalf("resubmit after recovery: %v", err)
	}
	if err := cl.Refresh(t.Context()); err != nil {
		t.Fatal(err)
	}
	posts := clusterPosts(cl)
	for i := 0; i < 3; i++ {
		pid := blog.PostID(fmt.Sprintf("sps%03d", i))
		if !posts[pid] {
			t.Fatalf("acked post %s lost across crash/spill/replay", pid)
		}
	}
	if got := cl.FullStatus().ReplayedRecords; got < 4 {
		t.Fatalf("replayedRecords = %d, want >= 4", got)
	}
}

// chaosBatches builds the deterministic ingest sequence the property and
// equivalence tests feed to both the faulted and the control cluster.
// Fresh pointers per call: two engines must never share mutable posts.
func chaosBatches(n int, seed int64) []core.Batch {
	rng := rand.New(rand.NewSource(seed))
	when := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
	out := make([]core.Batch, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("k%04d", i)
		b := core.Batch{
			Bloggers: []*blog.Blogger{{ID: blog.BloggerID(id), Name: "B " + id}},
			Posts:    []*blog.Post{post("kp"+id, id, when.Add(time.Duration(i)*time.Minute))},
		}
		if i > 0 {
			prev := fmt.Sprintf("k%04d", rng.Intn(i))
			b.Links = []blog.Link{{From: blog.BloggerID(id), To: blog.BloggerID(prev)}}
			b.Comments = []core.BatchComment{{
				Post: blog.PostID("kp" + prev),
				Comment: blog.Comment{
					Commenter: blog.BloggerID(id),
					Text:      fmt.Sprintf("re %d", i),
					Posted:    when.Add(time.Duration(i)*time.Minute + time.Second),
				},
			}}
		}
		out[i] = b
	}
	return out
}

// TestKillScheduleNeverLosesAcked is the property test: for a range of
// random single-shard kill schedules, every acknowledged batch must
// survive, and the recovered cluster's exact global PageRank must match a
// never-crashed control cluster to 1e-12.
func TestKillScheduleNeverLosesAcked(t *testing.T) {
	const nBatches = 40
	for seed := int64(0); seed < 5; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			kills := map[int]int{} // batch index -> shard to kill first
			for k := 0; k < 1+rng.Intn(2); k++ {
				kills[rng.Intn(nBatches)] = rng.Intn(3)
			}

			victim, err := New(nil, supervisedOptions(3))
			if err != nil {
				t.Fatal(err)
			}
			defer victim.Close()
			control, err := New(nil, supervisedOptions(3))
			if err != nil {
				t.Fatal(err)
			}
			defer control.Close()

			vb, cb := chaosBatches(nBatches, 100+seed), chaosBatches(nBatches, 100+seed)
			for i := 0; i < nBatches; i++ {
				if s, ok := kills[i]; ok {
					victim.CrashShard(s)
				}
				if err := victim.AddBatch(vb[i]); err != nil {
					t.Fatalf("batch %d not acknowledged after kill: %v", i, err)
				}
				if err := control.AddBatch(cb[i]); err != nil {
					t.Fatal(err)
				}
			}

			waitSettled(t, victim, 15*time.Second)
			if err := victim.Refresh(t.Context()); err != nil {
				t.Fatal(err)
			}
			if err := control.Refresh(t.Context()); err != nil {
				t.Fatal(err)
			}

			got, want := clusterPosts(victim), clusterPosts(control)
			if len(got) != len(want) {
				t.Fatalf("post count %d after kills, want %d", len(got), len(want))
			}
			for pid := range want {
				if !got[pid] {
					t.Fatalf("acked post %s lost", pid)
				}
			}
			gr, err := victim.GlobalPageRank(linkrank.Options{})
			if err != nil {
				t.Fatal(err)
			}
			wr, err := control.GlobalPageRank(linkrank.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if worst := maxAbsDiff(t, gr.IDs, gr.Scores, wr.IDs, wr.Scores); worst > 1e-12 {
				t.Fatalf("recovered PageRank diverges from never-crashed control: max |Δ| = %g", worst)
			}
		})
	}
}

// TestChaosChurn races ingest, re-analysis and scatter reads against a
// chaos injector that repeatedly crashes random shards and wedges their
// probes — the -race sweep for the whole supervision path. Invariants: no
// acknowledged batch errors, no read exceeds its deadline, and once the
// chaos stops the cluster settles with every acknowledged post present.
func TestChaosChurn(t *testing.T) {
	opts := supervisedOptions(3)
	opts.ShardTimeout = 100 * time.Millisecond
	opts.ProbeTimeout = 40 * time.Millisecond
	cl, err := New(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	var wedgedShard atomic.Int32 // -1: none
	wedgedShard.Store(-1)
	cl.SetSlowShardHook(func(si int) {
		if int32(si) == wedgedShard.Load() {
			time.Sleep(150 * time.Millisecond)
		}
	})

	stop := make(chan struct{})
	errs := make(chan error, 4)
	fail := func(format string, args ...any) {
		select {
		case errs <- fmt.Errorf(format, args...):
		default:
		}
	}
	var acked atomic.Int64
	var wg sync.WaitGroup
	wg.Add(3)
	// Ingester: every batch must acknowledge — live, retried, or spilled.
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		when := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("c%04d", i)
			b := core.Batch{
				Bloggers: []*blog.Blogger{{ID: blog.BloggerID(id), Name: id}},
				Posts:    []*blog.Post{post("cp"+id, id, when.Add(time.Duration(i)*time.Minute))},
			}
			if i > 0 {
				b.Links = []blog.Link{{
					From: blog.BloggerID(id),
					To:   blog.BloggerID(fmt.Sprintf("c%04d", rng.Intn(i))),
				}}
			}
			for {
				err := cl.AddBatch(b)
				if err == nil {
					break
				}
				// A saturated spill queue sheds the write un-acked; a real
				// client honors the Retry-After hint — anything else is lost
				// acknowledgment and fails the test.
				var ov *OverloadError
				if !errors.As(err, &ov) {
					fail("ingest %d under chaos: %w", i, err)
					return
				}
				select {
				case <-stop:
					return
				case <-time.After(ov.RetryAfter):
				}
			}
			acked.Add(1)
		}
	}()
	// Reader: every query bounded and error-free.
	go func() {
		defer wg.Done()
		q := query.Bloggers().OrderBy(query.Desc(query.FieldInfluence)).Limit(10).Build()
		for {
			select {
			case <-stop:
				return
			default:
			}
			start := time.Now()
			_, _, err := cl.Query(cl.View(), q)
			if err != nil {
				fail("query under chaos: %w", err)
				return
			}
			if el := time.Since(start); el > 3*time.Second {
				fail("query took %v — deadline did not bound it", el)
				return
			}
		}
	}()
	// Flusher: continuous re-analysis; a shard killed between the health
	// check and the Refresh call surfaces ErrClosed — that is the race the
	// supervisor exists to absorb, not a failure.
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := cl.Refresh(t.Context()); err != nil && !errors.Is(err, core.ErrClosed) {
				fail("refresh under chaos: %w", err)
				return
			}
		}
	}()

	// Chaos injector: crash a random shard every 100ms, wedging every
	// other victim's probes for a round so restarts interleave with
	// quarantine windows.
	chaosRNG := rand.New(rand.NewSource(13))
	for round := 0; round < 8; round++ {
		time.Sleep(100 * time.Millisecond)
		victim := chaosRNG.Intn(3)
		if round%2 == 1 {
			wedgedShard.Store(int32(victim))
		} else {
			wedgedShard.Store(-1)
		}
		cl.CrashShard(victim)
		select {
		case e := <-errs:
			t.Fatal(e)
		default:
		}
	}
	wedgedShard.Store(-1)
	close(stop)
	wg.Wait()
	select {
	case e := <-errs:
		t.Fatal(e)
	default:
	}

	// A shard can end the chaos window Healthy-but-killed (crashed after
	// its last rejoin with nothing left to spill). One probe write per
	// shard forces the supervisor to notice and cycle it. A probe shed by
	// a still-full spill queue is retried after its Retry-After hint, as
	// the churn ingester does, within the settle deadline.
	settleBy := time.Now().Add(15 * time.Second)
	for s := 0; s < cl.NumShards(); s++ {
		for {
			err := cl.AddBatch(core.Batch{
				Bloggers: []*blog.Blogger{{ID: ownedID(cl, s, "settle")}},
			})
			if err == nil {
				break
			}
			var ov *OverloadError
			if !errors.As(err, &ov) || time.Now().Add(ov.RetryAfter).After(settleBy) {
				t.Fatalf("settle write to shard %d: %v", s, err)
			}
			time.Sleep(ov.RetryAfter)
		}
	}
	waitSettled(t, cl, time.Until(settleBy))
	if err := cl.Refresh(t.Context()); err != nil {
		t.Fatal(err)
	}
	want := int(acked.Load())
	posts := clusterPosts(cl)
	if len(posts) != want {
		t.Fatalf("%d posts survived, %d batches were acknowledged", len(posts), want)
	}
	fs := cl.FullStatus()
	if fs.ShardRestarts == 0 || fs.BreakerOpens == 0 {
		t.Fatalf("chaos did not exercise the supervisor: %+v", fs)
	}
}

// failSyncFS injects fsync failures into files whose path contains match,
// toggled at runtime — the fail-stop fault for one shard's engine WAL
// while its spill queue (a different directory) stays healthy.
type failSyncFS struct {
	wal.FS
	match string
	fail  atomic.Bool
}

func (f *failSyncFS) Create(path string) (wal.File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	if !strings.Contains(path, f.match) {
		return file, nil
	}
	return &failSyncFile{File: file, fs: f}, nil
}

type failSyncFile struct {
	wal.File
	fs *failSyncFS
}

func (f *failSyncFile) Sync() error {
	if f.fs.fail.Load() {
		return errors.New("injected fsync failure")
	}
	return f.File.Sync()
}

// TestWALFailStopSpillsAndRecovers: a shard whose WAL hits its sticky
// fail-stop must quarantine (writes spill, acknowledged durably via the
// healthy spill WAL), report durability "failed" while down, and — once
// the filesystem heals — restart over its own directory, replay the
// spill, and end up with every acknowledged record.
func TestWALFailStopSpillsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	ffs := &failSyncFS{FS: wal.OSFS(), match: "shard-1"}
	opts := supervisedOptions(2)
	opts.DataDir = dir
	opts.Engine.Durability = core.DurabilityOptions{SyncEvery: 1, SyncInterval: -1}
	opts.ShardFS = func(shard int) wal.FS {
		if shard == 1 {
			return ffs
		}
		return nil
	}
	cl, err := New(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	when := time.Date(2009, 6, 1, 0, 0, 0, 0, time.UTC)
	mkBatch := func(i int) core.Batch {
		id := ownedID(cl, 1, fmt.Sprintf("f%d-", i))
		return core.Batch{
			Bloggers: []*blog.Blogger{{ID: id, Name: string(id)}},
			Posts:    []*blog.Post{post(fmt.Sprintf("fp%03d", i), string(id), when.Add(time.Duration(i)*time.Hour))},
		}
	}
	if err := cl.AddBatch(mkBatch(0)); err != nil {
		t.Fatal(err)
	}

	ffs.fail.Store(true)
	// The engine WAL fail-stops; the write must still acknowledge, via the
	// spill queue under spill-1/ (whose syncs are not matched).
	if err := cl.AddBatch(mkBatch(1)); err != nil {
		t.Fatalf("write during WAL fail-stop not acknowledged: %v", err)
	}
	fs := cl.FullStatus()
	if fs.SpilledRecords == 0 {
		t.Fatal("fail-stopped shard did not spill")
	}
	if h := cl.ShardHealths()[1]; h == HealthHealthy {
		t.Fatal("fail-stopped shard still Healthy")
	}
	// While the FS is broken the supervisor cannot rebuild the shard (the
	// fresh WAL's header fsync fails too), so readiness keeps reporting
	// the sticky failure.
	deadline := time.Now().Add(5 * time.Second)
	for {
		rows, failStopped := cl.Readiness()
		if rows[1].Durability == "failed" {
			if failStopped {
				t.Fatal("one failed shard of two must not report the whole cluster fail-stopped")
			}
			if rows[0].Durability != "ok" {
				t.Fatalf("healthy shard readiness: %+v", rows[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("readiness never reported the fail-stop: %+v", rows)
		}
		time.Sleep(2 * time.Millisecond)
	}

	ffs.fail.Store(false)
	waitSettled(t, cl, 10*time.Second)
	if err := cl.Refresh(t.Context()); err != nil {
		t.Fatal(err)
	}
	posts := clusterPosts(cl)
	for i := 0; i < 2; i++ {
		pid := blog.PostID(fmt.Sprintf("fp%03d", i))
		if !posts[pid] {
			t.Fatalf("acked post %s lost across the fail-stop", pid)
		}
	}
	rows, failStopped := cl.Readiness()
	if failStopped || rows[1].Durability != "ok" || rows[1].Restarts == 0 {
		t.Fatalf("after heal: failStopped=%v rows=%+v", failStopped, rows)
	}
}
