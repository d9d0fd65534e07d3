package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"mass/internal/blog"
)

// runUntraced measures what a client of a live mass-server child process
// sees under the workload.
func runUntraced(ctx context.Context, cfg *config) (*report, error) {
	w := cfg.w
	rep := &report{correct: true}
	corpusPath := filepath.Join(cfg.runDir, "corpus.xml")
	logPath := filepath.Join(cfg.runDir, "server.log")
	phase := newPhases()
	c, base, err := genCorpus(cfg.seed, corpusPath)
	if err != nil {
		return nil, err
	}
	ci := newCorpusInfo(c)
	sched := buildSchedule(ci, w, cfg.seed, cfg.window)
	phase.mark("corpus")

	// Set-up: launch → first successful read. One launch per run keeps the
	// runner's full set of runs inside its time budget.
	dataDir := ""
	if w.durable {
		dataDir = filepath.Join(cfg.runDir, "data")
	}
	start := time.Now()
	srv, err := startServer(cfg.server, w, corpusPath, dataDir, logPath)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	setup, err := srv.waitReady(ctx, start, "/api/v1/bloggers/top?limit=1", nil, nil, 5*time.Minute)
	if err != nil {
		return nil, err
	}
	phase.mark("setup")
	main := newConn(srv.base)
	defer main.close()
	d := newRunner(w, sched, main)
	loadCtx, stopLoad := context.WithCancel(ctx)
	defer stopLoad()
	var wg sync.WaitGroup
	if w.subscribe {
		if err := startSSE(ctx, loadCtx, d, srv.base, &wg); err != nil {
			return nil, err
		}
	}
	d.t0 = time.Now()
	if w.dashboard {
		c2 := newConn(srv.base)
		defer c2.close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.dashboardLoop(loadCtx, c2, dashThink)
		}()
	}
	d.runMain(ctx)
	if w.dashboard {
		// The page in flight finishes (bounded), so every run counts one.
		d.stopDashboard(stopLoad, dashGrace)
	}

	phase.mark("load")
	var e *expected
	if w.writeRate > 0 {
		if err := d.drain(ctx, 60*time.Second); err != nil {
			rep.gate("drain: %v", err)
		}
		if w.subscribe {
			d.waitPushed(5 * time.Second)
		}
		e = expectAfter(ci, base, d.acks)
		if err := retryReadback(ctx, main, sched.startPost, e, d); err != nil {
			rep.gate("after drain: %v", err)
		}
	}
	stopLoad()
	wg.Wait()

	var served []scoredRow
	err = main.getJSON(ctx, "GET", "/api/v1/bloggers/top?limit=10", nil, &served)
	d.count(err, "top-10 after drain")
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	phase.mark("drain")
	var restart dist
	if w.durable && len(d.postAck) > 0 {
		last := lastPost(d.acks)
		for i := range restartCycles {
			t := time.Now()
			srv.kill()
			srv = nil
			p, err := startServer(cfg.server, w, "", dataDir, logPath)
			if err != nil {
				return nil, err
			}
			srv = p
			rt, err := p.waitReady(ctx, t, "/api/v1/query", latestPostsQuery, rowsHold(string(last)), 2*time.Minute)
			if err != nil {
				rep.gate("restart %d: %v", i+1, err)
				break
			}
			restart.add(rt.Seconds())
			if i == 0 {
				rc := newConn(p.base)
				if _, err := verifyReadback(ctx, rc, sched.startPost, e); err != nil {
					rep.gate("after kill -9 and restart: %v", err)
				}
				rc.close()
			}
		}
	}
	srv.kill()
	srv = nil
	phase.mark("restarts")

	// Reference: a cold single-engine analysis of the same final corpus.
	if err := applyAcked(c, d.acks); err != nil {
		return nil, err
	}
	ref, err := coldTop10(c)
	if err != nil {
		return nil, err
	}
	agree, ok := top10Agreement(served, ref)
	if !ok && w.shards == 1 {
		rep.gate("served top-10 differs from the cold analysis beyond %g: served %v, cold %v", scoreTol, served, ref)
	}

	phase.mark("reference")
	rep.note("wall time by phase: %s", phase)
	clientMetrics(rep, d)
	rep.add(metric{name: "setup_s", unit: "s", value: setup.Seconds(), json: true, note: "launch → first successful read"})
	rep.add(metric{name: "server_rss_peak_mb", unit: "MB", value: rss, json: true, note: "VmHWM of the server that carried the load"})
	if restart.n() > 0 {
		rep.add(metric{name: "restart_s", unit: "s", value: restart.median(), n: restart.n(), note: "kill -9 → recovered server returns the last acked post"})
	}
	rep.add(metric{name: "top10_agreement", unit: "positions", value: float64(agree), note: "served vs cold single-engine top 10"})
	if err := saveShared(cfg, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// phases times the stages of a run, for the run's own budget.
type phases struct {
	last  time.Time
	parts []string
}

func newPhases() *phases { return &phases{last: time.Now()} }

func (p *phases) mark(name string) {
	p.parts = append(p.parts, fmt.Sprintf("%s %.1fs", name, time.Since(p.last).Seconds()))
	p.last = time.Now()
}

func (p *phases) String() string { return strings.Join(p.parts, ", ") }

// dashThink is the dashboard client's pause between pages; dashGrace
// bounds the wait for the page in flight when the schedule ends.
const (
	dashThink = 250 * time.Millisecond
	dashGrace = 4 * time.Second
)

// startSSE registers the standing subscriptions on the main connection
// and attaches the second connection to the latest-posts event stream.
func startSSE(ctx, loadCtx context.Context, d *runner, base string, wg *sync.WaitGroup) error {
	path, err := d.subscribe(ctx)
	if err != nil {
		return err
	}
	c2 := newConn(base)
	c2.c.Timeout = 0 // the stream stays open for the whole run
	ready := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer c2.close()
		d.sseLoop(loadCtx, c2, path, ready)
	}()
	return <-ready
}

// retryReadback re-checks until the acked writes are all folded into a
// published snapshot (or a minute has passed).
func retryReadback(ctx context.Context, c *conn, startPost time.Time, e *expected, d *runner) error {
	deadline := time.Now().Add(time.Minute)
	for {
		n, err := verifyReadback(ctx, c, startPost, e)
		for range n {
			d.count(nil, "readback")
		}
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func lastPost(acks []ack) blog.PostID {
	for i := len(acks) - 1; i >= 0; i-- {
		if acks[i].w.Kind == opPost {
			return acks[i].w.Post
		}
	}
	return ""
}

// rowsHold accepts a query answer whose rows include id.
func rowsHold(id string) func([]byte) bool {
	return func(data []byte) bool {
		var qr queryResult
		if json.Unmarshal(data, &qr) != nil {
			return false
		}
		for _, r := range qr.Rows {
			if r.ID == id {
				return true
			}
		}
		return false
	}
}

// clientMetrics turns the runner's observations into the client-side
// metrics and checks the failure and lateness gates.
func clientMetrics(rep *report, d *runner) {
	var read, write, late dist
	steps := make([]dist, len(d.s.ladder)+1)
	stepLate := make([]dist, len(d.s.ladder)+1)
	for _, r := range d.results {
		if !r.ok {
			continue
		}
		ms := float64(r.lat) / float64(time.Millisecond)
		switch {
		case r.kind.interactive() && r.phase == 0:
			read.add(ms)
		case r.kind.interactive():
			steps[r.phase].add(ms)
			stepLate[r.phase].addDur(r.late, time.Millisecond)
		case r.kind.write():
			write.add(ms)
		}
		if r.phase == 0 {
			late.addDur(r.late, time.Millisecond)
		}
	}
	service := map[opKind]*dist{}
	for _, r := range d.results {
		if service[r.kind] == nil {
			service[r.kind] = &dist{}
		}
		service[r.kind].addDur(r.lat-r.late, time.Millisecond)
	}
	for k := opTop; k <= opPoll; k++ {
		if sv := service[k]; sv != nil {
			rep.note("service time %-12s p50 %8.3f ms  p99 %8.3f ms  n=%d", k, sv.median(), sv.p(99), sv.n())
		}
	}
	rep.attempted, rep.failed = d.attempted, d.failed
	if d.failed > 0 {
		rep.gate("%d of %d operations failed; first: %s", d.failed, d.attempted, strings.Join(d.failures, "; "))
	}
	latePol := late.p(99)
	if latePol > float64(lateBound/time.Millisecond) {
		rep.gate("generator fell behind: send-time lateness p99 %.0f ms > %s; run invalid", latePol, lateBound)
	}
	rep.add(metric{name: "read_p50_ms", unit: "ms", value: read.median(), n: read.n(), note: "interactive, from intended send time"})
	rep.add(metric{name: "read_p90_ms", unit: "ms", value: read.p(90), n: read.n()})
	rep.add(metric{name: "read_p99_ms", unit: "ms", value: read.p(99), n: read.n(), note: fmt.Sprintf("%d samples beyond", read.n()/100)})
	rep.add(metric{name: "ops_failed_share", unit: "ratio", value: float64(d.failed) / float64(max(d.attempted, 1)), n: d.attempted})
	rep.add(metric{name: "generator_late_p99_ms", unit: "ms", value: latePol, n: late.n(), note: "send time minus due time, nominal phase"})
	rep.add(metric{name: "generator_late_max_ms", unit: "ms", value: late.max(), n: late.n()})
	if len(d.s.ladder) > 0 {
		capacity := 0.0
		for i, rate := range d.s.ladder {
			p99 := steps[i+1].p(99)
			sustained := p99 <= readP99LimitMs && stepLate[i+1].max() <= readP99LimitMs
			rep.note("ladder %6.0f req/s: p99 %.3f ms, late max %.3f ms, n=%d, sustained=%v", rate, p99, stepLate[i+1].max(), steps[i+1].n(), sustained)
			if !sustained {
				break
			}
			capacity = rate
		}
		rep.add(metric{name: "read_capacity_rps", unit: "req/s", value: capacity, note: fmt.Sprintf("highest ladder rate with p99 ≤ %g ms and no growing backlog", readP99LimitMs)})
	}
	if d.dash.n() > 0 || d.w.dashboard {
		rep.add(metric{name: "dash_page_s", unit: "s", value: d.dash.median(), n: d.dash.n(), note: "median dashboard page; pages cut by the end of the run are not counted"})
	}
	if write.n() > 0 {
		addTail(rep, "write_ack", write, "ms")
		var fresh, push dist
		for id, at := range d.postAck {
			if s, ok := d.seen[id]; ok {
				fresh.addDur(s-at, time.Millisecond)
			}
			if p, ok := d.pushed[string(id)]; ok {
				push.addDur(max(p-at, 0), time.Millisecond)
			}
		}
		addTail(rep, "fresh", fresh, "ms")
		rep.note("freshness resolution: poll every %s; %d of %d acked posts seen by a poll", d.w.pollEvery, fresh.n(), len(d.postAck))
		if d.w.subscribe {
			addTail(rep, "push", push, "ms")
			rep.note("push: %d of %d acked posts arrived in an SSE diff", push.n(), len(d.postAck))
		}
	}
}

// addTail reports a distribution's median and its highest percentile
// with at least minBeyond samples beyond it (p99 when there are enough).
func addTail(rep *report, name string, d dist, unit string) {
	rep.add(metric{name: name + "_p50_" + unit, unit: unit, value: d.median(), n: d.n()})
	level, v := d.tail()
	rep.add(metric{name: fmt.Sprintf("%s_p%g_%s", name, level, unit), unit: unit, value: v, n: d.n(), note: "highest percentile with ≥10 samples beyond"})
}

// saveShared keeps the untraced run's shared metrics so a traced run
// with the same workload and seed can report the tracing overhead.
func saveShared(cfg *config, rep *report) error {
	m := map[string]float64{}
	for _, x := range rep.metrics {
		if !math.IsNaN(x.value) {
			m[x.name] = x.value
		}
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(sharedPath(cfg), b, 0o644)
}

func sharedPath(cfg *config) string {
	return filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("untraced-%s-%d.json", cfg.w.name, cfg.seed))
}
