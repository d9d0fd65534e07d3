package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mass/internal/blog"
)

// opResult is the outcome of one request on the main connection.
type opResult struct {
	kind  opKind
	phase int
	late  time.Duration // actual send time minus due time
	lat   time.Duration // completion minus due time
	ok    bool
}

// ack is an acknowledged write and when its ack arrived (from t0).
type ack struct {
	w  *write
	at time.Duration
}

// runner runs one workload's schedule against a server and keeps every
// observation the metrics are computed from.
type runner struct {
	w    *workload
	s    *schedule
	main *conn
	t0   time.Time

	results []opResult
	acks    []ack
	postAck map[blog.PostID]time.Duration
	seen    map[blog.PostID]time.Duration // first poll that returned the post
	onAck   func()                        // called after every acked write
	tr      *tracer                       // traced runs: one client span per scheduled request

	mu        sync.Mutex // guards the fields below (second-connection goroutines)
	pushed    map[string]time.Duration
	dash      dist // seconds per dashboard page
	attempted int
	failed    int
	failures  []string

	dashStop atomic.Bool // no new dashboard page after the schedule ends
	dashBusy atomic.Bool // a dashboard page is in flight
}

func newRunner(w *workload, s *schedule, main *conn) *runner {
	return &runner{w: w, s: s, main: main, postAck: map[blog.PostID]time.Duration{},
		seen: map[blog.PostID]time.Duration{}, pushed: map[string]time.Duration{}}
}

func (d *runner) now() time.Duration { return time.Since(d.t0) }

// count records one attempted operation and its failure, if any.
func (d *runner) count(err error, what string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.attempted++
	if err != nil {
		d.failed++
		if len(d.failures) < 8 {
			d.failures = append(d.failures, fmt.Sprintf("%s: %v", what, err))
		}
	}
}

// runMain sends the schedule open loop on the main connection: each
// request goes out at its due time, or as soon as the connection frees up
// when the generator is behind, and is timed from its due time.
func (d *runner) runMain(ctx context.Context) {
	d.results = make([]opResult, 0, len(d.s.ops))
	for i := range d.s.ops {
		o := &d.s.ops[i]
		if wait := time.Until(d.t0.Add(o.At)); wait > 0 {
			time.Sleep(wait)
		}
		reqID, endSpan := d.clientSpan(i, o)
		sent := d.now()
		status, body, err := d.main.do(ctx, o.Method, o.Path, o.Body, reqID)
		done := d.now()
		endSpan(reqID, err != nil)
		var qr *queryResult
		if err == nil {
			qr, err = checkAnswer(o, status, body)
		}
		d.count(err, o.Kind.String()+" "+o.Path)
		d.results = append(d.results, opResult{kind: o.Kind, phase: o.Phase, late: sent - o.At, lat: done - o.At, ok: err == nil})
		if err != nil {
			continue
		}
		switch {
		case o.Kind.write():
			d.acks = append(d.acks, ack{w: o.W, at: done})
			if o.Kind == opPost {
				d.postAck[o.W.Post] = done
			}
			if d.onAck != nil {
				d.onAck()
			}
		case o.Kind == opPoll:
			d.markSeen(qr, done)
		}
	}
}

// clientSpan opens the client-side span of scheduled request i in a traced
// run, under a request ID the server's span will share.
func (d *runner) clientSpan(i int, o *op) (string, func(string, bool)) {
	if d.tr == nil {
		return "", func(string, bool) {}
	}
	reqID := fmt.Sprintf("bench-%d", i)
	id, end := d.tr.start("client."+o.Kind.String(), 0)
	d.tr.link(reqID, id)
	return reqID, end
}

// markSeen records the first poll that returned each acked post.
func (d *runner) markSeen(qr *queryResult, at time.Duration) {
	for _, r := range qr.Rows {
		id := blog.PostID(r.ID)
		if _, acked := d.postAck[id]; acked {
			if _, ok := d.seen[id]; !ok {
				d.seen[id] = at
			}
		}
	}
}

// unseen counts acked posts no poll has returned yet.
func (d *runner) unseen() int { return len(d.postAck) - len(d.seen) }

// pollLatest runs one freshness poll, paging past the first 100 rows
// while the page still holds written posts and some acked post is unseen.
func (d *runner) pollLatest(ctx context.Context) error {
	for offset := 0; offset < 2000; offset += 100 {
		var qr queryResult
		err := d.main.getJSON(ctx, "POST", "/api/v1/query", latestPosts(offset), &qr)
		d.count(err, "drain poll")
		if err != nil {
			return err
		}
		d.markSeen(&qr, d.now())
		if d.unseen() == 0 || len(qr.Rows) < 100 || !strings.HasPrefix(qr.Rows[len(qr.Rows)-1].ID, "bench") {
			return nil
		}
	}
	return nil
}

// drain keeps polling at the workload's cadence until every acked post is
// readable, or fails once timeout passes.
func (d *runner) drain(ctx context.Context, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if err := d.pollLatest(ctx); err != nil {
			return err
		}
		if d.unseen() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d acked posts still unreadable %s after the load", d.unseen(), timeout)
		}
		time.Sleep(d.w.pollEvery)
	}
}

// waitPushed waits (bounded) until the SSE stream has delivered every acked
// post, so the push lag of the last flush is observed too.
func (d *runner) waitPushed(timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		d.mu.Lock()
		missing := 0
		for id := range d.postAck {
			if _, ok := d.pushed[string(id)]; !ok {
				missing++
			}
		}
		d.mu.Unlock()
		if missing == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// dashboardLoop is the closed-loop dashboard client on the second
// connection: one page (stats, domains, trends, network around a centre
// blogger at the default radius), then a fixed think time, until
// stopDashboard. A page cut short by the end of the run is not counted.
func (d *runner) dashboardLoop(ctx context.Context, c *conn, think time.Duration) {
	for _, centre := range d.s.pages {
		if d.dashStop.Load() {
			return
		}
		d.dashBusy.Store(true)
		start := time.Now()
		paths := []string{"/api/v1/stats", "/api/v1/domains", "/api/v1/trends",
			"/api/v1/bloggers/" + url.PathEscape(string(centre)) + "/network"}
		for _, p := range paths {
			err := c.getJSON(ctx, "GET", p, nil, nil)
			if ctx.Err() != nil {
				return
			}
			d.count(err, "dashboard "+p)
		}
		d.mu.Lock()
		d.dash.add(time.Since(start).Seconds())
		d.mu.Unlock()
		d.dashBusy.Store(false)
		select {
		case <-ctx.Done():
			return
		case <-time.After(think):
		}
	}
}

// stopDashboard lets the page in flight finish, waiting at most grace,
// then cancels the dashboard client.
func (d *runner) stopDashboard(cancel func(), grace time.Duration) {
	d.dashStop.Store(true)
	for deadline := time.Now().Add(grace); d.dashBusy.Load() && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
}

// subscribe registers the schedule's standing subscriptions and returns
// the event-stream path of the first (latest posts).
func (d *runner) subscribe(ctx context.Context) (string, error) {
	var first string
	for i, q := range d.s.subs {
		var sub struct {
			ID     string `json:"id"`
			Events string `json:"events"`
		}
		err := d.main.getJSON(ctx, "POST", "/api/v1/subscriptions", q, &sub)
		d.count(err, "subscribe")
		if err != nil {
			return "", err
		}
		if i == 0 {
			first = sub.Events
		}
	}
	return first, nil
}

// sseLoop reads the latest-posts event stream on the second connection
// and stamps the first event whose window holds each post.
func (d *runner) sseLoop(ctx context.Context, c *conn, path string, ready chan<- error) {
	req, err := http.NewRequestWithContext(ctx, "GET", c.base+path, nil)
	if err != nil {
		ready <- err
		return
	}
	resp, err := c.c.Do(req)
	if err == nil && resp.StatusCode != 200 {
		err = fmt.Errorf("event stream status %d", resp.StatusCode)
		resp.Body.Close()
	}
	ready <- err
	if err != nil {
		return
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		at := d.now()
		var ev struct {
			Order []string `json:"order"`
		}
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			d.count(fmt.Errorf("malformed event: %v", err), "sse")
			continue
		}
		d.mu.Lock()
		for _, id := range ev.Order {
			if _, ok := d.pushed[id]; !ok {
				d.pushed[id] = at
			}
		}
		d.mu.Unlock()
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil && !errors.Is(err, context.Canceled) {
		d.count(err, "sse stream")
	}
}
