package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// traced run. Spans of one HTTP request share Req; Parent links a span to
// the span that caused it (0 for a root).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
	Err    bool          `json:"err,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
	byReq map[string]int64 // request ID → client span, so server spans nest under it
}

func newTracer() *tracer { return &tracer{t0: time.Now(), byReq: map[string]int64{}} }

// link records that request reqID is served under span id.
func (t *tracer) link(reqID string, id int64) {
	t.mu.Lock()
	t.byReq[reqID] = id
	t.mu.Unlock()
}

// parentOf returns the span linked to reqID, or 0.
func (t *tracer) parentOf(reqID string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byReq[reqID]
}

// start opens a span and returns a function that closes it with the
// request it served (if any) and whether the call failed. The returned ID
// parents child spans.
func (t *tracer) start(name string, parent int64) (id int64, end func(req string, failed bool)) {
	t.mu.Lock()
	t.next++
	id = t.next
	t.mu.Unlock()
	begin := time.Since(t.t0)
	return id, func(req string, failed bool) {
		s := span{ID: id, Parent: parent, Name: name, Req: req, Start: begin, End: time.Since(t.t0), Err: failed}
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	}
}

// timed runs fn inside a span and returns its duration.
func (t *tracer) timed(name string, parent int64, fn func(id int64) error) (time.Duration, error) {
	id, end := t.start(name, parent)
	begin := time.Now()
	err := fn(id)
	d := time.Since(begin)
	end("", err != nil)
	return d, err
}

// all returns a copy of every span recorded so far.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// named returns every span called name, in the order they ended.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// byName returns the durations of every span called name.
func (t *tracer) byName(name string, unit time.Duration) *dist {
	d := &dist{}
	for _, s := range t.named(name) {
		d.addDur(s.dur(), unit)
	}
	return d
}

// errors counts failed spans whose name has the given prefix.
func (t *tracer) errors(prefix string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Err && len(s.Name) >= len(prefix) && s.Name[:len(prefix)] == prefix {
			n++
		}
	}
	return n
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once, and children are clipped to the parent's interval).
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	return total + curB - curA
}
