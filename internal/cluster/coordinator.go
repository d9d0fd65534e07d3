package cluster

import (
	"fmt"
	"strings"
	"time"

	"mass/internal/blog"
	"mass/internal/core"
	"mass/internal/query"
)

// View pins one immutable snapshot per shard — the cluster-wide analogue
// of a single engine's Snapshot. Everything answered from one View is
// mutually consistent per shard (though shards advance independently, so
// the seq vector is the coherent version, not any single number).
type View struct {
	Snaps []*core.Snapshot
}

// View pins the current generation of every shard. A quarantined shard
// contributes its last published snapshot — stale but readable, which is
// what lets the breaker fast-fail queries without losing the shard's data
// from results entirely once it recovers.
func (cl *Cluster) View() *View {
	v := &View{Snaps: make([]*core.Snapshot, len(cl.shards))}
	for i, sh := range cl.shards {
		v.Snaps[i] = sh.eng.Load().Current()
	}
	return v
}

// Seqs is the per-shard generation vector.
func (v *View) Seqs() []uint64 {
	out := make([]uint64, len(v.Snaps))
	for i, s := range v.Snaps {
		out[i] = s.Seq
	}
	return out
}

// MaxSeq is the highest shard generation — the scalar the Meta.Seq field
// carries for cluster responses (the full vector rides next to it).
func (v *View) MaxSeq() uint64 {
	var m uint64
	for _, s := range v.Snaps {
		if s.Seq > m {
			m = s.Seq
		}
	}
	return m
}

// SeqKey renders the seq vector dot-joined ("3.5.4"); with one shard it is
// the bare generation number.
func (v *View) SeqKey() string {
	parts := make([]string, len(v.Snaps))
	for i, s := range v.Snaps {
		parts[i] = fmt.Sprintf("%d", s.Seq)
	}
	return strings.Join(parts, ".")
}

// ETag formats the seq vector as a strong validator: "mass-seq-3.5.4" for
// three shards. With one shard this is exactly the single-engine
// Snapshot.ETag(), so conditional GETs behave identically.
func (v *View) ETag() string {
	return `"mass-seq-` + v.SeqKey() + `"`
}

// SetSlowShardHook installs fn to run inside every scatter worker before
// the shard sub-query executes — deterministic slow-shard injection for
// tests outside this package. Pass nil to clear. Not for production use.
func (cl *Cluster) SetSlowShardHook(fn func(shard int)) {
	if fn == nil {
		cl.slowShard.Store(nil)
		return
	}
	cl.slowShard.Store(&fn)
}

// scatterPart is one shard's contribution to a scattered read.
type scatterPart struct {
	shard    int
	val      any
	err      error
	panicked bool
}

// scatter fans fn across the shards on the bounded worker pool and gathers
// with a deadline. Shards with an open circuit breaker are never launched
// — the read is flagged degraded immediately instead of burning the full
// ShardTimeout against a shard known to be down (that fast-fail is the
// breaker's whole point). A worker that panics is isolated: its shard is
// dropped from the result like a timed-out one and the failure counts
// toward the shard's breaker, never toward the caller. A shard that has
// not answered within ShardTimeout is dropped from the result (nil slot),
// the read is flagged degraded, and the miss counts against its breaker;
// an answer counts as a success. Late results land in a buffered channel
// and are discarded — an uncancelable in-flight sub-query never blocks
// anything. Per-shard errors fail the whole read (the executor is
// deterministic, so an error on one shard means the query itself is bad).
func (cl *Cluster) scatter(v *View, fn func(si int, snap *core.Snapshot) (any, error)) (vals []any, degraded bool, err error) {
	cl.scatterQueries.Add(1)
	n := len(v.Snaps)
	ch := make(chan scatterPart, n)
	launched := 0
	admitted := make([]bool, n)
	for i := 0; i < n; i++ {
		if cl.shards[i].breakerOpen() {
			continue
		}
		admitted[i] = true
		launched++
		go func(si int) {
			cl.sem <- struct{}{}
			defer func() { <-cl.sem }()
			p := scatterPart{shard: si}
			func() {
				defer func() {
					if r := recover(); r != nil {
						p.panicked, p.val, p.err = true, nil, nil
					}
				}()
				if hook := cl.slowShard.Load(); hook != nil {
					(*hook)(si)
				}
				p.val, p.err = fn(si, v.Snaps[si])
			}()
			ch <- p
		}(i)
	}
	vals = make([]any, n)
	degraded = launched < n
	answered := make([]bool, n)
	deadline := time.NewTimer(cl.opts.ShardTimeout)
	defer deadline.Stop()
	finish := func() ([]any, bool, error) {
		if degraded {
			cl.degradedQueries.Add(1)
		}
		if err != nil {
			return nil, degraded, err
		}
		return vals, degraded, nil
	}
	for got := 0; got < launched; {
		select {
		case p := <-ch:
			got++
			answered[p.shard] = true
			if p.panicked {
				degraded = true
				cl.shards[p.shard].recordFailure(cl)
				continue
			}
			cl.shards[p.shard].recordSuccess()
			if p.err != nil && err == nil {
				err = p.err
			}
			vals[p.shard] = p.val
		case <-deadline.C:
			degraded = true
			for i := range answered {
				if admitted[i] && !answered[i] {
					cl.shards[i].recordFailure(cl)
				}
			}
			return finish()
		}
	}
	return finish()
}

// authorEqTarget detects the single-shard routing opportunity: a posts
// query whose WHERE is (possibly nested ANDs containing) an author
// equality. All posts by one author live on the author's owner shard, so
// the whole query — scan, totals, pagination — collapses to that shard's
// own (memoized) executor.
func authorEqTarget(q *query.Query) (string, bool) {
	if q.Entity != query.EntityPosts || q.Where == nil {
		return "", false
	}
	return findAuthorEq(q.Where)
}

func findAuthorEq(p *query.Predicate) (string, bool) {
	switch {
	case p.Cmp != nil:
		c := p.Cmp
		if c.Field.Name == query.FieldAuthor && c.Op == query.OpEq && c.Str != "" {
			return c.Str, true
		}
	case len(p.And) > 0:
		// Any conjunct pins the author: the other conjuncts still run on
		// the routed shard.
		for _, kid := range p.And {
			if author, ok := findAuthorEq(kid); ok {
				return author, true
			}
		}
	}
	return "", false
}

// Query executes q against a pinned view. With one shard it is a zero-copy
// pass-through to the engine's own memoized executor. With several it
// routes (author-pinned posts queries), or scatters per-shard sub-plans
// and merges: scans as a k-way ordered merge, per-domain aggregations
// associatively from (count, sum) partials. degraded reports that at
// least one shard missed its deadline and the result covers the rest.
func (cl *Cluster) Query(v *View, q *query.Query) (r *query.Result, degraded bool, err error) {
	if len(v.Snaps) == 1 {
		r, err = v.Snaps[0].Query(q)
		return r, false, err
	}
	n, err := q.Normalize()
	if err != nil {
		return nil, false, err
	}
	if author, ok := authorEqTarget(n); ok {
		shard := cl.ring.Owner(author)
		routed, err := v.Snaps[shard].Query(n)
		if err != nil {
			return nil, false, err
		}
		out := *routed
		out.Plan = "route/" + routed.Plan
		return &out, false, nil
	}
	switch {
	case n.Entity == query.EntityDomains:
		vals, degraded, err := cl.scatter(v, func(si int, snap *core.Snapshot) (any, error) {
			return query.ExecuteDomainsSlab(snap.Corpus(), snap.Result(), n, cl.ownerFilter(si))
		})
		if err != nil {
			return nil, degraded, err
		}
		r, err := mergeSlabs(vals, n, query.ExecuteDomainsMerged)
		return r, degraded, err
	case n.Aggregate != nil:
		vals, degraded, err := cl.scatter(v, func(si int, snap *core.Snapshot) (any, error) {
			own := cl.ownerFilter(si)
			if n.Entity == query.EntityPosts {
				own = nil // a post exists only on its author's shard
			}
			return query.ExecuteAggregateSlab(snap.Corpus(), snap.Result(), n, own)
		})
		if err != nil {
			return nil, degraded, err
		}
		r, err := mergeSlabs(vals, n, query.ExecuteAggregateMerged)
		return r, degraded, err
	}
	vals, degraded, err := cl.scatter(v, func(si int, snap *core.Snapshot) (any, error) {
		own := cl.ownerFilter(si)
		if n.Entity == query.EntityPosts {
			own = nil
		}
		return query.ExecuteShard(snap.Corpus(), snap.Result(), n, own)
	})
	if err != nil {
		return nil, degraded, err
	}
	parts := make([]*query.ShardResult, len(vals))
	for i, val := range vals {
		if val != nil {
			parts[i] = val.(*query.ShardResult)
		}
	}
	r, err = MergeShardRows(parts, n)
	return r, degraded, err
}

// MergeShardRows re-exports the query-package merge for callers holding
// shard results directly (the bench harness).
func MergeShardRows(parts []*query.ShardResult, q *query.Query) (*query.Result, error) {
	return query.MergeShardRows(parts, q)
}

// Stats computes the exact global corpus summary from a pinned view:
// owned bloggers counted once, per-blogger activity summed across shards
// before taking maxima (a blogger's comments may land on posts owned by
// other shards), and boundary edges folded into the link and in-degree
// counts. With one shard it is the engine's own Stats.
func (cl *Cluster) Stats(v *View) blog.Stats {
	if len(v.Snaps) == 1 {
		return v.Snaps[0].Stats()
	}
	var s blog.Stats
	postsBy := map[blog.BloggerID]int{}
	commentsBy := map[blog.BloggerID]int{}
	inLinks := map[blog.BloggerID]int{}
	totalWords := 0
	for si, snap := range v.Snaps {
		c := snap.Corpus()
		totalWords += snap.Result().TotalWords()
		for id := range c.Bloggers {
			if cl.Owner(id) == si {
				s.Bloggers++
			}
		}
		for _, p := range c.Posts {
			s.Posts++
			postsBy[p.Author]++
			for _, cm := range p.Comments {
				s.Comments++
				commentsBy[cm.Commenter]++
			}
		}
		for _, l := range c.Links {
			s.Links++
			inLinks[l.To]++
		}
	}
	for _, l := range cl.boundarySnapshot() {
		s.Links++
		inLinks[l.To]++
	}
	for _, n := range postsBy {
		s.MaxPostsPerUser = max(s.MaxPostsPerUser, n)
	}
	for _, n := range commentsBy {
		s.MaxCommentsMade = max(s.MaxCommentsMade, n)
	}
	for _, n := range inLinks {
		s.MaxInLinks = max(s.MaxInLinks, n)
	}
	if s.Posts > 0 {
		s.AvgPostLenWords = float64(totalWords) / float64(s.Posts)
	}
	return s
}

// ownerFilter restricts shard si's rows to bloggers it owns — foreign
// link stubs get real per-shard scores and would otherwise surface from
// several shards at once.
func (cl *Cluster) ownerFilter(si int) func(string) bool {
	return func(id string) bool { return cl.ring.Owner(id) == si }
}

func mergeSlabs(vals []any, n *query.Query, finish func([]string, []float64, []float64, *query.Query) (*query.Result, error)) (*query.Result, error) {
	slabs := make([]*query.AggSlab, len(vals))
	for i, val := range vals {
		if val != nil {
			slabs[i] = val.(*query.AggSlab)
		}
	}
	names, counts, sums := query.MergeAggSlabs(slabs)
	return finish(names, counts, sums, n)
}
