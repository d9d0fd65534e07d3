package influence

import (
	"sort"

	"mass/internal/blog"
	"mass/internal/novelty"
	"mass/internal/sentiment"
)

// Serializable warm state.
//
// The analysis cache is what makes a flush cheap: tokenization, novelty
// shingles, classifier posteriors, comment sentiment and the GL PageRank
// vector all carry across analyses. CacheState is the exact serializable
// image of that cache, so a durability layer can checkpoint it next to the
// corpus and a restarted engine's first flush is as warm as the last flush
// before the crash. Export and restore are inverses by construction:
// RestoreCache(ch.ExportState()) reproduces every reuse decision the
// original cache would have made, including the novelty detector, which is
// rebuilt by re-indexing the persisted shingle sets in the persisted
// scoring order (the scored values travel with the state, so the expensive
// duplicate lookup is not repeated; a legacy state without scores falls
// back to a full ScorePrepared replay, which reproduces them bit-for-bit).

// CacheState is the serializable warm state of a Cache plus the published
// influence vector that warm-starts the fixed-point solver after recovery.
type CacheState struct {
	// Domains are the interned domain names in slot order; cached posterior
	// rows are dense prefixes over this order.
	Domains []string
	// Posts holds one entry per cached post, sorted by ID.
	Posts []PostFacetsState
	// NovOrder is the chronological order the novelty detector scored posts
	// in; restoring replays it to rebuild the inverted shingle index.
	NovOrder []blog.PostID
	// GLBloggers/GL are the cached PageRank vector and the sorted blogger
	// list it is aligned to (empty when no solve has completed).
	GLBloggers []blog.BloggerID
	GL         []float64
	// InfBloggers/Influence carry the last published Inf(b) scores, aligned
	// pairwise — the solver's warm start after recovery. They live here
	// rather than in the cache because the cache never stores solver output.
	InfBloggers []blog.BloggerID
	Influence   []float64
}

// PostFacetsState is the serializable image of one post's cached facets.
type PostFacetsState struct {
	ID        blog.PostID
	Words     float64
	Tokenized bool

	HasPrepared bool
	Shingles    []uint64 // sorted shingle hashes (textutil.ShingleHashes)
	Indicator   float64

	// HasNov/Nov carry the post's scored novelty value. Restore then only
	// has to re-index shingles (novelty.Detector.Observe), not re-run the
	// duplicate lookup, which dominates replay cost on large corpora.
	HasNov bool
	Nov    float64

	HasPosterior bool
	Posterior    []float64 // dense prefix over CacheState.Domains

	Sentiments []sentiment.Polarity // per comment, prefix of Post.Comments
}

// ExportState snapshots the cache into its serializable form. The caller
// owns the result; nothing is shared with the live cache. Like every cache
// operation, it must run while no analysis is in flight.
func (ch *Cache) ExportState() *CacheState {
	st := &CacheState{
		Domains:  append([]string(nil), ch.domains.names...),
		NovOrder: append([]blog.PostID(nil), ch.order...),
	}
	pids := make([]blog.PostID, 0, len(ch.posts))
	for pid := range ch.posts {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	st.Posts = make([]PostFacetsState, 0, len(pids))
	for _, pid := range pids {
		f := ch.posts[pid]
		ps := PostFacetsState{ID: pid, Words: f.words, Tokenized: f.tokenized}
		if f.hasPrepared {
			ps.HasPrepared = true
			ps.Shingles = f.prepared.Shingles()
			ps.Indicator = f.prepared.Indicator()
		}
		if f.hasNov {
			ps.HasNov = true
			ps.Nov = f.nov
		}
		if f.hasPosterior {
			ps.HasPosterior = true
			ps.Posterior = append([]float64(nil), f.posterior...)
		}
		if len(f.sentiments) > 0 {
			ps.Sentiments = append([]sentiment.Polarity(nil), f.sentiments...)
		}
		st.Posts = append(st.Posts, ps)
	}
	if ch.glValid {
		st.GLBloggers = append([]blog.BloggerID(nil), ch.glBloggers...)
		st.GL = append([]float64(nil), ch.gl...)
	}
	return st
}

// RestoreCache rebuilds a Cache from exported state. Structurally invalid
// pieces degrade instead of failing: a posterior row longer than the domain
// index is truncated, and a novelty order referencing a post without
// prepared shingles resets the duplicate-detection state — the restored
// cache then re-derives those facets on the next analysis, which keeps the
// scores correct at the cost of some rework. The GL vector is restored
// unkeyed; call BindGL with the recovered corpus to arm the skip path.
func RestoreCache(st *CacheState) *Cache {
	ch := NewCache()
	if st == nil {
		return ch
	}
	for _, d := range st.Domains {
		ch.domains.intern(d)
	}
	nd := ch.domains.Len()
	for i := range st.Posts {
		ps := &st.Posts[i]
		if ps.ID == "" {
			continue
		}
		f := ch.facets(ps.ID)
		f.words = ps.Words
		f.tokenized = ps.Tokenized
		if ps.HasPrepared {
			f.prepared = novelty.RestorePrepared(ps.Shingles, ps.Indicator)
			f.hasPrepared = true
		}
		if ps.HasNov {
			f.nov = ps.Nov
			f.hasNov = true
		}
		if ps.HasPosterior {
			row := append([]float64(nil), ps.Posterior...)
			if len(row) > nd {
				row = row[:nd]
			}
			f.posterior = row
			f.hasPosterior = true
		}
		if len(ps.Sentiments) > 0 {
			f.sentiments = append([]sentiment.Polarity(nil), ps.Sentiments...)
		}
	}
	if len(st.NovOrder) > 0 {
		total := 0
		for i := range st.Posts {
			total += len(st.Posts[i].Shingles)
		}
		ch.det.Grow(len(st.NovOrder), total)
	}
	for _, pid := range st.NovOrder {
		f := ch.posts[pid]
		if f == nil || !f.hasPrepared {
			ch.resetNovelty()
			break
		}
		if f.hasNov {
			// The scored value is part of the state; only the detector's
			// inverted index needs rebuilding.
			ch.det.Observe(f.prepared)
		} else {
			f.nov = ch.det.ScorePrepared(f.prepared)
			f.hasNov = true
		}
		ch.order = append(ch.order, pid)
	}
	if len(st.GLBloggers) > 0 && len(st.GLBloggers) == len(st.GL) {
		ch.glValid = true
		ch.glBloggers = append([]blog.BloggerID(nil), st.GLBloggers...)
		ch.gl = append([]float64(nil), st.GL...)
	}
	return ch
}

// BindGL keys a restored GL vector to corpus c's current link graph, so
// glMatches can recognize an unchanged graph and skip PageRank outright on
// the first post-recovery flush. The caller asserts that c's link graph is
// the one the vector was solved against (a checkpoint records both
// atomically, so the recovered corpus at the snapshot index qualifies).
// Binding a mismatched corpus cannot corrupt results — glMatches still
// verifies the blogger set and the full edge list before any reuse — it
// just wastes the comparison.
func (ch *Cache) BindGL(c *blog.Corpus) {
	if !ch.glValid {
		return
	}
	ch.glEpoch = c.LinkEpoch()
	ch.glLinks = append(ch.glLinks[:0], c.Links...)
}

// WarmResult builds a minimal previous Result carrying the persisted
// influence scores — exactly what the analyzer consumes as a solver warm
// start (prev.BloggerScores). Returns nil when the state holds no usable
// vector; the solver then starts from GL, as a cold analysis would.
func WarmResult(st *CacheState) *Result {
	if st == nil || len(st.InfBloggers) == 0 || len(st.InfBloggers) != len(st.Influence) {
		return nil
	}
	m := make(map[blog.BloggerID]float64, len(st.InfBloggers))
	for i, id := range st.InfBloggers {
		m[id] = st.Influence[i]
	}
	return &Result{BloggerScores: m}
}
