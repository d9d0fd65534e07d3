package influence

import (
	"sync"

	"mass/internal/blog"
	"mass/internal/rank"
)

// Result holds everything the influence analysis produces.
//
// The per-domain facets (classifier posteriors and Eq. 5 domain scores)
// are stored internally as dense row-major []float64 slabs over an
// interned DomainIndex — the hot loops never touch a map. Maps are built
// only at the public-API boundary (DomainVector, PostDomainVector,
// DomainScoresMap). Top-k rankings are precomputed lazily once per Result
// and then served as slices, so query traffic against a published snapshot
// never rebuilds blogger-sized score maps.
type Result struct {
	// BloggerScores is Inf(b) for every blogger (Eq. 1).
	BloggerScores map[blog.BloggerID]float64
	// PostScores is Inf(b, d_k) for every post (Eq. 4).
	PostScores map[blog.PostID]float64
	// AP is the Accumulated Post influence Σ_k Inf(b, d_k).
	AP map[blog.BloggerID]float64
	// GL is the General Links authority (PageRank over the link graph).
	GL map[blog.BloggerID]float64
	// Quality is each post's quality score (normalized length × novelty).
	Quality map[blog.PostID]float64
	// Novelty is each post's novelty factor.
	Novelty map[blog.PostID]float64
	// Iterations and Converged report fixed-point solver behaviour.
	Iterations int
	Converged  bool
	// ReusedPosteriors counts posts whose classifier posterior was carried
	// over from a previous result or the analysis cache instead of being
	// re-classified (0 on a cold Analyze).
	ReusedPosteriors int
	// ReusedNovelty counts posts whose tokenization (word count and novelty
	// shingles) came from the analysis cache instead of being recomputed
	// (0 without a cache).
	ReusedNovelty int
	// ReusedSentiments counts comments whose sentiment polarity came from
	// the analysis cache instead of being re-scored (0 without a cache).
	ReusedSentiments int
	// PageRankSkipped reports that the GL facet was reused verbatim from
	// the cache because the link graph and blogger set were unchanged since
	// the previous analysis.
	PageRankSkipped bool
	// PageRankDelta reports that the GL facet was updated by the frontier
	// push solver over the link-epoch delta instead of a full sweep.
	PageRankDelta bool
	// PageRankFallback reports that an incremental push state existed but
	// the analysis fell back to a full (warm) sweep — the delta was too
	// large, the base CSR was compacted away, or the blogger set changed.
	PageRankFallback bool
	// PageRankPushed counts node pushes performed by the delta solver this
	// analysis (0 unless PageRankDelta).
	PageRankPushed int

	// Dense domain core. bloggers/posts are the sorted entity lists the
	// analysis ran over; the slabs are row-major [entity][domain].
	domains      *DomainIndex
	hasDomains   bool // a classifier ran; domain queries are meaningful
	bloggers     []blog.BloggerID
	posts        []blog.PostID
	bloggerIdx   map[blog.BloggerID]int
	postIdx      map[blog.PostID]int
	postDomains  []float64 // len(posts) × domains.Len()
	domainScores []float64 // len(bloggers) × domains.Len()

	// Dense per-entity facet vectors, aligned with bloggers/posts. They
	// duplicate the public maps so index-aware consumers (package query)
	// can scan without hashing; AnalyzeDecayed keeps them in sync.
	bloggerInf    []float64
	bloggerAP     []float64
	bloggerGL     []float64
	postInf       []float64
	postQuality   []float64
	postNovelty   []float64
	postSentiment []float64 // mean comment SF per post; 0 with no comments
	totalWords    int       // Σ WordCount(body) over posts

	// Lazily precomputed rankings (once per Result, i.e. once per
	// published snapshot).
	rankOnce    sync.Once
	generalRank []rank.Entry
	domainRanks [][]rank.Entry // indexed by domain slot
}

// Domains returns the interned domain names, in slot order. Empty when the
// analysis ran without a classifier. The slice is shared; do not modify.
func (r *Result) Domains() []string {
	if r.domains == nil {
		return nil
	}
	return r.domains.Names()
}

// TotalWords returns the summed token count (textutil.WordCount) of every
// analyzed post body: the length facet behind Quality, which the analysis
// cache keeps per post, so corpus statistics need not re-tokenize.
func (r *Result) TotalWords() int { return r.totalWords }

// domainRow returns blogger b's dense domain score row, or nil.
func (r *Result) domainRow(b blog.BloggerID) []float64 {
	nd := r.domains.Len()
	bi, ok := r.bloggerIdx[b]
	if !ok || nd == 0 || len(r.domainScores) == 0 {
		return nil
	}
	return r.domainScores[bi*nd : (bi+1)*nd]
}

// postRow returns a post's dense posterior row, or nil.
func (r *Result) postRow(pid blog.PostID) []float64 {
	nd := r.domains.Len()
	pi, ok := r.postIdx[pid]
	if !ok || nd == 0 || len(r.postDomains) == 0 {
		return nil
	}
	return r.postDomains[pi*nd : (pi+1)*nd]
}

// DomainScore returns Inf(b, C_t) for one blogger and domain. Unknown
// bloggers and domains score 0.
func (r *Result) DomainScore(b blog.BloggerID, domain string) float64 {
	row := r.domainRow(b)
	if row == nil {
		return 0
	}
	if di, ok := r.domains.lookup(domain); ok {
		return row[di]
	}
	return 0
}

// DomainVector returns Inf(b, IV): blogger b's influence score on every
// domain, as a map copy safe to mutate. Bloggers without posts get an
// empty map (when a classifier ran) to keep consumers uniform.
func (r *Result) DomainVector(b blog.BloggerID) map[string]float64 {
	out := map[string]float64{}
	row := r.domainRow(b)
	for di, s := range row {
		if s != 0 {
			out[r.domains.names[di]] = s
		}
	}
	return out
}

// PostDomainVector returns iv(b, d_k, C_t): the classifier posterior of
// one post, as a map copy safe to mutate.
func (r *Result) PostDomainVector(pid blog.PostID) map[string]float64 {
	row := r.postRow(pid)
	if row == nil {
		return nil
	}
	out := make(map[string]float64, len(row))
	for di, p := range row {
		if p != 0 {
			out[r.domains.names[di]] = p
		}
	}
	return out
}

// PostDomainScore returns one post's posterior weight on one domain.
func (r *Result) PostDomainScore(pid blog.PostID, domain string) float64 {
	row := r.postRow(pid)
	if row == nil {
		return 0
	}
	if di, ok := r.domains.lookup(domain); ok {
		return row[di]
	}
	return 0
}

// EachPostDomain calls f for every nonzero domain weight of one post,
// without allocating a map — the streaming accessor for consumers that
// aggregate over many posts (e.g. trend analysis).
func (r *Result) EachPostDomain(pid blog.PostID, f func(domain string, weight float64)) {
	row := r.postRow(pid)
	for di, p := range row {
		if p != 0 {
			f(r.domains.names[di], p)
		}
	}
}

// DomainScoresMap materializes the full Inf(b, C_t) matrix as nested maps —
// the boundary conversion for batch tooling and tests. Costs O(bloggers ×
// domains); query paths should use DomainScore/TopDomain instead.
func (r *Result) DomainScoresMap() map[blog.BloggerID]map[string]float64 {
	out := make(map[blog.BloggerID]map[string]float64, len(r.bloggers))
	if !r.hasDomains {
		return out
	}
	for _, b := range r.bloggers {
		out[b] = r.DomainVector(b)
	}
	return out
}

// InterestScores computes the dot product Inf(b, IV) · iv for every
// blogger over the dense slab — the advertisement/recommendation hot path
// (Scenarios 1 and 2). The returned map is keyed by blogger ID string,
// ready for rank.TopK.
func (r *Result) InterestScores(iv map[string]float64) map[string]float64 {
	nd := r.domains.Len()
	weights := make([]float64, nd)
	for name, w := range iv {
		if di, ok := r.domains.lookup(name); ok {
			weights[di] = w
		}
	}
	out := make(map[string]float64, len(r.bloggers))
	for bi, b := range r.bloggers {
		row := r.domainScores[bi*nd : (bi+1)*nd]
		var dot float64
		for di, s := range row {
			dot += s * weights[di]
		}
		out[string(b)] = dot
	}
	return out
}

// rankings builds the general and per-domain top lists exactly once.
// Callers must not mutate the Result's scores after first use (the
// analyzer never does; AnalyzeDecayed re-aggregates before publishing).
func (r *Result) rankings() {
	r.rankOnce.Do(func() {
		general := make([]rank.Entry, 0, len(r.bloggers))
		for _, b := range r.bloggers {
			general = append(general, rank.Entry{ID: string(b), Score: r.BloggerScores[b]})
		}
		rank.SortEntries(general)
		r.generalRank = general

		nd := r.domains.Len()
		r.domainRanks = make([][]rank.Entry, nd)
		for di := 0; di < nd; di++ {
			entries := make([]rank.Entry, len(r.bloggers))
			for bi, b := range r.bloggers {
				entries[bi] = rank.Entry{ID: string(b), Score: r.domainScores[bi*nd+di]}
			}
			rank.SortEntries(entries)
			r.domainRanks[di] = entries
		}
	})
}

// TopGeneral returns the k most influential bloggers overall as scored
// entries, served from the per-snapshot precomputed ranking.
func (r *Result) TopGeneral(k int) []rank.Entry {
	if k <= 0 {
		return nil
	}
	r.rankings()
	if k > len(r.generalRank) {
		k = len(r.generalRank)
	}
	return r.generalRank[:k]
}

// TopDomain returns the k most influential bloggers of one domain as
// scored entries, served from the per-snapshot precomputed ranking.
// Bloggers without the domain score 0; without a classifier the result is
// empty.
func (r *Result) TopDomain(domain string, k int) []rank.Entry {
	if k <= 0 || !r.hasDomains {
		return nil
	}
	r.rankings()
	if di, ok := r.domains.lookup(domain); ok {
		entries := r.domainRanks[di]
		if k > len(entries) {
			k = len(entries)
		}
		return entries[:k]
	}
	// Unknown domain: everyone scores 0, so the deterministic tie-break
	// order (ascending ID) applies — r.bloggers is already sorted.
	if k > len(r.bloggers) {
		k = len(r.bloggers)
	}
	out := make([]rank.Entry, k)
	for i := 0; i < k; i++ {
		out[i] = rank.Entry{ID: string(r.bloggers[i])}
	}
	return out
}

// TopKGeneral returns the k most influential bloggers by overall Inf(b).
func (r *Result) TopKGeneral(k int) []blog.BloggerID {
	return entriesToBloggerIDs(r.TopGeneral(k))
}

// TopKDomain returns the k most influential bloggers in the given domain
// by Inf(b, C_t).
func (r *Result) TopKDomain(domain string, k int) []blog.BloggerID {
	return entriesToBloggerIDs(r.TopDomain(domain, k))
}

// DenseView is a read-only window onto the result's dense slabs, for
// index-aware executors (package query) that scan entities by position
// instead of hashing IDs. All slices are aligned: Influence[i] belongs to
// Bloggers[i], PostScore[j] to Posts[j], and the domain slabs are
// row-major [entity][domain] with stride len(Domains). Slices are shared
// with the Result — callers must treat them as immutable.
type DenseView struct {
	Bloggers []blog.BloggerID
	Posts    []blog.PostID

	// Per-blogger facets (aligned with Bloggers).
	Influence, AP, GL []float64
	// Per-post facets (aligned with Posts). Sentiment is the mean comment
	// sentiment factor in [0,1] (0 for posts with no comments).
	PostScore, Quality, Novelty, Sentiment []float64

	// DomainScores is Inf(b, C_t): len(Bloggers) × len(Domains).
	// PostDomains is iv(b, d_k, C_t): len(Posts) × len(Domains).
	DomainScores, PostDomains []float64
	// Domains are the interned domain names in slot order; empty when the
	// analysis ran without a classifier.
	Domains []string
}

// Dense exposes the result's dense slabs. See DenseView for the layout.
func (r *Result) Dense() DenseView {
	return DenseView{
		Bloggers:     r.bloggers,
		Posts:        r.posts,
		Influence:    r.bloggerInf,
		AP:           r.bloggerAP,
		GL:           r.bloggerGL,
		PostScore:    r.postInf,
		Quality:      r.postQuality,
		Novelty:      r.postNovelty,
		Sentiment:    r.postSentiment,
		DomainScores: r.domainScores,
		PostDomains:  r.postDomains,
		Domains:      r.Domains(),
	}
}

// DomainSlot resolves a domain name to its dense slot in the slabs of
// Dense(). The second return is false for unknown domains (or when no
// classifier ran).
func (r *Result) DomainSlot(name string) (int, bool) {
	if r.domains == nil {
		return 0, false
	}
	return r.domains.lookup(name)
}

// BloggerIndex resolves a blogger ID to its dense row index.
func (r *Result) BloggerIndex(id blog.BloggerID) (int, bool) {
	i, ok := r.bloggerIdx[id]
	return i, ok
}

// PostIndex resolves a post ID to its dense row index.
func (r *Result) PostIndex(id blog.PostID) (int, bool) {
	i, ok := r.postIdx[id]
	return i, ok
}

// PostSentiment returns the mean comment sentiment factor of one post
// (0 for posts with no comments or unknown IDs).
func (r *Result) PostSentiment(pid blog.PostID) float64 {
	if i, ok := r.postIdx[pid]; ok && i < len(r.postSentiment) {
		return r.postSentiment[i]
	}
	return 0
}

func entriesToBloggerIDs(entries []rank.Entry) []blog.BloggerID {
	if entries == nil {
		return nil
	}
	out := make([]blog.BloggerID, len(entries))
	for i, e := range entries {
		out[i] = blog.BloggerID(e.ID)
	}
	return out
}
