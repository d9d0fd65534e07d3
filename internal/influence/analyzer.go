package influence

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/linkrank"
	"mass/internal/novelty"
	"mass/internal/sentiment"
	"mass/internal/textutil"
)

// Analyzer computes MASS influence scores over a corpus. It corresponds to
// the paper's Analyzer Module: the Post Analyzer (classifier) assigns
// domain posteriors, the Comment Analyzer (sentiment + this solver)
// computes the influence fixed point.
type Analyzer struct {
	cfg        Config
	classifier classify.Classifier
	sent       *sentiment.Analyzer
}

// NewAnalyzer builds an analyzer. classifier may be nil when domain scores
// are not needed (the Result's domain facet will then be empty).
func NewAnalyzer(cfg Config, classifier classify.Classifier) (*Analyzer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Analyzer{
		cfg:        cfg.withDefaults(),
		classifier: classifier,
		sent:       sentiment.NewAnalyzer(),
	}, nil
}

// Analyze runs the full pipeline on the corpus. It never modifies c.
func (a *Analyzer) Analyze(c *blog.Corpus) (*Result, error) {
	return a.analyze(c, nil, nil)
}

// AnalyzeWarm re-analyzes a corpus starting from a previous result's
// blogger scores. When the corpus changed only incrementally (new posts,
// comments, or links since prev), the fixed point is close to the old one
// and the solver converges in far fewer sweeps — the incremental-update
// path for a live system that re-scores as the crawler appends data. The
// classifier posteriors of posts already present in prev are reused
// verbatim (post bodies are immutable, so re-classifying them is pure
// waste); only genuinely new posts hit the classifier, on the worker pool.
// The final scores agree with a cold Analyze to within Epsilon (the fixed
// point is unique; the sweep resolves it to that threshold either way),
// and scores that moved by less than Epsilon keep the previous
// generation's exact bits — so entities a flush did not genuinely perturb
// stay bit-identical across generations, and exact-equality consumers
// (publish deltas, standing subscriptions, caches) see change sets
// proportional to the true perturbation.
func (a *Analyzer) AnalyzeWarm(c *blog.Corpus, prev *Result) (*Result, error) {
	return a.analyze(c, prev, nil)
}

// AnalyzeCached is the fully incremental path: on top of AnalyzeWarm's
// solver warm start and posterior reuse, every expensive per-entity facet
// — tokenization (word counts and novelty shingles), near-duplicate
// novelty scores, comment sentiment, and the GL PageRank vector — is
// carried in cache across calls, so a re-analysis after a small batch
// only pays for the delta. The cache must be dedicated to one evolving
// corpus lineage and must not be used concurrently; prev may be nil (the
// facets still reuse, only the solver starts cold, which keeps the result
// bit-for-bit identical to Analyze). See Cache for the exact reuse and
// eviction rules.
func (a *Analyzer) AnalyzeCached(c *blog.Corpus, prev *Result, cache *Cache) (*Result, error) {
	return a.analyze(c, prev, cache)
}

// analyze is the shared pipeline. A nil cache gets a throwaway one so the
// cold and incremental paths are literally the same code; only reuse
// differs (a fresh cache reuses nothing).
func (a *Analyzer) analyze(c *blog.Corpus, prev *Result, cache *Cache) (*Result, error) {
	var warm map[blog.BloggerID]float64
	if prev != nil {
		warm = prev.BloggerScores
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("influence: invalid corpus: %w", err)
	}
	if cache == nil {
		cache = NewCache()
	}
	cache.evictMissing(c)

	bloggers := c.BloggerIDs()
	posts := c.PostIDs()
	bIdx := make(map[blog.BloggerID]int, len(bloggers))
	for i, id := range bloggers {
		bIdx[id] = i
	}
	pIdx := make(map[blog.PostID]int, len(posts))
	for i, id := range posts {
		pIdx[id] = i
	}

	res := &Result{
		BloggerScores: make(map[blog.BloggerID]float64, len(bloggers)),
		PostScores:    make(map[blog.PostID]float64, len(posts)),
		AP:            make(map[blog.BloggerID]float64, len(bloggers)),
		GL:            make(map[blog.BloggerID]float64, len(bloggers)),
		Quality:       make(map[blog.PostID]float64, len(posts)),
		Novelty:       make(map[blog.PostID]float64, len(posts)),
		bloggers:      bloggers,
		posts:         posts,
		bloggerIdx:    bIdx,
		postIdx:       pIdx,
	}

	// --- GL facet: PageRank over the hyperlink graph (Eq. 1). ---
	gl := a.computeGL(c, bloggers, cache, res)
	if prev != nil {
		snapScores(gl, bloggers, prev.GL, a.cfg.StabilityEpsilon)
	}
	for i, id := range bloggers {
		res.GL[id] = gl[i]
	}

	// --- Quality facet: normalized length × novelty (Eq. 2). ---
	quality, nov, words, reusedNov := a.computeQuality(c, posts, cache)
	res.ReusedNovelty = reusedNov
	res.totalWords = words
	for i, pid := range posts {
		res.Quality[pid] = quality[i]
		res.Novelty[pid] = nov[i]
	}

	// --- Comment facet: sentiment factors (cached per comment), then the
	// (commenter index, SF/TC) pairs the solver sweeps over. ---
	sf, reusedSent := a.sentimentFactors(c, posts, cache)
	res.ReusedSentiments = reusedSent
	res.postSentiment = make([]float64, len(posts))
	for i, pid := range posts {
		n := len(c.Posts[pid].Comments)
		if n == 0 {
			continue
		}
		if sf == nil {
			// Sentiment ignored: every comment counts as SF = 1.
			res.postSentiment[i] = 1
			continue
		}
		var sum float64
		for _, s := range sf[i] {
			sum += s
		}
		res.postSentiment[i] = sum / float64(n)
	}
	type commentRef struct {
		commenter int
		weight    float64 // SF / TC(b_j); with IgnoreCitation, just SF
	}
	postComments := make([][]commentRef, len(posts))
	for i, pid := range posts {
		p := c.Posts[pid]
		refs := make([]commentRef, 0, len(p.Comments))
		for j, cm := range p.Comments {
			s := 1.0
			if sf != nil {
				s = sf[i][j]
			}
			tc := c.TotalComments(cm.Commenter)
			if tc == 0 {
				// Impossible by construction (the commenter wrote this very
				// comment), but guard against corrupted indexes.
				continue
			}
			w := s / float64(tc)
			if a.cfg.IgnoreCitation {
				w = s
			}
			refs = append(refs, commentRef{commenter: bIdx[cm.Commenter], weight: w})
		}
		postComments[i] = refs
	}

	// Author index per post, and posts per author index.
	postAuthor := make([]int, len(posts))
	authorPosts := make([][]int, len(bloggers))
	for i, pid := range posts {
		ai := bIdx[c.Posts[pid].Author]
		postAuthor[i] = ai
		authorPosts[ai] = append(authorPosts[ai], i)
	}

	// --- Fixed-point solve of Eqs. 1 and 4. ---
	alpha, beta := a.cfg.Alpha, a.cfg.Beta
	inf := make([]float64, len(bloggers))
	newInf := make([]float64, len(bloggers))
	postInf := make([]float64, len(posts))
	copy(inf, gl) // GL is a natural starting point; any start converges.
	if warm != nil {
		for i, id := range bloggers {
			if v, ok := warm[id]; ok {
				inf[i] = v
			}
		}
	}

	ignoreCitation := a.cfg.IgnoreCitation
	sweepPosts := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cs := 0.0
			if ignoreCitation {
				// Without citation weighting the commenter's own influence
				// is not consulted; cs is just Σ SF (already in weight).
				for _, ref := range postComments[i] {
					cs += ref.weight
				}
			} else {
				for _, ref := range postComments[i] {
					cs += inf[ref.commenter] * ref.weight
				}
			}
			postInf[i] = beta*quality[i] + (1-beta)*cs
		}
	}

	for iter := 1; iter <= a.cfg.MaxIter; iter++ {
		res.Iterations = iter
		if a.cfg.Workers > 1 {
			a.parallelSweep(len(posts), sweepPosts)
		} else {
			sweepPosts(0, len(posts))
		}
		var delta float64
		for bi := range bloggers {
			ap := 0.0
			for _, pi := range authorPosts[bi] {
				ap += postInf[pi]
			}
			v := alpha*ap + (1-alpha)*gl[bi]
			if d := v - inf[bi]; d > delta {
				delta = d
			} else if -d > delta {
				delta = -d
			}
			newInf[bi] = v
		}
		inf, newInf = newInf, inf
		if delta < a.cfg.Epsilon {
			res.Converged = true
			break
		}
	}

	// Generation-to-generation score stability: the sweep recomputes every
	// value, so even a converged warm restart moves each score by up to
	// Epsilon in the low bits. Values inside the convergence threshold are
	// indistinguishable at the solver's accuracy, so pin them to the
	// previous generation's exact bits. Downstream exact-equality consumers
	// (publish deltas, standing subscriptions, result caches) then see
	// change sets proportional to the true perturbation instead of the
	// whole corpus. Genuinely moved scores (≥ Epsilon) always update, so
	// drift against the true fixed point stays O(Epsilon).
	if prev != nil {
		snapScores(postInf, posts, prev.PostScores, a.cfg.StabilityEpsilon)
		snapScores(inf, bloggers, prev.BloggerScores, a.cfg.StabilityEpsilon)
	}

	res.bloggerInf = inf
	res.bloggerAP = make([]float64, len(bloggers))
	res.bloggerGL = gl
	res.postInf = postInf
	res.postQuality = quality
	res.postNovelty = nov
	for i, id := range bloggers {
		res.BloggerScores[id] = inf[i]
		ap := 0.0
		for _, pi := range authorPosts[i] {
			ap += postInf[pi]
		}
		if prev != nil {
			if old, ok := prev.AP[id]; ok && math.Abs(ap-old) <= a.cfg.StabilityEpsilon {
				ap = old
			}
		}
		res.bloggerAP[i] = ap
		res.AP[id] = ap
	}
	for i, pid := range posts {
		res.PostScores[pid] = postInf[i]
	}

	// --- Domain facet: iv posteriors and Eq. 5 aggregation, on the dense
	// interned core. Classification dominates analysis cost on large
	// corpora and each call is independent, so fresh posts fan out across
	// cfg.Workers. (Classifier implementations must be safe for concurrent
	// reads, which holds for every classifier in this repository: they are
	// immutable after training.)
	if a.classifier != nil {
		cache.seedPosteriorsFromPrev(prev)
		var fresh []int
		for i, pid := range posts {
			if f := cache.posts[pid]; f == nil || !f.hasPosterior {
				fresh = append(fresh, i)
			}
		}
		res.ReusedPosteriors = len(posts) - len(fresh)
		dists := make([]map[string]float64, len(fresh))
		a.parallelSweep(len(fresh), func(lo, hi int) {
			for k := lo; k < hi; k++ {
				dists[k] = a.classifier.Classify(c.Posts[posts[fresh[k]]].Body)
			}
		})
		// Interning mutates the shared index, so the dense conversion runs
		// serially, in post order, for a deterministic slot layout.
		for k, i := range fresh {
			f := cache.facets(posts[i])
			f.posterior = cache.domains.denseRow(dists[k])
			f.hasPosterior = true
		}

		res.domains = cache.domains.clone()
		res.hasDomains = true
		nd := res.domains.Len()
		res.postDomains = make([]float64, len(posts)*nd)
		for i, pid := range posts {
			// Rows cached before later domains were interned are shorter;
			// the prefix copy leaves the new slots at zero, which is exact.
			copy(res.postDomains[i*nd:(i+1)*nd], cache.posts[pid].posterior)
		}
		res.domainScores = make([]float64, len(bloggers)*nd)
		for i := range posts {
			row := res.postDomains[i*nd : (i+1)*nd]
			ds := res.domainScores[postAuthor[i]*nd : (postAuthor[i]+1)*nd]
			w := postInf[i]
			for di, p := range row {
				ds[di] += w * p
			}
		}
	} else {
		res.domains = newDomainIndex()
	}
	return res, nil
}

// computeGL runs PageRank over the corpus's hyperlink graph and records
// which path it took in res (PageRankSkipped / PageRankDelta /
// PageRankFallback / PageRankPushed). The solve consumes the corpus's
// cached link view (c.LinkViewFrom, extended in O(delta) per link epoch),
// whose dense node index is exactly the sorted blogger order — so the
// kernel's score vector IS the GL slab, with no graph rebuild, no string
// index, and no score-map round-trip per analysis.
//
// Path selection, cheapest first:
//
//   - unchanged graph and blogger set → reuse the cached vector verbatim
//     (PageRank is deterministic, so this is bit-for-bit a fresh solve);
//   - a residual push state from the previous solve, same blogger set, and
//     the new view extends the old one over the same base CSR → the
//     Gauss–Southwell delta solver (linkrank.DeltaPageRankCSR) advances
//     the cached vector in O(delta), touching only nodes the new edges
//     perturbed;
//   - otherwise (cold cache, blogger set changed, base compacted, delta
//     too large, solver budget blown) → a full sweep, warm-started from
//     the cached vector, after which the push state is rebuilt so the next
//     flush can take the delta path again.
//
// When the authority facet is disabled the GL vector is all zeros.
func (a *Analyzer) computeGL(c *blog.Corpus, bloggers []blog.BloggerID, cache *Cache, res *Result) []float64 {
	gl := make([]float64, len(bloggers))
	if a.cfg.IgnoreAuthority {
		return gl
	}
	if cache.glMatches(c, bloggers) {
		copy(gl, cache.gl)
		res.PageRankSkipped = true
		return gl
	}
	opts := a.cfg.PageRank
	if opts.Workers == 0 {
		opts.Workers = a.cfg.Workers
	}
	// The push solver runs two orders tighter than the sweep epsilon: a
	// sweep's truncation error is invisible because warm restarts keep
	// contracting toward the same fixed point, but push truncation would
	// accumulate across flushes. Push cost grows only logarithmically with
	// precision (residuals decay geometrically), so the margin is nearly
	// free and keeps delta-path scores within sweep-level accuracy.
	pushOpts := opts
	if pushOpts.Epsilon == 0 {
		pushOpts.Epsilon = 1e-12 // sweep default 1e-10, tightened ×100
	} else if pushOpts.Epsilon > 0 {
		pushOpts.Epsilon /= 100
	}
	view := c.LinkViewFrom(cache.glView)
	if cache.push != nil {
		if bloggersEqual(cache.glBloggers, bloggers) {
			if dres, ok := linkrank.DeltaPageRankCSR(view.Delta(), cache.push, pushOpts); ok {
				copy(gl, cache.push.Scores())
				cache.glView = view
				cache.extendGL(c.LinkEpoch(), c.Links, gl)
				res.PageRankDelta = true
				res.PageRankPushed = dres.Pushed
				return gl
			}
		}
		res.PageRankFallback = true
	}
	if opts.WarmDense == nil {
		opts.WarmDense = cache.glWarmDense(bloggers)
	}
	pr := linkrank.PageRankCSR(view.CSR(), opts)
	copy(gl, pr.Scores)
	cache.push = linkrank.NewPushState(view.Delta(), pr.Scores, pushOpts)
	cache.glView = view
	cache.storeGL(c.LinkEpoch(), c.Links, bloggers, gl)
	return gl
}

// snapScores pins each value to the previous generation's exact bits when
// the two differ by at most eps — the solver's own convergence threshold,
// below which the values are indistinguishable. IDs absent from old (new
// entities) keep their fresh scores.
func snapScores[K comparable](vals []float64, ids []K, old map[K]float64, eps float64) {
	for i, id := range ids {
		if o, ok := old[id]; ok && math.Abs(vals[i]-o) <= eps {
			vals[i] = o
		}
	}
}

// bloggersEqual reports whether two sorted blogger lists are identical —
// the O(V) gate for the delta path, which cannot absorb node-set changes.
func bloggersEqual(a, b []blog.BloggerID) bool {
	if len(a) != len(b) {
		return false
	}
	for i, id := range a {
		if b[i] != id {
			return false
		}
	}
	return true
}

// computeQuality scores every post: token count normalized by the corpus
// maximum, times the novelty factor; it also returns the corpus's total
// token count. Tokenization (word counts + shingles) dominates quality
// scoring; cached posts skip it entirely, and fresh posts tokenize in
// parallel. Novelty is scored in chronological order so the
// near-duplicate detector sees originals first; when the cached scoring
// order is a prefix of the current one (the live-append common case), only
// the new tail runs through the detector, otherwise the detector resets
// and replays from the cached shingles — into an index pre-sized for the
// whole replay.
func (a *Analyzer) computeQuality(c *blog.Corpus, posts []blog.PostID, cache *Cache) (quality, nov []float64, words, reused int) {
	n := len(posts)
	quality = make([]float64, n)
	nov = make([]float64, n)

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		px, py := c.Posts[posts[order[x]]], c.Posts[posts[order[y]]]
		if !px.Posted.Equal(py.Posted) {
			return px.Posted.Before(py.Posted)
		}
		return px.ID < py.ID
	})

	needNovelty := !a.cfg.IgnoreNovelty
	var fresh []int
	for i, pid := range posts {
		if f := cache.posts[pid]; f != nil && f.tokenized && (!needNovelty || f.hasPrepared) {
			reused++
		} else {
			fresh = append(fresh, i)
		}
	}
	freshWords := make([]float64, len(fresh))
	freshPrep := make([]novelty.Prepared, len(fresh))
	a.parallelSweep(len(fresh), func(lo, hi int) {
		for k := lo; k < hi; k++ {
			body := c.Posts[posts[fresh[k]]].Body
			freshWords[k] = float64(textutil.WordCount(body))
			if needNovelty {
				freshPrep[k] = cache.det.Prepare(body) // Prepare is pure
			}
		}
	})
	for k, i := range fresh {
		f := cache.facets(posts[i])
		f.words = freshWords[k]
		f.tokenized = true
		if needNovelty {
			f.prepared = freshPrep[k]
			f.hasPrepared = true
		}
	}

	lengths := make([]float64, n)
	maxLen := 0.0
	for i, pid := range posts {
		lengths[i] = cache.posts[pid].words
		words += int(lengths[i])
		if lengths[i] > maxLen {
			maxLen = lengths[i]
		}
	}

	if !needNovelty {
		for i := range nov {
			nov[i] = novelty.OriginalScore
		}
	} else {
		chronoIDs := make([]blog.PostID, n)
		for k, oi := range order {
			chronoIDs[k] = posts[oi]
		}
		usable := cache.orderIsPrefix(chronoIDs)
		if usable {
			for _, pid := range cache.order {
				if f := cache.posts[pid]; f == nil || !f.hasNov {
					usable = false
					break
				}
			}
		}
		if !usable {
			cache.resetNovelty()
		}
		scored := len(cache.order)
		if cache.det.SeenCount() == 0 {
			total := 0
			for _, pid := range chronoIDs {
				total += cache.posts[pid].prepared.ShingleCount()
			}
			cache.det.Grow(n, total)
		}
		for k := 0; k < scored; k++ {
			nov[order[k]] = cache.posts[chronoIDs[k]].nov
		}
		for k := scored; k < n; k++ {
			pid := chronoIDs[k]
			f := cache.facets(pid)
			f.nov = cache.det.ScorePrepared(f.prepared)
			f.hasNov = true
			cache.order = append(cache.order, pid)
			nov[order[k]] = f.nov
		}
	}

	if maxLen > 0 {
		for i := range quality {
			quality[i] = lengths[i] / maxLen * nov[i]
		}
	}
	return quality, nov, words, reused
}

// sentimentFactors returns the SF value of every comment, grouped per post
// in posts order, reusing cached polarities (comments are append-only per
// post under the corpus COW contract, so a cached prefix never goes
// stale). Fresh comments are scored in parallel across posts; the cache
// merge runs serially afterwards. Returns nil when sentiment is ignored
// (every comment then counts as SF = 1).
func (a *Analyzer) sentimentFactors(c *blog.Corpus, posts []blog.PostID, cache *Cache) (sf [][]float64, reused int) {
	if a.cfg.IgnoreSentiment {
		return nil, 0
	}
	sf = make([][]float64, len(posts))
	newPols := make([][]sentiment.Polarity, len(posts))
	reusedPer := make([]int, len(posts))
	a.parallelSweep(len(posts), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p := c.Posts[posts[i]]
			known := cache.posts[posts[i]].sentiments
			if len(known) > len(p.Comments) {
				// Comments shrank — a COW-contract violation; trust only
				// the still-present prefix.
				known = known[:len(p.Comments)]
			}
			out := make([]float64, len(p.Comments))
			for j, pol := range known {
				out[j] = a.factorOf(pol)
			}
			reusedPer[i] = len(known)
			if len(known) < len(p.Comments) {
				pols := make([]sentiment.Polarity, 0, len(p.Comments)-len(known))
				for j := len(known); j < len(p.Comments); j++ {
					pol := a.sent.Score(p.Comments[j].Text)
					out[j] = a.factorOf(pol)
					pols = append(pols, pol)
				}
				newPols[i] = pols
			}
			sf[i] = out
		}
	})
	for i, pols := range newPols {
		if pols != nil {
			f := cache.facets(posts[i])
			f.sentiments = append(f.sentiments, pols...)
		}
	}
	for _, r := range reusedPer {
		reused += r
	}
	return sf, reused
}

// factorOf maps a comment polarity to its configured SF value.
func (a *Analyzer) factorOf(p sentiment.Polarity) float64 {
	switch p {
	case sentiment.Positive:
		return a.cfg.SFPositive
	case sentiment.Negative:
		return a.cfg.SFNegative
	default:
		return a.cfg.SFNeutral
	}
}

// parallelSweep splits [0, n) across cfg.Workers goroutines.
func (a *Analyzer) parallelSweep(n int, f func(lo, hi int)) {
	w := a.cfg.Workers
	if w > n {
		w = n
	}
	if w <= 1 {
		f(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
