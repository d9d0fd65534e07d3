// Package core is the top-level MASS facade, wiring the paper's three
// modules (Fig. 2) into one pipeline: acquire a corpus (crawl, load, or
// generate), run the Analyzer Module (post classifier + influence solver),
// and serve the User Interface Module's operations (top-k queries,
// advertisement and personalized recommendation, network visualization).
//
// Typical use:
//
//	sys, err := core.FromCorpus(corpus, core.Options{})
//	...
//	top := sys.TopInfluential(3)
//	ad := sys.AdvertiseText("new basketball sneakers ...", 3)
package core

import (
	"context"
	"fmt"

	"mass/internal/advert"
	"mass/internal/blog"
	"mass/internal/classify"
	"mass/internal/crawler"
	"mass/internal/influence"
	"mass/internal/lexicon"
	"mass/internal/query"
	"mass/internal/recommend"
	"mass/internal/synth"
	"mass/internal/viz"
	"mass/internal/xmlstore"
)

// Options configures a System.
type Options struct {
	// Influence tunes the scoring model (the demo's parameter toolbar).
	Influence influence.Config
	// Domains are the interest domains; default lexicon.Domains().
	Domains []string
	// Classifier plugs in a custom post classifier. When nil, a naive
	// Bayes model is trained on synthetic domain snippets
	// (TrainingPerDomain × len(Domains) examples, seed TrainingSeed).
	Classifier classify.Classifier
	// TrainingPerDomain is the per-domain training size for the default
	// classifier. Default 30.
	TrainingPerDomain int
	// TrainingSeed seeds the default classifier's training snippets.
	TrainingSeed int64
}

func (o Options) withDefaults() Options {
	if len(o.Domains) == 0 {
		o.Domains = lexicon.Domains()
	}
	if o.TrainingPerDomain == 0 {
		o.TrainingPerDomain = 30
	}
	if o.TrainingSeed == 0 {
		o.TrainingSeed = 1
	}
	return o
}

// System is an analyzed blogosphere ready to answer the demo's queries.
type System struct {
	opts       Options
	corpus     *blog.Corpus
	classifier classify.Classifier
	result     *influence.Result
	adRec      *advert.Recommender
	persRec    *recommend.Recommender
	// seq is the analysis generation this System belongs to (1 for
	// one-shot systems; the engine's snapshot seq when live), so query
	// memoization is always keyed by the right generation no matter how
	// the System is reached.
	seq uint64
	// queries memoizes executed queries per (seq, normalized query). The
	// cache outlives the System when an Engine shares it across
	// generations; its seq-based eviction keeps only the live generation.
	queries *query.Cache
}

// buildClassifier resolves the classifier to use: the explicit one, or a
// naive Bayes model trained on synthetic domain snippets.
func (o Options) buildClassifier() (classify.Classifier, error) {
	if o.Classifier != nil {
		return o.Classifier, nil
	}
	nb, err := classify.TrainNaiveBayes(
		synth.TrainingExamples(o.Domains, o.TrainingPerDomain, o.TrainingSeed))
	if err != nil {
		return nil, fmt.Errorf("core: training classifier: %w", err)
	}
	return nb, nil
}

// newSystem runs the analysis pipeline over c — warm-started from prev and
// facet-cached through cache when non-nil — and assembles the query-side
// recommenders. It is the shared build step behind FromCorpus (cold, once)
// and Engine (incremental, repeatedly).
func newSystem(c *blog.Corpus, opts Options, cl classify.Classifier, an *influence.Analyzer, prev *influence.Result, cache *influence.Cache, seq uint64, queries *query.Cache) (*System, error) {
	res, err := an.AnalyzeCached(c, prev, cache)
	if err != nil {
		return nil, err
	}
	adRec, err := advert.New(cl, res)
	if err != nil {
		return nil, err
	}
	persRec, err := recommend.New(cl, res, c)
	if err != nil {
		return nil, err
	}
	if queries == nil {
		queries = query.NewCache()
	}
	return &System{
		opts:       opts,
		corpus:     c,
		classifier: cl,
		result:     res,
		adRec:      adRec,
		persRec:    persRec,
		seq:        seq,
		queries:    queries,
	}, nil
}

// FromCorpus analyzes an in-memory corpus once. It remains the one-shot
// path for batch tooling and examples; a serving process should wrap the
// corpus in an Engine instead.
func FromCorpus(c *blog.Corpus, opts Options) (*System, error) {
	opts = opts.withDefaults()
	cl, err := opts.buildClassifier()
	if err != nil {
		return nil, err
	}
	an, err := influence.NewAnalyzer(opts.Influence, cl)
	if err != nil {
		return nil, err
	}
	return newSystem(c, opts, cl, an, nil, nil, 1, nil)
}

// LoadFile builds a System from an XML snapshot produced by SaveCorpus or
// the crawler tooling.
func LoadFile(path string, opts Options) (*System, error) {
	c, err := xmlstore.Load(path)
	if err != nil {
		return nil, err
	}
	return FromCorpus(c, opts)
}

// Crawl fetches the blogosphere from a blog service (see blogserver for
// the page format), starting at seed with the given crawl configuration,
// then analyzes it. It returns the system and the crawl statistics.
func Crawl(ctx context.Context, baseURL string, seed blog.BloggerID, ccfg crawler.Config, opts Options) (*System, crawler.Stats, error) {
	cr := crawler.New(ccfg, nil)
	c, stats, err := cr.Crawl(ctx, baseURL, seed)
	if err != nil {
		return nil, stats, err
	}
	sys, err := FromCorpus(c, opts)
	return sys, stats, err
}

// Corpus exposes the underlying corpus (read-only by convention).
func (s *System) Corpus() *blog.Corpus { return s.corpus }

// Result exposes the raw influence analysis.
func (s *System) Result() *influence.Result { return s.result }

// Classifier exposes the post classifier in use.
func (s *System) Classifier() classify.Classifier { return s.classifier }

// Query executes a composable query (package query) against this
// analyzed generation — the canonical read path: filter, order, project,
// paginate and aggregate over the influence facets without touching the
// result's internals. Results are memoized per (generation, normalized
// query); the System carries its own generation, so the promoted method
// on a live Snapshot is keyed correctly too.
func (s *System) Query(q *query.Query) (*query.Result, error) {
	return s.queries.Get(s.seq, q, func(n *query.Query) (*query.Result, error) {
		return query.Execute(s.corpus, s.result, n)
	})
}

// QueryCache exposes the query memo (observability and tests).
func (s *System) QueryCache() *query.Cache { return s.queries }

// TopInfluential returns the k most influential bloggers overall (the
// "General" ranking).
func (s *System) TopInfluential(k int) []blog.BloggerID {
	return s.result.TopKGeneral(k)
}

// TopInDomain returns the k most influential bloggers of one domain.
func (s *System) TopInDomain(domain string, k int) []blog.BloggerID {
	return s.result.TopKDomain(domain, k)
}

// AdvertiseText recommends top-k bloggers for an advertisement text
// (Scenario 1, Fig. 3 option 1).
func (s *System) AdvertiseText(adText string, k int) []advert.Recommendation {
	return s.adRec.ForText(adText, k)
}

// AdvertiseDomains recommends top-k bloggers for explicitly selected
// domains (Fig. 3 option 2); empty domains falls back to the general list.
func (s *System) AdvertiseDomains(domains []string, k int) []advert.Recommendation {
	return s.adRec.ForDomains(domains, k)
}

// RecommendForProfile recommends top-k bloggers for a new user's profile
// text (Scenario 2).
func (s *System) RecommendForProfile(profile string, k int) []recommend.Recommendation {
	return s.persRec.ForProfile(profile, k)
}

// RecommendForBlogger recommends top-k bloggers to an existing member.
func (s *System) RecommendForBlogger(id blog.BloggerID, k int) ([]recommend.Recommendation, error) {
	return s.persRec.ForBlogger(id, k)
}

// RecommendInFriends restricts a domain recommendation to the member's
// friend network of the given radius.
func (s *System) RecommendInFriends(id blog.BloggerID, domain string, radius, k int) ([]recommend.Recommendation, error) {
	return s.persRec.WithinFriends(id, domain, radius, k)
}

// Network builds the laid-out post-reply network around a blogger (Fig. 4).
func (s *System) Network(center blog.BloggerID, radius int, layoutSeed int64) (*viz.Network, error) {
	n, err := viz.Build(s.corpus, center, radius, s.result.BloggerScores)
	if err != nil {
		return nil, err
	}
	n.Layout(layoutSeed, 0)
	return n, nil
}

// SaveCorpus writes the corpus snapshot as XML.
func (s *System) SaveCorpus(path string) error {
	return xmlstore.Save(path, s.corpus)
}

// Stats summarizes the corpus. Post lengths come from the analysis, which
// already counted every body's words.
func (s *System) Stats() blog.Stats {
	return blog.StatsWithWords(s.corpus, s.result.TotalWords())
}
