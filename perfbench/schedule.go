package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"time"

	"mass/internal/blog"
	"mass/internal/lexicon"
)

// zipf picks ranks 0..n-1 with P(k) ∝ 1/(k+1)^s, by inverting the
// cumulative distribution with a binary search.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	total := 0.0
	for k := range n {
		total += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = total
	}
	for k := range z.cdf {
		z.cdf[k] /= total
	}
	return z
}

func (z *zipf) pick(r *rand.Rand) int {
	u := r.Float64()
	k := sort.SearchFloat64s(z.cdf, u)
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// zipfSkew is the exponent of every Zipf picker in the schedule. There is
// no access log to fit it to, so it is Zipf's law in its plain form
// (s = 1), an assumption rather than a measurement.
const zipfSkew = 1.0

type opKind uint8

const (
	opTop opKind = iota
	opBlogger
	opDomainTop
	opQueryAuthor
	opQueryFacet
	opAdvert
	opProfile
	opPost
	opComment
	opLink
	opPoll
)

var opNames = [...]string{"top", "blogger", "domain_top", "query_author", "query_facet", "advert", "profile", "post", "comment", "link", "poll"}

func (k opKind) String() string { return opNames[k] }

// interactive reports whether k belongs to the interactive read mix.
func (k opKind) interactive() bool { return k <= opProfile }

// write reports whether k is an ingest write.
func (k opKind) write() bool { return k == opPost || k == opComment || k == opLink }

// op is one scheduled request on the main connection.
type op struct {
	At     time.Duration // due time, from the start of the measured window
	Kind   opKind
	Phase  int // 0: nominal rate; i > 0: ladder step i
	Method string
	Path   string
	Body   []byte
	Key    string // blogger ID a blogger read must echo back
	W      *write // set on writes
}

// write is one ingested mutation, kept so the harness can check that it
// is readable after the drain and after a crash.
type write struct {
	Kind      opKind
	Post      blog.PostID    // post ID (posts) or commented post (comments)
	Author    blog.BloggerID // post author, or commenter
	Title     string
	Text      string
	Tags      []string
	Posted    time.Time
	From, To  blog.BloggerID // links
	TargetAut blog.BloggerID // author of the commented post
}

// corpusInfo is what the schedule needs to know about the initial corpus.
type corpusInfo struct {
	bloggers  []blog.BloggerID // sorted
	posts     []blog.PostID    // sorted
	authorOf  map[blog.PostID]blog.BloggerID
	comments  map[blog.PostID]int
	links     map[[2]blog.BloggerID]bool
	maxPosted time.Time
	domains   []string
}

func newCorpusInfo(c *blog.Corpus) *corpusInfo {
	ci := &corpusInfo{
		bloggers: c.BloggerIDs(),
		posts:    c.PostIDs(),
		authorOf: make(map[blog.PostID]blog.BloggerID, len(c.Posts)),
		comments: make(map[blog.PostID]int, len(c.Posts)),
		links:    make(map[[2]blog.BloggerID]bool, len(c.Links)),
		domains:  lexicon.Domains(),
	}
	for id, p := range c.Posts {
		ci.authorOf[id] = p.Author
		ci.comments[id] = len(p.Comments)
		if p.Posted.After(ci.maxPosted) {
			ci.maxPosted = p.Posted
		}
		for _, cm := range p.Comments {
			if cm.Posted.After(ci.maxPosted) {
				ci.maxPosted = cm.Posted
			}
		}
	}
	for _, l := range c.Links {
		ci.links[[2]blog.BloggerID{l.From, l.To}] = true
	}
	return ci
}

// schedule is a workload's full, seeded op list for one run.
type schedule struct {
	ops        []op
	pages      []blog.BloggerID // dashboard centres, in order (pages[0] also centres the traced viz replay)
	subs       [][]byte         // standing subscriptions registered over HTTP; subs[0] is latest-posts
	replaySubs [][]byte         // the subscription set the traced flush replay applies
	ladder     []float64        // rate of each ladder step (phase i ↔ ladder[i-1])
	queries    [][]byte         // distinct /query ASTs of the interactive mix
	startPost  time.Time        // posted time of the first written post
}

// latestPostsQuery is the freshness poll and the SSE subscription: the
// newest posts by publication time.
var latestPostsQuery = latestPosts(0)

// latestPosts is one 100-row page of the newest posts.
func latestPosts(offset int) []byte {
	q := map[string]any{"entity": "posts", "orderBy": []any{map[string]any{"field": "posted", "desc": true}}, "limit": 100}
	if offset > 0 {
		q["offset"] = offset
	}
	return mustJSON(q)
}

// gen draws one workload's inputs. Every choice comes from seed through
// separate streams, so changing one rate does not reshuffle the others.
type gen struct {
	ci            *corpusInfo
	seed          int64
	bloggerRank   []blog.BloggerID
	postRank      []blog.PostID
	zb, zp        *zipf
	pos, neg      []string
	filler        []string
	posts, writes int
	newLinks      map[[2]blog.BloggerID]bool
}

func stream(seed int64, k int64) *rand.Rand { return rand.New(rand.NewSource(seed*1_000_003 + k)) }

func newGen(ci *corpusInfo, seed int64) *gen {
	g := &gen{ci: ci, seed: seed, pos: lexicon.PositiveWords(), neg: lexicon.NegativeWords(),
		filler: strings.Fields("the a of and to in is it that this for on with as was at by we our from")}
	r := stream(seed, 1)
	g.bloggerRank = append([]blog.BloggerID(nil), ci.bloggers...)
	r.Shuffle(len(g.bloggerRank), func(i, j int) { g.bloggerRank[i], g.bloggerRank[j] = g.bloggerRank[j], g.bloggerRank[i] })
	g.postRank = append([]blog.PostID(nil), ci.posts...)
	r.Shuffle(len(g.postRank), func(i, j int) { g.postRank[i], g.postRank[j] = g.postRank[j], g.postRank[i] })
	g.zb = newZipf(len(g.bloggerRank), zipfSkew)
	g.zp = newZipf(len(g.postRank), zipfSkew)
	g.newLinks = map[[2]blog.BloggerID]bool{}
	return g
}

func (g *gen) words(r *rand.Rand, vocab []string, n int) string {
	w := make([]string, n)
	for i := range w {
		if r.Intn(3) == 0 {
			w[i] = g.filler[r.Intn(len(g.filler))]
		} else {
			w[i] = vocab[r.Intn(len(vocab))]
		}
	}
	return strings.Join(w, " ")
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only static, marshalable shapes are passed
	}
	return b
}

// interactive draws one request of the interactive mix: the seven request
// kinds opTop..opProfile in equal shares, since there is no measured
// traffic to weight them by.
func (g *gen) interactive(r *rand.Rand) op {
	kind := opKind(r.Intn(int(opProfile) + 1))
	d := g.ci.domains[r.Intn(len(g.ci.domains))]
	switch kind {
	case opTop:
		return op{Kind: opTop, Method: "GET", Path: "/api/v1/bloggers/top?limit=10"}
	case opBlogger:
		b := g.bloggerRank[g.zb.pick(r)]
		return op{Kind: opBlogger, Method: "GET", Path: "/api/v1/bloggers/" + url.PathEscape(string(b)), Key: string(b)}
	case opDomainTop:
		return op{Kind: opDomainTop, Method: "GET", Path: "/api/v1/domains/" + url.PathEscape(d) + "/top?limit=10"}
	case opQueryAuthor:
		b := g.bloggerRank[g.zb.pick(r)]
		return op{Kind: opQueryAuthor, Method: "POST", Path: "/api/v1/query", Body: mustJSON(map[string]any{
			"entity":  "posts",
			"where":   map[string]any{"field": "author", "op": "eq", "value": string(b)},
			"orderBy": []any{map[string]any{"field": "quality", "desc": true}},
			"limit":   10,
		})}
	case opQueryFacet:
		return op{Kind: opQueryFacet, Method: "POST", Path: "/api/v1/query", Body: mustJSON(map[string]any{
			"entity":  "bloggers",
			"where":   map[string]any{"field": "domain:" + d, "op": "gt", "value": float64(r.Intn(400)) / 1000},
			"orderBy": []any{map[string]any{"field": "influence", "desc": true}},
			"limit":   5 + r.Intn(21),
		})}
	case opAdvert:
		return op{Kind: opAdvert, Method: "POST", Path: "/api/v1/advert", Body: mustJSON(map[string]any{
			"text": g.words(r, lexicon.Vocabulary(d), 8+r.Intn(8)), "k": 10})}
	default:
		return op{Kind: opProfile, Method: "POST", Path: "/api/v1/profile", Body: mustJSON(map[string]any{
			"text": g.words(r, lexicon.Vocabulary(d), 12+r.Intn(12)), "k": 10})}
	}
}

// write draws one ingest write: ~30% posts by Zipf authors with increasing
// publication times, ~60% comments on Zipf-picked posts, ~10% new links.
func (g *gen) write(r *rand.Rand) op {
	g.writes++
	u := r.Float64()
	if u >= 0.90 {
		for range 64 {
			from := g.ci.bloggers[r.Intn(len(g.ci.bloggers))]
			to := g.bloggerRank[g.zb.pick(r)]
			k := [2]blog.BloggerID{from, to}
			if from == to || g.ci.links[k] || g.newLinks[k] {
				continue
			}
			g.newLinks[k] = true
			w := &write{Kind: opLink, From: from, To: to}
			return op{Kind: opLink, Method: "POST", Path: "/api/v1/links", Body: mustJSON(map[string]any{"from": from, "to": to}), W: w}
		}
		u = 0.5 // no fresh link found: write a comment instead
	}
	d := g.ci.domains[r.Intn(len(g.ci.domains))]
	vocab := lexicon.Vocabulary(d)
	if u < 0.30 {
		g.posts++
		w := &write{
			Kind:   opPost,
			Post:   blog.PostID(fmt.Sprintf("bench%d-p%06d", g.seed, g.posts)),
			Author: g.bloggerRank[g.zb.pick(r)],
			Title:  g.words(r, vocab, 4),
			Text:   g.words(r, vocab, 60+r.Intn(80)),
			Tags:   []string{vocab[r.Intn(len(vocab))], vocab[r.Intn(len(vocab))]},
			Posted: g.ci.maxPosted.Add(time.Duration(g.posts) * time.Minute),
		}
		return op{Kind: opPost, Method: "POST", Path: "/api/v1/posts", Body: mustJSON(map[string]any{
			"id": w.Post, "author": w.Author, "title": w.Title, "body": w.Text, "posted": w.Posted, "tags": w.Tags}), W: w}
	}
	target := g.postRank[g.zp.pick(r)]
	sent := g.pos
	if r.Intn(3) == 0 {
		sent = g.neg
	}
	text := g.words(r, vocab, 4+r.Intn(6)) + " " + g.words(r, sent, 2+r.Intn(4))
	w := &write{
		Kind: opComment, Post: target, TargetAut: g.ci.authorOf[target],
		Author: g.ci.bloggers[r.Intn(len(g.ci.bloggers))], Text: text,
		Posted: g.ci.maxPosted.Add(time.Duration(g.writes) * time.Second),
	}
	return op{Kind: opComment, Method: "POST", Path: "/api/v1/comments", Body: mustJSON(map[string]any{
		"post": w.Post, "commenter": w.Author, "text": w.Text, "posted": w.Posted}), W: w}
}

// poisson appends arrivals at rate per second over [from, to) and returns
// their times.
func poisson(r *rand.Rand, rate float64, from, to time.Duration) []time.Duration {
	var at []time.Duration
	if rate <= 0 {
		return at
	}
	t := from
	for {
		t += time.Duration(r.ExpFloat64() / rate * float64(time.Second))
		if t >= to {
			return at
		}
		at = append(at, t)
	}
}

// buildSchedule draws the whole run's inputs for workload w over a window
// of length window.
func buildSchedule(ci *corpusInfo, w *workload, seed int64, window time.Duration) *schedule {
	g := newGen(ci, seed)
	s := &schedule{startPost: ci.maxPosted.Add(time.Minute)}
	rArr, rMix, rWrite := stream(seed, 2), stream(seed, 3), stream(seed, 4)

	nominalEnd := window
	var ladderLen time.Duration
	for _, rate := range w.ladder {
		ladderLen += time.Duration(ladderSamples / rate * float64(time.Second))
	}
	if ladderLen > 0 {
		nominalEnd = max(window-ladderLen, window/2)
	}
	for _, t := range poisson(rArr, w.readRate, 0, nominalEnd) {
		o := g.interactive(rMix)
		o.At = t
		s.ops = append(s.ops, o)
	}
	t := nominalEnd
	for i, rate := range w.ladder {
		s.ladder = append(s.ladder, rate)
		for range ladderSamples {
			t += time.Duration(rArr.ExpFloat64() / rate * float64(time.Second))
			o := g.interactive(rMix)
			o.At, o.Phase = t, i+1
			s.ops = append(s.ops, o)
		}
	}
	for _, t := range poisson(rArr, w.writeRate, 0, window) {
		o := g.write(rWrite)
		o.At = t
		s.ops = append(s.ops, o)
	}
	if w.pollEvery > 0 {
		for t := w.pollEvery; t < window; t += w.pollEvery {
			s.ops = append(s.ops, op{At: t, Kind: opPoll, Method: "POST", Path: "/api/v1/query", Body: latestPostsQuery})
		}
	}
	sort.SliceStable(s.ops, func(i, j int) bool { return s.ops[i].At < s.ops[j].At })

	seen := map[string]bool{}
	for _, o := range s.ops {
		if (o.Kind == opQueryAuthor || o.Kind == opQueryFacet) && !seen[string(o.Body)] {
			seen[string(o.Body)] = true
			s.queries = append(s.queries, o.Body)
		}
	}
	rPage := stream(seed, 5)
	for range 64 {
		s.pages = append(s.pages, g.bloggerRank[g.zb.pick(rPage)])
	}
	// K standing subscriptions: latest posts, per-domain top 10, and
	// author-pinned posts of five Zipf authors.
	s.replaySubs = append(s.replaySubs, latestPostsQuery)
	for _, d := range ci.domains {
		s.replaySubs = append(s.replaySubs, mustJSON(map[string]any{"entity": "bloggers",
			"orderBy": []any{map[string]any{"field": "domain:" + d, "desc": true}}, "limit": 10}))
	}
	r := stream(seed, 6)
	for range 5 {
		b := g.bloggerRank[g.zb.pick(r)]
		s.replaySubs = append(s.replaySubs, mustJSON(map[string]any{"entity": "posts",
			"where":   map[string]any{"field": "author", "op": "eq", "value": string(b)},
			"orderBy": []any{map[string]any{"field": "posted", "desc": true}}, "limit": 20}))
	}
	if w.subscribe {
		s.subs = s.replaySubs
	}
	return s
}

// encode renders the schedule byte-for-byte, for determinism checks.
func (s *schedule) encode() []byte {
	var b bytes.Buffer
	for _, o := range s.ops {
		fmt.Fprintf(&b, "%d %s %d %s %s %s\n", o.At, o.Kind, o.Phase, o.Method, o.Path, o.Body)
	}
	for _, p := range s.pages {
		fmt.Fprintf(&b, "page %s\n", p)
	}
	for _, q := range s.replaySubs {
		fmt.Fprintf(&b, "sub %s\n", q)
	}
	return b.Bytes()
}
