package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"mass/internal/blog"
	"mass/internal/core"
	"mass/internal/influence"
	"mass/internal/query"
)

// scoreTol is the tolerance the repository's warm==cold engine tests hold
// served influence scores to.
const scoreTol = 1e-9

type corpusStats struct {
	Bloggers int `json:"Bloggers"`
	Posts    int `json:"Posts"`
	Comments int `json:"Comments"`
	Links    int `json:"Links"`
}

// expected is the corpus the server must serve once the acked writes are in.
type expected struct {
	stats    corpusStats
	posts    map[blog.PostID]bool             // written posts
	comments map[blog.PostID]int              // comment count per post touched by a comment
	byAuthor map[blog.BloggerID][]blog.PostID // commented posts, by author
}

func expectAfter(ci *corpusInfo, base corpusStats, acks []ack) *expected {
	e := &expected{stats: base, posts: map[blog.PostID]bool{}, comments: map[blog.PostID]int{}, byAuthor: map[blog.BloggerID][]blog.PostID{}}
	for _, a := range acks {
		switch a.w.Kind {
		case opPost:
			e.stats.Posts++
			e.posts[a.w.Post] = true
		case opComment:
			e.stats.Comments++
			if _, ok := e.comments[a.w.Post]; !ok {
				e.comments[a.w.Post] = ci.comments[a.w.Post]
				e.byAuthor[a.w.TargetAut] = append(e.byAuthor[a.w.TargetAut], a.w.Post)
			}
			e.comments[a.w.Post]++
		case opLink:
			e.stats.Links++
		}
	}
	return e
}

// queryPages runs a posts query page by page and returns every row.
func queryPages(ctx context.Context, c *conn, where map[string]any) ([]queryRow, error) {
	var rows []queryRow
	for offset := 0; ; offset += 100 {
		body := mustJSON(map[string]any{"entity": "posts", "where": where, "select": []string{"comments"},
			"orderBy": []any{map[string]any{"field": "posted", "desc": true}}, "limit": 100, "offset": offset})
		var qr queryResult
		if err := c.getJSON(ctx, "POST", "/api/v1/query", body, &qr); err != nil {
			return nil, err
		}
		rows = append(rows, qr.Rows...)
		if len(qr.Rows) < 100 || offset+100 >= qr.Total {
			return rows, nil
		}
	}
}

// verifyReadback checks that the server reads back every acked write:
// corpus totals, each written post, and the comment count of every
// commented post. It returns the number of read requests it made.
func verifyReadback(ctx context.Context, c *conn, startPost time.Time, e *expected) (int, error) {
	reads := 1
	var st corpusStats
	if err := c.getJSON(ctx, "GET", "/api/v1/stats", nil, &st); err != nil {
		return reads, err
	}
	if st != e.stats {
		return reads, fmt.Errorf("corpus totals %+v, want %+v after the acked writes", st, e.stats)
	}
	rows, err := queryPages(ctx, c, map[string]any{"field": "posted", "op": "ge", "value": startPost.Format(time.RFC3339)})
	reads += len(rows)/100 + 1
	if err != nil {
		return reads, err
	}
	got := map[blog.PostID]bool{}
	for _, r := range rows {
		got[blog.PostID(r.ID)] = true
	}
	for id := range e.posts {
		if !got[id] {
			return reads, fmt.Errorf("acked post %s is not readable", id)
		}
	}
	for author, posts := range e.byAuthor {
		rows, err := queryPages(ctx, c, map[string]any{"field": "author", "op": "eq", "value": string(author)})
		reads++
		if err != nil {
			return reads, err
		}
		counts := map[blog.PostID]float64{}
		for _, r := range rows {
			counts[blog.PostID(r.ID)] = r.Fields["comments"]
		}
		for _, p := range posts {
			if counts[p] != float64(e.comments[p]) {
				return reads, fmt.Errorf("post %s serves %v comments, want %d with the acked comments", p, counts[p], e.comments[p])
			}
		}
	}
	return reads, nil
}

// applyAcked folds the acked writes into c, in ack order, as the engine
// does.
func applyAcked(c *blog.Corpus, acks []ack) error {
	for _, a := range acks {
		w := a.w
		var err error
		switch w.Kind {
		case opPost:
			err = c.AddPost(&blog.Post{ID: w.Post, Author: w.Author, Title: w.Title, Body: w.Text, Posted: w.Posted, Tags: w.Tags})
		case opComment:
			err = c.AddComment(w.Post, blog.Comment{Commenter: w.Author, Text: w.Text, Posted: w.Posted})
		case opLink:
			_, err = c.AddLinkDedup(w.From, w.To)
		}
		if err != nil {
			return fmt.Errorf("applying acked %s: %w", w.Kind, err)
		}
	}
	return nil
}

// top10Query is the served general ranking.
var top10Query = mustJSON(map[string]any{"entity": "bloggers",
	"orderBy": []any{map[string]any{"field": "influence", "desc": true}}, "limit": 10})

// coldTop10 analyzes c from scratch in a single engine and returns its
// top 10 bloggers by influence.
func coldTop10(c *blog.Corpus) ([]scoredRow, error) {
	// The same solver worker count the server's engine uses; scores do
	// not depend on it.
	sys, err := core.FromCorpus(c, core.Options{Influence: influence.Config{Workers: runtime.GOMAXPROCS(0)}})
	if err != nil {
		return nil, err
	}
	q, err := query.Decode(top10Query)
	if err != nil {
		return nil, err
	}
	res, err := sys.Query(q)
	if err != nil {
		return nil, err
	}
	out := make([]scoredRow, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = scoredRow{Blogger: r.ID, Score: r.Score}
	}
	return out, nil
}

// top10Agreement counts positions where served and reference name the
// same blogger, and reports whether they agree to scoreTol: every
// position's score within tolerance, and any differing blogger explained
// by a tie within tolerance.
func top10Agreement(served, ref []scoredRow) (positions int, withinTol bool) {
	withinTol = len(served) == len(ref)
	refScore := map[string]float64{}
	for _, r := range ref {
		refScore[r.Blogger] = r.Score
	}
	for i := range min(len(served), len(ref)) {
		if served[i].Blogger == ref[i].Blogger {
			positions++
		}
		if math.Abs(served[i].Score-ref[i].Score) > scoreTol {
			withinTol = false
		}
		if s, ok := refScore[served[i].Blogger]; served[i].Blogger != ref[i].Blogger && (!ok || math.Abs(s-ref[i].Score) > scoreTol) {
			withinTol = false
		}
	}
	return positions, withinTol
}
