package cluster

import (
	"fmt"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/core"
	"mass/internal/synth"
	"mass/internal/textutil"
)

// TestStatsFromCachedWordCounts: Cluster.Stats reads post lengths from the
// analysis's cached word counts instead of re-tokenizing, and must still
// equal a full blog.ComputeStats pass over the same corpus — at one shard
// and at four, on the initial build and after an incremental flush.
func TestStatsFromCachedWordCounts(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			gen := func() *blog.Corpus {
				c, _, err := synth.Generate(synth.Config{Seed: 9, Bloggers: 60, Posts: 400})
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			want := gen()
			cl, err := New(gen(), Options{Shards: shards, Engine: quietEngine()})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			check := func(stage string) {
				t.Helper()
				got := cl.Stats(cl.View())
				if exp := blog.ComputeStats(want, textutil.WordCount); got != exp {
					t.Fatalf("%s: Stats = %+v, want %+v", stage, got, exp)
				}
			}
			check("initial")

			p := &blog.Post{
				ID:     "stats-extra",
				Author: "blogger0003",
				Body:   "A fresh post, with don't-style tokens and ÜBER case: eleven words here.",
				Posted: time.Date(2010, 3, 1, 0, 0, 0, 0, time.UTC),
			}
			if err := want.AddPost(p); err != nil {
				t.Fatal(err)
			}
			cp := *p
			if err := cl.AddBatch(core.Batch{Posts: []*blog.Post{&cp}}); err != nil {
				t.Fatal(err)
			}
			if err := cl.Refresh(t.Context()); err != nil {
				t.Fatal(err)
			}
			check("after flush")
		})
	}
}
