package influence

import (
	"fmt"
	"math"
	"testing"
	"time"

	"mass/internal/blog"
	"mass/internal/synth"
)

// TestNoveltyStateRoundTrip: a cache restored from its exported state
// rebuilds the fused novelty index (same SeenCount and scoring order) and
// keeps scoring exactly like the live cache and a cold analysis — both
// when new posts extend the chronological order (the restored index
// scores only the tail, including a planted verbatim copy of an old post)
// and when they land earlier and force a reset and full replay into a
// pre-sized index.
func TestNoveltyStateRoundTrip(t *testing.T) {
	corpus, _, err := synth.Generate(synth.Config{Seed: 17, Bloggers: 50, Posts: 500})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAnalyzer(t, tightConfig(), trainDomainClassifier(t))
	live := NewCache()
	if _, err := a.AnalyzeCached(corpus, nil, live); err != nil {
		t.Fatal(err)
	}
	restored := RestoreCache(live.ExportState())
	if got, want := restored.det.SeenCount(), live.det.SeenCount(); got != want || want != len(corpus.Posts) {
		t.Fatalf("restored SeenCount %d, live %d, posts %d", got, want, len(corpus.Posts))
	}

	check := func(stage string, wantTail bool) {
		t.Helper()
		cold, err := a.Analyze(corpus)
		if err != nil {
			t.Fatal(err)
		}
		for name, cache := range map[string]*Cache{"live": live, "restored": restored} {
			det := cache.det
			res, err := a.AnalyzeCached(corpus, nil, cache)
			if err != nil {
				t.Fatal(err)
			}
			// A reset replaces the detector; a tail append keeps it.
			if tail := cache.det == det; tail != wantTail {
				t.Fatalf("%s %s: scored only the new tail = %v, want %v", stage, name, tail, wantTail)
			}
			if cache.det.SeenCount() != len(corpus.Posts) {
				t.Fatalf("%s %s: SeenCount %d, want %d", stage, name, cache.det.SeenCount(), len(corpus.Posts))
			}
			for pid, want := range cold.Novelty {
				if got := res.Novelty[pid]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %s: novelty(%s) = %v, cold %v", stage, name, pid, got, want)
				}
				if got, want := res.Quality[pid], cold.Quality[pid]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %s: quality(%s) = %v, cold %v", stage, name, pid, got, want)
				}
			}
			if res.TotalWords() != cold.TotalWords() {
				t.Fatalf("%s %s: TotalWords %d, cold %d", stage, name, res.TotalWords(), cold.TotalWords())
			}
		}
	}

	// Tail append: later posts, one a verbatim copy of an existing body.
	var last time.Time
	for _, p := range corpus.Posts {
		if p.Posted.After(last) {
			last = p.Posted
		}
	}
	authors := corpus.BloggerIDs()
	original := corpus.Posts[corpus.PostIDs()[7]]
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf("fresh late dispatch %d about harbour markets and evening matches", i)
		if i == 0 {
			body = original.Body
		}
		if err := corpus.AddPost(&blog.Post{
			ID: blog.PostID(fmt.Sprintf("late-%d", i)), Author: authors[i],
			Posted: last.Add(time.Duration(i+1) * time.Hour), Body: body,
		}); err != nil {
			t.Fatal(err)
		}
	}
	check("tail", true)
	res, err := a.Analyze(corpus)
	if err != nil {
		t.Fatal(err)
	}
	if res.Novelty["late-0"] > 0.1 {
		t.Fatalf("planted copy scored novelty %v, want <= 0.1", res.Novelty["late-0"])
	}

	// Posts dated before everything else: the order is no longer a
	// prefix, so both caches reset and replay.
	growMixed(t, corpus, 1)
	check("replay", false)
}
