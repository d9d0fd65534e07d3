package main

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"

	"mass/internal/synth"
	"mass/internal/xmlstore"
)

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailLevel(c.n); got != c.want {
			t.Errorf("tailLevel(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var d dist
	for i := 1; i <= 1000; i++ {
		d.add(float64(1001 - i)) // unsorted input: 1000 … 1
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}, {0, 1}} {
		if got := d.p(c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	level, v := d.tail()
	if level != 99 || v != 990 {
		t.Errorf("tail of 1000 samples = p%v %v, want p99 990", level, v)
	}
	var empty dist
	if !math.IsNaN(empty.median()) {
		t.Error("median of no samples should be NaN")
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "refresh", Start: 0, End: 100 * ms},
		// Two overlapping children covering 10..50, one clipped to the
		// parent's end (90..100), and a grandchild that must not count
		// against the root.
		{ID: 2, Parent: 1, Name: "snapshot", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "validate", Start: 30 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "analyze", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 4, Name: "pagerank", Start: 95 * ms, End: 110 * ms},
		{ID: 6, Name: "other-root", Start: 0, End: 5 * ms},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50 * ms, 2: 30 * ms, 3: 20 * ms, 4: 15 * ms, 5: 15 * ms, 6: 5 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerRecordsParentAndName(t *testing.T) {
	tr := newTracer()
	_, err := tr.timed("outer", 0, func(id int64) error {
		_, err := tr.timed("inner", id, func(int64) error { return nil })
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) != 2 || tr.spans[0].Name != "inner" || tr.spans[0].Parent != tr.spans[1].ID {
		t.Fatalf("spans = %+v, want inner parented to outer", tr.spans)
	}
	if tr.byName("outer", time.Nanosecond).n() != 1 {
		t.Error("byName did not find the outer span")
	}
}

func TestZipfPickerSkewAndDeterminism(t *testing.T) {
	z := newZipf(1000, zipfSkew)
	r1, r2 := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	counts := make([]int, 1000)
	const draws = 200000
	for range draws {
		k := z.pick(r1)
		if k2 := z.pick(r2); k != k2 {
			t.Fatal("same seed drew different ranks")
		}
		if k < 0 || k >= 1000 {
			t.Fatalf("rank %d out of range", k)
		}
		counts[k]++
	}
	// P(rank 0) = 1 / H(1000, s); the ratio of ranks 1 and 2 is 2^s.
	h := 0.0
	for k := 1; k <= 1000; k++ {
		h += math.Pow(float64(k), -zipfSkew)
	}
	if got, want := float64(counts[0])/draws, 1/h; math.Abs(got-want) > 0.01 {
		t.Errorf("rank 0 frequency %.4f, want %.4f", got, want)
	}
	if ratio := float64(counts[0]) / float64(counts[1]); math.Abs(ratio-math.Pow(2, zipfSkew)) > 0.15 {
		t.Errorf("rank 0/1 frequency ratio %.3f, want %.3f", ratio, math.Pow(2, zipfSkew))
	}
	if counts[0] <= counts[10] || counts[10] <= counts[500] {
		t.Errorf("frequencies do not fall with rank: %d, %d, %d", counts[0], counts[10], counts[500])
	}
}

// smallCorpus is a quick stand-in for the paper-scale corpus.
var smallCorpus = synth.Config{Bloggers: 80, Posts: 600}

func TestSameSeedSameCorpusAndSchedule(t *testing.T) {
	render := func(seed int64, w *workload) (corpus, sched []byte) {
		cfg := smallCorpus
		cfg.Seed = seed
		c, _, err := synth.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := xmlstore.Write(&b, c); err != nil {
			t.Fatal(err)
		}
		return b.Bytes(), buildSchedule(newCorpusInfo(c), w, seed, 4*time.Second).encode()
	}
	for _, w := range workloads {
		c1, s1 := render(5, w)
		c2, s2 := render(5, w)
		if !bytes.Equal(c1, c2) {
			t.Errorf("%s: same seed gave different corpora", w.name)
		}
		if !bytes.Equal(s1, s2) {
			t.Errorf("%s: same seed gave different schedules", w.name)
		}
		c3, s3 := render(6, w)
		if bytes.Equal(c1, c3) || bytes.Equal(s1, s3) {
			t.Errorf("%s: a different seed gave the same inputs", w.name)
		}
	}
}

func TestScheduleShape(t *testing.T) {
	c, _, err := synth.Generate(synth.Config{Seed: 3, Bloggers: 80, Posts: 600})
	if err != nil {
		t.Fatal(err)
	}
	ci := newCorpusInfo(c)
	w, err := findWorkload("ingest-live")
	if err != nil {
		t.Fatal(err)
	}
	s := buildSchedule(ci, w, 3, 8*time.Second)
	kinds := map[opKind]int{}
	links := map[[2]string]bool{}
	for i, o := range s.ops {
		if i > 0 && o.At < s.ops[i-1].At {
			t.Fatal("schedule not in due-time order")
		}
		kinds[o.Kind]++
		if o.Kind == opLink {
			k := [2]string{string(o.W.From), string(o.W.To)}
			if links[k] || o.W.From == o.W.To {
				t.Errorf("link %v repeated or a self-link", k)
			}
			links[k] = true
		}
	}
	writes := kinds[opPost] + kinds[opComment] + kinds[opLink]
	if share := float64(kinds[opPost]) / float64(writes); share < 0.22 || share > 0.38 {
		t.Errorf("posts are %.2f of writes, want about 0.30", share)
	}
	reads := 0
	for k := opTop; k <= opProfile; k++ {
		reads += kinds[k]
	}
	for k := opTop; k <= opProfile; k++ {
		if share := float64(kinds[k]) / float64(reads); math.Abs(share-1.0/7) > 0.04 {
			t.Errorf("%s is %.3f of the interactive mix, want 1/7", k, share)
		}
	}
	if kinds[opPoll] != int(8*time.Second/w.pollEvery)-1 {
		t.Errorf("%d polls, want one every %s", kinds[opPoll], w.pollEvery)
	}
	if len(s.subs) != 16 || string(s.subs[0]) != string(latestPostsQuery) {
		t.Errorf("%d subscriptions, want 16 starting with latest posts", len(s.subs))
	}
}

func TestTop10AgreementTolerance(t *testing.T) {
	ref := []scoredRow{{"a", 3}, {"b", 2}, {"c", 2 + 1e-12}, {"d", 1}}
	if n, ok := top10Agreement(ref, ref); n != 4 || !ok {
		t.Errorf("identical rankings: %d positions, ok=%v", n, ok)
	}
	// b and c tie within tolerance, so swapping them is agreement.
	tie := []scoredRow{{"a", 3}, {"c", 2 + 1e-12}, {"b", 2}, {"d", 1}}
	if n, ok := top10Agreement(tie, ref); n != 2 || !ok {
		t.Errorf("tie swap: %d positions, ok=%v; want 2, true", n, ok)
	}
	off := []scoredRow{{"a", 3}, {"b", 2}, {"c", 2}, {"d", 1.001}}
	if _, ok := top10Agreement(off, ref); ok {
		t.Error("a score off by 1e-3 passed")
	}
	swapped := []scoredRow{{"d", 3}, {"b", 2}, {"c", 2}, {"a", 1}}
	if _, ok := top10Agreement(swapped, ref); ok {
		t.Error("a different ranking with equal scores passed")
	}
}
