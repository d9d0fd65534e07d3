package novelty

import (
	"math/rand"
	"strings"
	"testing"

	"mass/internal/lexicon"
)

// indicatorScoreOracle is IndicatorScore as it was before the one-pass
// matcher: lowercase a copy of the text, then one substring scan per
// indicator. Kept only as the equivalence oracle.
func indicatorScoreOracle(text string) float64 {
	lower := strings.ToLower(text)
	hits := 0
	for _, ind := range lexicon.CopyIndicators() {
		if strings.Contains(lower, ind) {
			hits++
		}
	}
	if hits == 0 {
		return OriginalScore
	}
	return maxCopyScore / float64(hits)
}

// FuzzIndicatorScore checks the one-pass matcher against the oracle,
// bit for bit.
func FuzzIndicatorScore(f *testing.F) {
	for _, s := range []string{
		"", "zt", "ZT", "Z", "reposted fro", "Reposted From ZT", "SOURCE: x",
		"credit to and courtesy of and Full Text Below and quoted in full",
		"repostrepost from reprint fromreprinted", "originally postedoriginally published original source",
		"via email forward zhuan tie excerpted from all rights belong copied from copy from forwarded from forward from",
		"\u212Aelvin z\u212At", "\u0130nfo origİnally", "ünïcode reposted from", "bad \xff utf8 zt",
		"ﬀ ß ΣΑΣ reprinted",
	} {
		f.Add(s)
	}
	d := New()
	f.Fuzz(func(t *testing.T, text string) {
		if got, want := d.IndicatorScore(text), indicatorScoreOracle(text); got != want {
			t.Fatalf("IndicatorScore(%q) = %v, oracle %v", text, got, want)
		}
	})
}

// TestIndicatorScoreMatchesOracle runs the fuzz seeds and generated posts
// mixing every indicator with random case and non-ASCII noise.
func TestIndicatorScoreMatchesOracle(t *testing.T) {
	d := New()
	rng := rand.New(rand.NewSource(14))
	ind := lexicon.CopyIndicators()
	noise := []string{"the ", "post ", "Über ", "\u212A", "\u0130", " ", "repo", "ZT", "\xff"}
	for n := 0; n < 3000; n++ {
		var b strings.Builder
		for k := rng.Intn(12); k >= 0; k-- {
			w := noise[rng.Intn(len(noise))]
			if rng.Intn(3) == 0 {
				w = ind[rng.Intn(len(ind))]
			}
			for _, r := range w {
				if rng.Intn(4) == 0 {
					r = []rune(strings.ToUpper(string(r)))[0]
				}
				b.WriteRune(r)
			}
		}
		text := b.String()
		if got, want := d.IndicatorScore(text), indicatorScoreOracle(text); got != want {
			t.Fatalf("IndicatorScore(%q) = %v, oracle %v", text, got, want)
		}
	}
}

// twoPass is the duplicate detector as it was before the fused index: a
// scoring pass that looks every shingle up and counts overlaps in a fresh
// per-document map, then a separate observe pass that looks every shingle
// up again to insert the document. Kept only as the equivalence oracle.
type twoPass struct {
	threshold float64
	first     map[uint64]int32
	more      map[uint64][]int32
	seenSize  []int
}

func newTwoPass() *twoPass {
	return &twoPass{threshold: New().dupThreshold, first: map[uint64]int32{}, more: map[uint64][]int32{}}
}

func (d *twoPass) score(p Prepared) float64 {
	s := p.indicator
	sh := p.shingles
	if len(sh) > 0 {
		shared := map[int32]int{}
		for _, g := range sh {
			if doc, ok := d.first[g]; ok {
				shared[doc]++
				for _, rest := range d.more[g] {
					shared[rest]++
				}
			}
		}
		for doc, inter := range shared {
			union := len(sh) + d.seenSize[doc] - inter
			if union > 0 && float64(inter)/float64(union) >= d.threshold {
				if s > maxCopyScore {
					s = maxCopyScore
				}
				break
			}
		}
	}
	id := int32(len(d.seenSize))
	d.seenSize = append(d.seenSize, len(sh))
	for _, g := range sh {
		if _, ok := d.first[g]; !ok {
			d.first[g] = id
		} else {
			d.more[g] = append(d.more[g], id)
		}
	}
	return s
}

// plantedDocs returns n random documents over a small vocabulary, about a
// third of them near-duplicates (a few words swapped) of an earlier one and
// some carrying a copy indicator.
func plantedDocs(rng *rand.Rand, n int) []string {
	vocab := strings.Fields(`market stock bank rate game team coach score
		paint canvas gallery code server cloud goal player fund price`)
	docs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var words []string
		if i > 0 && rng.Intn(3) == 0 {
			words = strings.Fields(docs[rng.Intn(len(docs))])
			for k := rng.Intn(4); k > 0; k-- {
				words[rng.Intn(len(words))] = vocab[rng.Intn(len(vocab))]
			}
		} else {
			words = make([]string, 3+rng.Intn(30))
			for j := range words {
				words[j] = vocab[rng.Intn(len(vocab))]
			}
		}
		if rng.Intn(10) == 0 {
			words = append(words, "reposted", "from")
		}
		docs = append(docs, strings.Join(words, " "))
	}
	return docs
}

// TestFusedIndexMatchesTwoPass: the fused, single-lookup index scores
// every document exactly as the two-pass oracle does — fresh, after Reset,
// and pre-sized with Grow — and its serialized form (Shingles, Indicator,
// RestorePrepared + Observe) rebuilds a detector that keeps scoring the
// same.
func TestFusedIndexMatchesTwoPass(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 20; round++ {
		docs := plantedDocs(rng, 50+rng.Intn(200))
		prep := make([]Prepared, len(docs))
		want := make([]float64, len(docs))
		oracle := newTwoPass()
		fused := New()
		copies := 0
		for i, doc := range docs {
			prep[i] = fused.Prepare(doc)
			want[i] = oracle.score(prep[i])
			if want[i] <= maxCopyScore {
				copies++
			}
		}
		if copies == 0 {
			t.Fatalf("round %d: no duplicates planted", round)
		}

		check := func(name string, d *Detector, from int) {
			t.Helper()
			for i := from; i < len(docs); i++ {
				if got := d.ScorePrepared(prep[i]); got != want[i] {
					t.Fatalf("round %d %s: doc %d scored %v, want %v", round, name, i, got, want[i])
				}
			}
			if d.SeenCount() != len(docs) {
				t.Fatalf("round %d %s: SeenCount %d, want %d", round, name, d.SeenCount(), len(docs))
			}
		}
		check("fresh", fused, 0)

		fused.Reset()
		if fused.SeenCount() != 0 {
			t.Fatalf("round %d: SeenCount %d after Reset", round, fused.SeenCount())
		}
		check("reset", fused, 0)

		grown := New()
		total := 0
		for _, p := range prep {
			total += p.ShingleCount()
		}
		grown.Grow(len(prep), total)
		check("grow", grown, 0)

		// Persist a prefix, restore it into a fresh (grown) detector, and
		// keep scoring the tail.
		cut := rng.Intn(len(docs))
		restored := New()
		restored.Grow(cut, total)
		for _, p := range prep[:cut] {
			restored.Observe(RestorePrepared(p.Shingles(), p.Indicator()))
		}
		check("restored", restored, cut)
	}
}

// TestShingleIndexMatchesMap drives the flat index through growth,
// wrap-around probing and adversarial keys (zero, all-ones, equal high or
// low words) and checks every lookup against a Go map.
func TestShingleIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var x shingleIndex
	want := map[uint64]int32{}
	keys := []uint64{0, ^uint64(0), 1 << 32, 1, 0xFFFFFFFF, 0xFFFFFFFF00000000}
	for i := 0; i < 20000; i++ {
		keys = append(keys, rng.Uint64(), uint64(i)<<32, uint64(i))
	}
	for i, g := range keys {
		x.reserve(1)
		s := x.find(g)
		if _, dup := want[g]; dup != (s.ref != 0) {
			t.Fatalf("key %#x: present=%v, map says %v", g, s.ref != 0, dup)
		}
		if s.ref == 0 {
			*s = indexSlot{lo: uint32(g), hi: uint32(g >> 32), ref: int32(i) + 1}
			x.n++
			want[g] = int32(i) + 1
		}
		if overLoaded(x.n, len(x.slots)) {
			t.Fatalf("load bound broken: %d keys in %d slots", x.n, len(x.slots))
		}
	}
	if x.n != len(want) {
		t.Fatalf("%d keys indexed, want %d", x.n, len(want))
	}
	for g, ref := range want {
		if s := x.find(g); s.ref != ref {
			t.Fatalf("key %#x: ref %d, want %d", g, s.ref, ref)
		}
	}
}
