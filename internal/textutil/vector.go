package textutil

import (
	"math"
	"sort"
)

// TermVector is a sparse term-frequency vector over stemmed terms.
type TermVector map[string]float64

// NewTermVector builds a term-frequency vector from raw text using the
// standard analyzer chain (Terms: tokenize, drop stopwords, stem).
func NewTermVector(text string) TermVector {
	v := TermVector{}
	for _, t := range Terms(text) {
		v[t]++
	}
	return v
}

// Add accumulates other into v with the given weight.
func (v TermVector) Add(other TermVector, weight float64) {
	for t, c := range other {
		v[t] += c * weight
	}
}

// Dot returns the inner product of two sparse vectors.
func (v TermVector) Dot(other TermVector) float64 {
	// Iterate the smaller map for speed.
	a, b := v, other
	if len(b) < len(a) {
		a, b = b, a
	}
	var s float64
	for t, c := range a {
		if d, ok := b[t]; ok {
			s += c * d
		}
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v TermVector) Norm() float64 {
	var s float64
	for _, c := range v {
		s += c * c
	}
	return math.Sqrt(s)
}

// Cosine returns the cosine similarity between v and other, or 0 when
// either vector is empty.
func (v TermVector) Cosine(other TermVector) float64 {
	nv, no := v.Norm(), other.Norm()
	if nv == 0 || no == 0 {
		return 0
	}
	return v.Dot(other) / (nv * no)
}

// TopTerms returns the n highest-weight terms in descending weight order,
// with ties broken alphabetically so results are deterministic.
func (v TermVector) TopTerms(n int) []string {
	type tw struct {
		t string
		w float64
	}
	all := make([]tw, 0, len(v))
	for t, w := range v {
		all = append(all, tw{t, w})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		return all[i].t < all[j].t
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].t
	}
	return out
}

// Shingles returns the set of k-gram token shingles of text, joined with a
// single space. Shingling is the basis of the near-duplicate (carbon-copy)
// detector in the novelty analyzer.
func Shingles(text string, k int) map[string]struct{} {
	toks := Tokenize(text)
	set := map[string]struct{}{}
	if k <= 0 || len(toks) < k {
		return set
	}
	for i := 0; i+k <= len(toks); i++ {
		key := toks[i]
		for j := i + 1; j < i+k; j++ {
			key += " " + toks[j]
		}
		set[key] = struct{}{}
	}
	return set
}

// Jaccard returns the Jaccard similarity |a∩b| / |a∪b| of two shingle sets,
// and 0 when both are empty.
func Jaccard(a, b map[string]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(large) < len(small) {
		small, large = large, small
	}
	inter := 0
	for s := range small {
		if _, ok := large[s]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}
