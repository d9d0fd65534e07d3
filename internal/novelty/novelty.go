// Package novelty implements the post-quality novelty factor of MASS.
// Per the paper §II: "We collect a set of words indicating that an article
// is a copy of other sources, and set Novelty to a value between 0 and 0.1
// if the article contains such words, and otherwise we consider the article
// original and set its Novelty to 1."
//
// Two detectors are provided. The indicator detector is the paper's exact
// mechanism (copy-phrase matching). The shingle detector extends it with
// near-duplicate detection against previously seen posts — the [2] citation
// (Song et al.) observes that "reproduced content usually brings little
// influence", and a verbatim copy without a credit line should be caught
// too.
package novelty

import (
	"slices"

	"mass/internal/textutil"
)

// CopyScore is the novelty value assigned to detected copies. The paper
// allows "a value between 0 and 0.1"; we grade within that band by how many
// indicators matched (more indicators → closer to 0).
const (
	maxCopyScore = 0.1
	// OriginalScore is the novelty of an original article.
	OriginalScore = 1.0
)

// Detector scores post novelty. The zero value is unusable; call New.
type Detector struct {
	indicators *indicatorSet
	// shingleK is the shingle size for near-duplicate detection.
	shingleK int
	// dupThreshold is the Jaccard similarity above which a post counts as
	// a near-duplicate of an earlier one.
	dupThreshold float64
	// The inverted index maps each shingle hash to the documents containing
	// it, so a new document is compared only against documents it actually
	// shares shingles with (the naive all-pairs scan is quadratic in corpus
	// size and dominated analysis wall time on large corpora). Shingles are
	// 64-bit hashes, never strings: integer keys keep the index compact and
	// cheap to rebuild when a durable snapshot is restored. Most shingles
	// occur in exactly one document, so the index stores that posting
	// inline and only a repeat shingle points at a posting list in lists
	// (see shingleIndex). One lookup then serves both the overlap count and
	// the insertion of the new document.
	index    shingleIndex
	lists    [][]int32
	seenSize []int // shingle-set size per seen document

	// ScorePrepared's overlap counter, reused across documents: shared[doc]
	// is how many shingles the document being scored shares with seen
	// document doc, and touched lists the non-zero slots so resetting
	// costs O(candidates), not O(seen documents).
	shared  []int32
	touched []int32
}

// New returns a detector using the standard copy-indicator lexicon,
// 4-token shingles and a 0.7 Jaccard duplicate threshold.
func New() *Detector {
	return &Detector{
		indicators:   copyIndicators,
		shingleK:     4,
		dupThreshold: 0.7,
	}
}

// IndicatorScore applies the paper's rule: if the text contains any copy
// indicator, the score is in (0, 0.1], scaled down by the number of
// distinct indicators present; otherwise 1.
func (d *Detector) IndicatorScore(text string) float64 {
	hits := d.indicators.hits(text)
	if hits == 0 {
		return OriginalScore
	}
	// 1 hit → 0.1, 2 hits → 0.05, 3 → 0.0333..., asymptotically → 0.
	return maxCopyScore / float64(hits)
}

// Score combines the indicator rule with near-duplicate detection against
// all texts previously scored by this detector (in call order). A
// near-duplicate of an earlier post is capped at maxCopyScore even without
// credit phrases. Scoring order matters: the first occurrence of content is
// original, later copies are not — callers should score posts in
// chronological order.
//
// Duplicate lookup goes through an inverted shingle index: only documents
// sharing at least one shingle are candidates, and the exact Jaccard
// similarity is computed from shared-shingle counts, so scoring a corpus
// costs O(total shingle occurrences) rather than O(posts²).
func (d *Detector) Score(text string) float64 {
	return d.ScorePrepared(d.Prepare(text))
}

// Prepared is a document preprocessed for duplicate detection. Prepare is
// pure and safe to call concurrently; ScorePrepared consumes the results
// serially in chronological order. The split exists because shingling
// dominates analysis cost and parallelizes, while the seen-index update
// is inherently ordered.
type Prepared struct {
	// shingles is the deduplicated, sorted hash set of the document's
	// k-gram shingles (see textutil.ShingleHashes). A slice, not a map:
	// scoring only ever iterates it, and restoring a persisted document
	// is then a flat copy.
	shingles  []uint64
	indicator float64
}

// Prepare tokenizes a document into shingle hashes and applies the
// indicator rule. Safe for concurrent use.
func (d *Detector) Prepare(text string) Prepared {
	return Prepared{
		shingles:  textutil.ShingleHashes(text, d.shingleK),
		indicator: d.IndicatorScore(text),
	}
}

// ScorePrepared is Score over a Prepare result. Not safe for concurrent
// use: it mutates the seen-document index.
func (d *Detector) ScorePrepared(p Prepared) float64 {
	s := p.indicator
	sh := p.shingles
	d.observe(sh, true)
	for _, doc := range d.touched {
		inter := int(d.shared[doc])
		d.shared[doc] = 0
		union := len(sh) + d.seenSize[doc] - inter
		if union > 0 && float64(inter)/float64(union) >= d.dupThreshold && s > maxCopyScore {
			s = maxCopyScore
		}
	}
	d.touched = d.touched[:0]
	return s
}

// observe gives the next document id to the shingle set sh and files it in
// the inverted index. With count set it also tallies, in the same lookup
// per shingle, how many shingles sh shares with each earlier document
// (into shared/touched). A document never counts its own postings, even
// if a restored shingle set repeats a hash.
func (d *Detector) observe(sh []uint64, count bool) {
	id := int32(len(d.seenSize))
	d.shared = append(d.shared, 0)
	d.index.reserve(len(sh))
	for _, g := range sh {
		slot := d.index.find(g)
		switch ref := slot.ref; {
		case ref == 0:
			*slot = indexSlot{lo: uint32(g), hi: uint32(g >> 32), ref: id + 1}
			d.index.n++
		case ref > 0:
			if count {
				d.tally(ref-1, id)
			}
			slot.ref = -int32(len(d.lists)) - 1
			d.lists = append(d.lists, []int32{ref - 1, id})
		default:
			l := &d.lists[-ref-1]
			if count {
				for _, doc := range *l {
					d.tally(doc, id)
				}
			}
			*l = append(*l, id)
		}
	}
	d.seenSize = append(d.seenSize, len(sh))
}

// tally counts one shingle shared between document self and doc.
func (d *Detector) tally(doc, self int32) {
	if doc == self {
		return
	}
	if d.shared[doc] == 0 {
		d.touched = append(d.touched, doc)
	}
	d.shared[doc]++
}

// Grow pre-sizes the detector for about docs more documents holding about
// shingles shingles in total, so a bulk pass (a cold analysis, or
// RestoreCache replaying a checkpoint) does not pay for repeated index
// growth and rehashing.
func (d *Detector) Grow(docs, shingles int) {
	if shingles > 0 {
		d.index.reserve(shingles)
	}
	if docs > 0 {
		d.seenSize = slices.Grow(d.seenSize, docs)
		d.shared = slices.Grow(d.shared, docs)
	}
}

// Reset clears the seen-post memory (the indicator lexicon is kept).
func (d *Detector) Reset() {
	d.index = shingleIndex{}
	d.lists = nil
	d.seenSize = nil
	d.shared = nil
	d.touched = nil
}

// SeenCount reports how many texts have been scored since the last Reset.
func (d *Detector) SeenCount() int { return len(d.seenSize) }
