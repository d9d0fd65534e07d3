package novelty

import (
	"math/bits"
	"strings"
	"unicode/utf8"

	"mass/internal/lexicon"
)

// copyIndicators is the matcher for the standard copy-indicator lexicon.
var copyIndicators = newIndicatorSet(lexicon.CopyIndicators())

// indicatorSet counts which of up to 64 lowercase ASCII phrases occur in
// a text, case-insensitively, in one pass. At each byte it verifies only
// the phrases not yet found whose first two letters match the two bytes
// there, looked up by pairKey.
type indicatorSet struct {
	phrases []string
	byPair  [1 << 10]uint64 // bit k: phrase k's first two bytes have this pairKey
}

// pairKey folds two bytes into 10 bits. ASCII letters keep their
// case-insensitive identity (c&31); other bytes may collide, which only
// costs a failed verification.
func pairKey(c0, c1 byte) int { return int(c0&31) | int(c1&31)<<5 }

func newIndicatorSet(phrases []string) *indicatorSet {
	if len(phrases) > 64 {
		panic("novelty: more than 64 copy indicators")
	}
	m := &indicatorSet{phrases: phrases}
	for k, p := range phrases {
		if len(p) < 2 || strings.IndexFunc(p, func(r rune) bool { return r >= utf8.RuneSelf || 'A' <= r && r <= 'Z' }) >= 0 {
			panic("novelty: copy indicator " + p + " is not lowercase ASCII of two or more bytes")
		}
		m.byPair[pairKey(p[0], p[1])] |= 1 << k
	}
	return m
}

// hits returns how many distinct phrases occur in strings.ToLower(text).
// ASCII text is matched in place; any other text is lowered first,
// because runes such as U+212A (Kelvin sign) lower to ASCII letters.
func (m *indicatorSet) hits(text string) int {
	if n, ok := m.count(text, true); ok {
		return n
	}
	n, _ := m.count(strings.ToLower(text), false)
	return n
}

// count matches the phrases against text, folding ASCII case. With
// asciiOnly it gives up (ok false) at the first non-ASCII byte.
func (m *indicatorSet) count(text string, asciiOnly bool) (n int, ok bool) {
	var found uint64
	for i := 0; i < len(text); i++ {
		if text[i] >= utf8.RuneSelf && asciiOnly {
			return 0, false
		}
		if i+1 == len(text) {
			break
		}
		for cand := m.byPair[pairKey(text[i], text[i+1])] &^ found; cand != 0; cand &= cand - 1 {
			k := bits.TrailingZeros64(cand)
			if hasFoldPrefix(text[i:], m.phrases[k]) {
				found |= 1 << k
			}
		}
	}
	return bits.OnesCount64(found), true
}

// hasFoldPrefix reports whether s starts with the lowercase ASCII phrase
// p, ignoring the case of ASCII letters in s.
func hasFoldPrefix(s, p string) bool {
	if len(s) < len(p) {
		return false
	}
	for j := 0; j < len(p); j++ {
		c := s[j]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != p[j] {
			return false
		}
	}
	return true
}
