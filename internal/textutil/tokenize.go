// Package textutil provides the text-processing substrate used throughout
// MASS: tokenization, stopword filtering, a light suffix stemmer, shingling
// for near-duplicate detection, and sparse term-frequency vectors.
//
// All functions are deterministic and allocation-conscious; they operate on
// plain strings so that higher layers (classification, sentiment, novelty)
// stay independent of any particular corpus representation.
package textutil

import (
	"slices"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// tokenBuf is the scratch space of one tokenizer pass: buf holds the
// lowered tokens back to back with nothing between them, and ends[i] is
// the end offset of token i in buf (token i starts at ends[i-1], or 0).
// Buffers are pooled, so a pass allocates nothing once the pool is warm;
// callers that hand tokens out copy buf exactly once.
type tokenBuf struct {
	buf  []byte
	ends []int
}

var tokenBufs = sync.Pool{New: func() any { return new(tokenBuf) }}

// scan tokenizes text into t. A token is a maximal run of letters, digits
// or apostrophes, lowered, with apostrophes trimmed from both edges. With
// terms set each token also runs the classifier chain: stopwords are
// dropped and the survivors stemmed in place.
func (t *tokenBuf) scan(text string, terms bool) {
	t.buf, t.ends = t.buf[:0], t.ends[:0]
	start := 0 // offset of the current token in buf
	for i := 0; i < len(text); {
		if c := text[i]; c < utf8.RuneSelf {
			i++
			switch {
			case 'a' <= c && c <= 'z' || '0' <= c && c <= '9':
				t.buf = append(t.buf, c)
			case 'A' <= c && c <= 'Z':
				t.buf = append(t.buf, c+'a'-'A')
			case c == '\'':
				// Leading apostrophes are trimmed, so they are never
				// written; inner and trailing ones are (end trims the
				// trailing run).
				if len(t.buf) > start {
					t.buf = append(t.buf, c)
				}
			default:
				t.end(start, terms)
				start = len(t.buf)
			}
			continue
		}
		// Invalid UTF-8 decodes to U+FFFD, which is neither a letter nor
		// a digit: a separator, exactly as ranging over the string does.
		r, size := utf8.DecodeRuneInString(text[i:])
		i += size
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			t.buf = utf8.AppendRune(t.buf, unicode.ToLower(r))
		} else {
			t.end(start, terms)
			start = len(t.buf)
		}
	}
	t.end(start, terms)
}

// end closes the token that starts at buf[start]: trailing apostrophes are
// trimmed and, in terms mode, a stopword is discarded and anything else
// stemmed. A kept token's end offset is recorded.
func (t *tokenBuf) end(start int, terms bool) {
	n := len(t.buf)
	for n > start && t.buf[n-1] == '\'' {
		n--
	}
	if n > start && terms {
		tok := t.buf[start:n]
		if _, stop := stopwords[string(tok)]; stop {
			n = start
		} else {
			keep, y := stemCut(tok)
			if y {
				t.buf[start+keep] = 'y'
				keep++
			}
			n = start + keep
		}
	}
	t.buf = t.buf[:n]
	if n > start {
		t.ends = append(t.ends, n)
	}
}

// strings returns the scanned tokens as substrings of one exact-size copy
// of buf: one allocation for the bytes and one for the slice, however many
// tokens there are.
func (t *tokenBuf) strings() []string {
	s := string(t.buf)
	out := make([]string, len(t.ends))
	prev := 0
	for i, e := range t.ends {
		out[i] = s[prev:e]
		prev = e
	}
	return out
}

// Tokenize splits text into lowercase word tokens. A token is a maximal run
// of letters, digits, or apostrophes; apostrophes are stripped from the
// edges so "don't" stays one token while quoting does not leak in.
func Tokenize(text string) []string {
	t := tokenBufs.Get().(*tokenBuf)
	t.scan(text, false)
	out := t.strings()
	tokenBufs.Put(t)
	return out
}

// WordCount returns the number of word tokens in text. The paper measures
// post quality by length; length is defined as the token count. It counts
// the tokens Tokenize would return without building them: a run of
// letters, digits and apostrophes is a token exactly when it holds a
// letter or digit.
func WordCount(text string) int {
	n := 0
	inWord := false // the current run holds a letter or digit
	for i := 0; i < len(text); {
		var word bool
		if c := text[i]; c < utf8.RuneSelf {
			i++
			if c == '\'' {
				continue // extends the run without making it a word
			}
			word = 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
		} else {
			r, size := utf8.DecodeRuneInString(text[i:])
			i += size
			word = unicode.IsLetter(r) || unicode.IsDigit(r)
		}
		if word && !inWord {
			n++
		}
		inWord = word
	}
	return n
}

// stopwords is the standard English function-word list used by the analyzer.
// Kept small on purpose: MASS only needs it to de-noise classification and
// novelty features, not for retrieval-grade processing.
var stopwords = map[string]struct{}{}

func init() {
	for _, w := range strings.Fields(`a an and are as at be but by for from
		has have he her hers him his i if in into is it its me my not of on
		or our ours she so that the their them then there these they this to
		us was we were what when where which who will with you your yours
		am been being did do does doing had having how than too very can
		just also about after before between both each few more most other
		some such only own same s t don should now`) {
		stopwords[w] = struct{}{}
	}
}

// IsStopword reports whether tok is an English function word.
func IsStopword(tok string) bool {
	_, ok := stopwords[tok]
	return ok
}

// Stem applies a light suffix stemmer (a simplified Porter step-1): plural
// and participle endings are removed when the remaining stem stays at least
// three characters. It deliberately under-stems rather than over-stems so
// domain vocabulary words remain distinguishable.
func Stem(tok string) string {
	keep, y := stemCut(tok)
	if y {
		return tok[:keep] + "y"
	}
	return tok[:keep]
}

// stemCut is Stem's rule table: the stem is tok[:keep], followed by a 'y'
// when y is set ("cities" → "cit"+"y"). It takes bytes too, so the Terms
// chain stems in place inside its token buffer without a string copy.
func stemCut[T string | []byte](tok T) (keep int, y bool) {
	n := len(tok)
	switch {
	case n > 4 && hasSuffix(tok, "ies"):
		return n - 3, true
	case n > 4 && hasSuffix(tok, "sses"):
		return n - 2, false
	case n > 4 && hasSuffix(tok, "ing") && hasVowel(tok[:n-3]):
		return n - 3, false
	case n > 4 && hasSuffix(tok, "edly"):
		return n - 4, false
	case n > 3 && hasSuffix(tok, "ed") && hasVowel(tok[:n-2]):
		return n - 2, false
	case n > 3 && hasSuffix(tok, "s") && !hasSuffix(tok, "ss") && !hasSuffix(tok, "us"):
		return n - 1, false
	}
	return n, false
}

func hasSuffix[T string | []byte](s T, suffix string) bool {
	return len(s) >= len(suffix) && string(s[len(s)-len(suffix):]) == suffix
}

func hasVowel[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case 'a', 'e', 'i', 'o', 'u', 'y':
			return true
		}
	}
	return false
}

// Terms is the full analyzer chain used by the classifier: tokenize,
// drop stopwords, stem. The terms share one backing string holding only
// the kept stems.
func Terms(text string) []string {
	t := tokenBufs.Get().(*tokenBuf)
	t.scan(text, true)
	out := t.strings()
	tokenBufs.Put(t)
	return out
}

// ShingleHashes returns the 64-bit FNV-1a hashes of the k-gram token
// shingles of text (tokens joined by a single space), deduplicated and
// sorted ascending. Hashing shingles instead of materializing their strings
// makes the near-duplicate detector's index an integer-keyed table and a
// serialized shingle set a flat 8-byte-per-entry array; a 64-bit hash makes
// cross-shingle collisions (a slightly inflated Jaccard overlap) vanishingly
// rare at realistic corpus sizes. The hash is a fixed function of the text,
// so persisted shingle sets remain comparable across processes. Tokens are
// hashed straight from the pooled scan buffer; the result is the only
// allocation.
func ShingleHashes(text string, k int) []uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	t := tokenBufs.Get().(*tokenBuf)
	defer tokenBufs.Put(t)
	t.scan(text, false)
	n := len(t.ends)
	if k <= 0 || n < k {
		return nil
	}
	out := make([]uint64, 0, n-k+1)
	for i := 0; i+k <= n; i++ {
		h := uint64(offset64)
		for j := i; j < i+k; j++ {
			lo := 0
			if j > 0 {
				lo = t.ends[j-1]
			}
			if j > i {
				h ^= ' '
				h *= prime64
			}
			for _, b := range t.buf[lo:t.ends[j]] {
				h ^= uint64(b)
				h *= prime64
			}
		}
		out = append(out, h)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
