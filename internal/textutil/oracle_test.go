package textutil

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"unicode"
)

// The reference implementations below are the tokenizer kernel as it was
// before the pooled single-buffer scanner: one strings.Builder string per
// token, and WordCount, Terms and ShingleHashes each re-tokenizing from
// scratch. They are kept only as differential oracles.

func tokenizeOracle(text string) []string {
	tokens := make([]string, 0, len(text)/6)
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := strings.Trim(b.String(), "'")
		if tok != "" {
			tokens = append(tokens, tok)
		}
		b.Reset()
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		case r == '\'':
			b.WriteRune(r)
		default:
			flush()
		}
	}
	flush()
	return tokens
}

func wordCountOracle(text string) int { return len(tokenizeOracle(text)) }

// RemoveStopwords returns the tokens that are not stopwords, preserving
// order. The input slice is not modified.
func RemoveStopwords(tokens []string) []string {
	out := make([]string, 0, len(tokens))
	for _, t := range tokens {
		if !IsStopword(t) {
			out = append(out, t)
		}
	}
	return out
}

func termsOracle(text string) []string {
	toks := RemoveStopwords(tokenizeOracle(text))
	for i, t := range toks {
		toks[i] = Stem(t)
	}
	return toks
}

func shingleHashesOracle(text string, k int) []uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	toks := tokenizeOracle(text)
	if k <= 0 || len(toks) < k {
		return nil
	}
	out := make([]uint64, 0, len(toks)-k+1)
	for i := 0; i+k <= len(toks); i++ {
		h := uint64(offset64)
		for j := i; j < i+k; j++ {
			if j > i {
				h ^= ' '
				h *= prime64
			}
			for m := 0; m < len(toks[j]); m++ {
				h ^= uint64(toks[j][m])
				h *= prime64
			}
		}
		out = append(out, h)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	dst := out[:0]
	var last uint64
	for i, h := range out {
		if i == 0 || h != last {
			dst = append(dst, h)
			last = h
		}
	}
	return dst
}

// kernelSeeds covers the tokenizer's edge cases: apostrophe runs at token
// edges and inside tokens, non-ASCII case mappings whose lowercase differs
// in byte length (İ, Ⱥ, K) or has no single-rune lowercase (ß, ǅ),
// invalid UTF-8, stopwords and every stemmer suffix.
var kernelSeeds = []string{
	"",
	"'",
	"''quoted'' don't ''' rock'n'roll '' 'a' a'' ''b",
	"The players were running to the stadium",
	"İstanbul İİ ǅemal ǄǅǆA Straße STRASSE ß Ⱥȿ KELVIN K",
	"café ÜBER über naïve 東京 タワー ٣٤ Ⅻ",
	"bad \xff\xfe utf8 \xe2\x82 tail\xc3",
	"\xef\xbf\xbd replacement a\xed\xa0\x80b",
	"cities classes running played edly boxedly bus dogs ss us ies sses",
	"the the the a an and of of",
	"one two three four five six one two three four five six",
	"\t\n tabs\r\nand nbsp em",
	"123 4.5 6,7 x1y2 ½ ²",
}

func checkKernel(t *testing.T, text string) {
	t.Helper()
	if got, want := Tokenize(text), tokenizeOracle(text); !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize(%q) = %q, want %q", text, got, want)
	}
	if got, want := WordCount(text), wordCountOracle(text); got != want {
		t.Fatalf("WordCount(%q) = %d, want %d", text, got, want)
	}
	if got, want := Terms(text), termsOracle(text); !reflect.DeepEqual(got, want) {
		t.Fatalf("Terms(%q) = %q, want %q", text, got, want)
	}
	for k := 0; k <= 4; k++ {
		if got, want := ShingleHashes(text, k), shingleHashesOracle(text, k); !reflect.DeepEqual(got, want) {
			t.Fatalf("ShingleHashes(%q, %d) = %v, want %v", text, k, got, want)
		}
	}
}

func TestKernelMatchesOracle(t *testing.T) {
	for _, s := range kernelSeeds {
		checkKernel(t, s)
	}
}

// FuzzTokenize checks the pooled scanner kernel (Tokenize, WordCount,
// Terms, ShingleHashes) against the per-token-string reference chain.
func FuzzTokenize(f *testing.F) {
	for _, s := range kernelSeeds {
		f.Add(s)
	}
	f.Fuzz(checkKernel)
}

func TestKernelAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under the race detector")
	}
	// Includes a token longer than the compiler's 32-byte stack buffer for
	// string conversions, so a per-token copy would show up here.
	text := strings.Repeat("The quick brown foxes were jumping over lazy dogs' backs, pneumonoultramicroscopicsilicovolcanoconioses. ", 40)
	Tokenize(text) // warm the buffer pool
	if n := testing.AllocsPerRun(20, func() { WordCount(text) }); n != 0 {
		t.Errorf("WordCount allocates %.0f times per call, want 0", n)
	}
	// One backing string plus the token slice.
	if n := testing.AllocsPerRun(20, func() { Tokenize(text) }); n > 2 {
		t.Errorf("Tokenize allocates %.0f times per call, want <= 2", n)
	}
	if n := testing.AllocsPerRun(20, func() { Terms(text) }); n > 2 {
		t.Errorf("Terms allocates %.0f times per call, want <= 2", n)
	}
	// Only the returned hash slice.
	if n := testing.AllocsPerRun(20, func() { ShingleHashes(text, 4) }); n > 1 {
		t.Errorf("ShingleHashes allocates %.0f times per call, want <= 1", n)
	}
}
