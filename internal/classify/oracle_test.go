package classify_test

import (
	"math"
	"sort"
	"testing"

	"mass/internal/classify"
	"mass/internal/synth"
	"mass/internal/textutil"
)

// mapNB is the naive Bayes model as it was before dense term rows: one
// term → log-probability map per label, and Classify looking every term up
// once per label. Kept only as the equivalence oracle.
type mapNB struct {
	labels     []string
	prior      map[string]float64
	condLog    map[string]map[string]float64
	defaultLog map[string]float64
	bigrams    bool
}

func oracleFeatures(text string, bigrams bool) []string {
	terms := textutil.Terms(text)
	if !bigrams {
		return terms
	}
	out := make([]string, len(terms), 2*len(terms))
	copy(out, terms)
	for i := 1; i < len(terms); i++ {
		out = append(out, terms[i-1]+"_"+terms[i])
	}
	return out
}

func trainMapNB(examples []classify.Example, bigrams bool) *mapNB {
	docCount := map[string]int{}
	termCount := map[string]map[string]float64{}
	totalTerms := map[string]float64{}
	vocab := map[string]struct{}{}
	for _, ex := range examples {
		docCount[ex.Label]++
		if termCount[ex.Label] == nil {
			termCount[ex.Label] = map[string]float64{}
		}
		for _, t := range oracleFeatures(ex.Text, bigrams) {
			termCount[ex.Label][t]++
			totalTerms[ex.Label]++
			vocab[t] = struct{}{}
		}
	}
	nb := &mapNB{
		prior:      map[string]float64{},
		condLog:    map[string]map[string]float64{},
		defaultLog: map[string]float64{},
		bigrams:    bigrams,
	}
	v := float64(len(vocab))
	total := float64(len(examples))
	for label, dc := range docCount {
		nb.labels = append(nb.labels, label)
		nb.prior[label] = math.Log(float64(dc) / total)
		denom := totalTerms[label] + v
		cond := make(map[string]float64, len(termCount[label]))
		for t, c := range termCount[label] {
			cond[t] = math.Log((c + 1) / denom)
		}
		nb.condLog[label] = cond
		nb.defaultLog[label] = math.Log(1 / denom)
	}
	sort.Strings(nb.labels)
	return nb
}

func (nb *mapNB) classify(text string) map[string]float64 {
	terms := oracleFeatures(text, nb.bigrams)
	logp := make([]float64, len(nb.labels))
	for i, label := range nb.labels {
		lp := nb.prior[label]
		cond := nb.condLog[label]
		def := nb.defaultLog[label]
		for _, t := range terms {
			if c, ok := cond[t]; ok {
				lp += c
			} else {
				lp += def
			}
		}
		logp[i] = lp
	}
	maxLog := math.Inf(-1)
	for _, lp := range logp {
		maxLog = math.Max(maxLog, lp)
	}
	out := make(map[string]float64, len(nb.labels))
	var sum float64
	for i, l := range nb.labels {
		e := math.Exp(logp[i] - maxLog)
		out[l] = e
		sum += e
	}
	for l := range out {
		out[l] /= sum
	}
	return out
}

// TestDenseRowsMatchMapOracle: the dense-row classifier returns posteriors
// bit-identical to the per-label map model, over its own training set and
// over synthetic posts, with unigram and with bigram features.
func TestDenseRowsMatchMapOracle(t *testing.T) {
	examples := synth.TrainingExamples(nil, 40, 7)
	c, _, err := synth.Generate(synth.Config{Seed: 3, Bloggers: 40, Posts: 300})
	if err != nil {
		t.Fatal(err)
	}
	texts := []string{"", "the of and", "unseen zyzzyva words only"}
	for _, ex := range examples {
		texts = append(texts, ex.Text)
	}
	for _, pid := range c.PostIDs() {
		texts = append(texts, c.Posts[pid].Title+" "+c.Posts[pid].Body)
	}
	for _, bigrams := range []bool{false, true} {
		train := classify.TrainNaiveBayes
		if bigrams {
			train = classify.TrainNaiveBayesBigrams
		}
		nb, err := train(examples)
		if err != nil {
			t.Fatal(err)
		}
		oracle := trainMapNB(examples, bigrams)
		for _, text := range texts {
			got, want := nb.Classify(text), oracle.classify(text)
			if len(got) != len(want) {
				t.Fatalf("bigrams=%v: %d labels, want %d", bigrams, len(got), len(want))
			}
			for l, w := range want {
				if g, ok := got[l]; !ok || math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("bigrams=%v: P(%s | %.40q) = %v, oracle %v", bigrams, l, text, g, w)
				}
			}
		}
	}
}
