// Package classify implements the Post Analyzer of MASS: text classifiers
// that estimate iv(b,d,Ct), the probability that a post belongs to each
// interest domain. The paper uses a multinomial naive Bayes classifier [7];
// a TF-IDF nearest-centroid classifier is provided as the pluggable
// alternative the paper mentions ("other interests mining methods can also
// be plugged into our system").
package classify

import (
	"fmt"
	"math"
	"sort"

	"mass/internal/textutil"
)

// Classifier estimates a probability distribution over domain labels for a
// piece of text. Implementations must return a map whose values sum to 1
// (within floating-point error) covering exactly the trained labels.
type Classifier interface {
	// Classify returns the posterior P(label | text) for every label.
	Classify(text string) map[string]float64
	// Labels returns the trained label set in sorted order.
	Labels() []string
}

// Example is one labeled training document.
type Example struct {
	Text  string
	Label string
}

// NaiveBayes is a multinomial naive Bayes text classifier with Laplace
// smoothing, trained over the stemmed-term analyzer chain, optionally
// augmented with bigram features.
type NaiveBayes struct {
	labels []string
	prior  []float64 // log P(label), by label slot
	// rows holds one dense row per vocabulary term: rows[t][i] is
	// log P(t | labels[i]), or defaultLog[i] when label i never saw t.
	// Classify then costs one map lookup per term, not one per
	// (label, term) pair.
	rows       map[string][]float64
	defaultLog []float64 // log prob of an unseen term, by label slot
	vocabSize  int
	bigrams    bool
}

// TrainNaiveBayes fits the classifier on the examples with unigram
// features. It returns an error when there are no examples or an example
// has an empty label.
func TrainNaiveBayes(examples []Example) (*NaiveBayes, error) {
	return trainNB(examples, false)
}

// TrainNaiveBayesBigrams fits the classifier with unigram + bigram
// features. Bigrams capture collocations ("interest rate" vs "interest
// group") at the cost of a larger model; on short posts the gain is
// usually small (see ExperimentClassifier).
func TrainNaiveBayesBigrams(examples []Example) (*NaiveBayes, error) {
	return trainNB(examples, true)
}

func trainNB(examples []Example, bigrams bool) (*NaiveBayes, error) {
	if len(examples) == 0 {
		return nil, fmt.Errorf("classify: no training examples")
	}
	docCount := map[string]int{}
	termCount := map[string]map[string]float64{}
	totalTerms := map[string]float64{}
	vocab := map[string]struct{}{}
	for i, ex := range examples {
		if ex.Label == "" {
			return nil, fmt.Errorf("classify: example %d has empty label", i)
		}
		docCount[ex.Label]++
		if termCount[ex.Label] == nil {
			termCount[ex.Label] = map[string]float64{}
		}
		for _, t := range features(ex.Text, bigrams) {
			termCount[ex.Label][t]++
			totalTerms[ex.Label]++
			vocab[t] = struct{}{}
		}
	}
	labels := make([]string, 0, len(docCount))
	for label := range docCount {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	nb := &NaiveBayes{
		labels:     labels,
		prior:      make([]float64, len(labels)),
		rows:       make(map[string][]float64, len(vocab)),
		defaultLog: make([]float64, len(labels)),
		vocabSize:  len(vocab),
		bigrams:    bigrams,
	}
	v := float64(len(vocab))
	total := float64(len(examples))
	denom := make([]float64, len(labels))
	for i, label := range labels {
		nb.prior[i] = math.Log(float64(docCount[label]) / total)
		denom[i] = totalTerms[label] + v // Laplace smoothing
		nb.defaultLog[i] = math.Log(1 / denom[i])
	}
	for t := range vocab {
		nb.rows[t] = append([]float64(nil), nb.defaultLog...)
	}
	for i, label := range labels {
		for t, c := range termCount[label] {
			nb.rows[t][i] = math.Log((c + 1) / denom[i])
		}
	}
	return nb, nil
}

// Labels returns the trained label set in sorted order.
func (nb *NaiveBayes) Labels() []string { return nb.labels }

// VocabularySize returns the number of distinct terms seen in training.
func (nb *NaiveBayes) VocabularySize() int { return nb.vocabSize }

// Classify returns the posterior distribution over labels. Log-likelihoods
// are converted back to probabilities with the log-sum-exp trick so the
// result is a proper distribution even for long documents.
func (nb *NaiveBayes) Classify(text string) map[string]float64 {
	logp := append([]float64(nil), nb.prior...)
	// Terms outer, labels inner: each label still sums its terms in
	// features order, so the posteriors match a per-label loop bit for bit.
	for _, t := range features(text, nb.bigrams) {
		row := nb.rows[t]
		if row == nil {
			row = nb.defaultLog
		}
		for i, c := range row {
			logp[i] += c
		}
	}
	return softmaxLogs(nb.labels, logp)
}

// features runs the analyzer chain and optionally appends adjacent-term
// bigrams (joined with '_').
func features(text string, bigrams bool) []string {
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

// softmaxLogs converts log-probabilities to a normalized distribution.
func softmaxLogs(labels []string, logp []float64) map[string]float64 {
	maxLog := math.Inf(-1)
	for _, lp := range logp {
		if lp > maxLog {
			maxLog = lp
		}
	}
	out := make(map[string]float64, len(labels))
	var sum float64
	for i := range labels {
		e := math.Exp(logp[i] - maxLog)
		out[labels[i]] = e
		sum += e
	}
	for l := range out {
		out[l] /= sum
	}
	return out
}

// Top returns the label with the highest posterior (ties broken
// alphabetically) and its probability.
func Top(dist map[string]float64) (string, float64) {
	best, bestP := "", math.Inf(-1)
	labels := make([]string, 0, len(dist))
	for l := range dist {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		if dist[l] > bestP {
			best, bestP = l, dist[l]
		}
	}
	if best == "" {
		return "", 0
	}
	return best, bestP
}
