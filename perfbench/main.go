// Command perfbench is the MASS benchmark: it drives a live mass-server
// under one of three seeded workloads and prints what a client sees, or,
// with --trace 1, hosts the same stack in-process and prints per-layer
// timings. See README.md in this directory for the workloads, the metrics
// and what each layer metric should move.
//
//	bash perfbench/run.sh --workload read-steady --seed 1 --seconds 8 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mass/internal/blog"
	"mass/internal/synth"
	"mass/internal/xmlstore"
)

// config is one invocation's arguments.
type config struct {
	root, server string
	w            *workload
	seed         int64
	window       time.Duration
	runDir       string
}

func main() {
	var (
		root     = flag.String("root", ".", "checkout root; all files are written under <root>/.bench_build")
		server   = flag.String("server", "", "mass-server binary built from the checkout (required unless --trace 1)")
		name     = flag.String("workload", "", "read-steady | ingest-live | sharded-4")
		seed     = flag.Int64("seed", 1, "seed of the corpus and the op schedule")
		seconds  = flag.Int("seconds", 8, "length of the measured window")
		traceArg = flag.Int("trace", 0, "1: traced in-process run printing per-layer metrics")
	)
	flag.Parse()
	// The generator never asks for more processors than the machine has.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), runtime.GOMAXPROCS(0)))

	w, err := findWorkload(*name)
	if err == nil && *seconds < 1 {
		err = errors.New("--seconds must be at least 1")
	}
	if err == nil && *traceArg == 0 && *server == "" {
		err = errors.New("--server is required for an untraced run")
	}
	if err != nil {
		fatal(err)
	}
	cfg := &config{root: *root, server: *server, w: w, seed: *seed, window: time.Duration(*seconds) * time.Second}
	cfg.runDir = filepath.Join(*root, ".bench_build", fmt.Sprintf("run-%s-%d-%d", w.name, *seed, os.Getpid()))
	if err := os.MkdirAll(cfg.runDir, 0o755); err != nil {
		fatal(err)
	}
	var rep *report
	if *traceArg == 1 {
		rep, err = runTraced(context.Background(), cfg)
	} else {
		rep, err = runUntraced(context.Background(), cfg)
	}
	// Temp corpora and server data directories go with the run.
	if rerr := os.RemoveAll(cfg.runDir); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fatal(err)
	}
	rep.print()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// genCorpus draws the paper-scale corpus for seed and writes it as XML.
func genCorpus(seed int64, path string) (*blog.Corpus, corpusStats, error) {
	c, _, err := synth.Generate(synth.Config{Seed: seed, Bloggers: corpusBloggers, Posts: corpusPosts})
	if err != nil {
		return nil, corpusStats{}, err
	}
	st := corpusStats{Bloggers: len(c.Bloggers), Posts: len(c.Posts), Links: len(c.Links)}
	for _, p := range c.Posts {
		st.Comments += len(p.Comments)
	}
	return c, st, xmlstore.Save(path, c)
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
	n          int    // samples behind it (0: not a sample statistic)
	json       bool   // part of the final JSON line
	note       string // how it was measured, when not obvious
}

// report collects one run's outcome.
type report struct {
	correct           bool
	attempted, failed int
	gates             []string // failed correctness gates
	metrics           []metric
	notes             []string
}

func (r *report) add(m metric) { r.metrics = append(r.metrics, m) }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// gate records a failed correctness check.
func (r *report) gate(format string, args ...any) {
	r.correct = false
	r.gates = append(r.gates, fmt.Sprintf(format, args...))
}

func (r *report) print() {
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	for _, g := range r.gates {
		fmt.Println("# GATE FAILED:", g)
	}
	for _, m := range r.metrics {
		line := fmt.Sprintf("%-34s %14.6g %-6s", m.name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" n=%d", m.n)
		}
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Println(line)
	}
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, max(r.attempted, 1), r.failed, map[string]val{}}
	for _, m := range r.metrics {
		if m.json {
			v := m.value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				v = 0
			}
			out.Metrics[m.name] = val{v, m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}
