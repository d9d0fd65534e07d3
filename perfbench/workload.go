package main

import (
	"fmt"
	"strconv"
	"time"
)

// Corpus shape: the scale of the MASS paper's crawl (~3000 bloggers,
// ~40k posts). The synth generator is seeded with the run's --seed.
const (
	corpusBloggers = 3000
	corpusPosts    = 40000
)

// readP99LimitMs is the latency limit the read ladder is judged against:
// a ladder rate is sustained when the interactive p99 at that rate stays
// within it and the generator's backlog does not grow.
const readP99LimitMs = 50.0

// lateBound is how far behind schedule the generator may fall (p99 of send
// time minus due time, nominal phases) before a run is declared invalid.
const lateBound = 2 * time.Second

// ladderSamples is the number of requests in each read-ladder step, so
// each step's p99 rests on 10 samples beyond it.
const ladderSamples = 1000

// restartCycles is how many kill -9 / recover cycles a durable workload
// runs after the drain; restart_s is their median.
const restartCycles = 2

// workload is one traffic mix against one server deployment.
type workload struct {
	name string

	// Server deployment.
	shards        int
	durable       bool // -data-dir in a temp directory; kill -9 cycles after the drain
	flushEvery    int
	flushInterval time.Duration

	// Main connection, open loop.
	readRate  float64   // interactive requests/s at the nominal rate
	ladder    []float64 // read-capacity ladder rates after the nominal phase
	writeRate float64   // ingest writes/s
	pollEvery time.Duration

	// Second connection.
	dashboard bool // closed-loop dashboard client
	subscribe bool // standing subscriptions + one SSE stream
}

var workloads = []*workload{
	{
		name:   "read-steady",
		shards: 1, flushEvery: 64, flushInterval: 2 * time.Second,
		readRate: 250, ladder: []float64{600, 1200, 2400},
		dashboard: true,
	},
	{
		name:   "ingest-live",
		shards: 1, durable: true, flushEvery: 16, flushInterval: 100 * time.Millisecond,
		readRate: 130, writeRate: 25, pollEvery: 200 * time.Millisecond,
		subscribe: true,
	},
	{
		name:   "sharded-4",
		shards: 4, flushEvery: 64, flushInterval: time.Second,
		readRate: 130, writeRate: 25, pollEvery: 200 * time.Millisecond,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// serverArgs are the mass-server flags for this workload.
func (w *workload) serverArgs(corpus, addr, dataDir string) []string {
	args := []string{"-addr", addr, "-quiet", "-rate-limit", "0",
		"-shards", strconv.Itoa(w.shards),
		"-flush-every", strconv.Itoa(w.flushEvery),
		"-flush-interval", w.flushInterval.String()}
	if corpus != "" {
		args = append(args, "-corpus", corpus)
	}
	if dataDir != "" {
		args = append(args, "-data-dir", dataDir)
	}
	return args
}
