package main

import "time"

// deck is one application input the launch phase runs: every slice
// builds a fresh simulation of it and advances exactly Steps timesteps,
// so launch counts repeat exactly from slice to slice and run to run.
type deck struct {
	App     string
	Problem string
	Size    int
	Steps   int
}

// workload is one set of inputs. Every run drives all three paths
// (launch, request, loop) and so reports every metric; a workload fixes,
// per path, the input property that decides whether Apollo's own
// mechanism carries the cost or is bypassed.
type workload struct {
	Name string
	Why  string
	// Decks are the three hydro inputs of the launch phase (ISSUE's
	// launch-small / launch-large).
	Decks []deck
	// HotShare is the share of single-vector predicts drawn from the
	// 256-vector hot set; the rest never repeat, so they miss the
	// service's decision memo.
	HotShare float64
	// WindowRows is the spool fill and the trainer's window.
	WindowRows int
	// CycleSeconds is what one loop cycle on that window takes on the
	// reference container. The loop phase runs budget/CycleSeconds cycles
	// rather than stopping on the clock: the cursor re-reads the whole
	// spool on every poll, so a cycle's cost grows with the cycles before
	// it, and only a fixed count makes two runs do the same work.
	CycleSeconds float64
}

// Step counts are sized on the 2-core reference container so one bare
// slice takes ~0.1 s; they are constants so launch counts repeat.
var workloads = []workload{
	{
		Name: "small-hot",
		Why:  "kernels of 3-40 us, memo-hit predicts, 20k-row window: Apollo's per-operation cost is the largest share on every path",
		Decks: []deck{
			{App: "LULESH", Problem: "sedov", Size: 8, Steps: 450},
			{App: "CleverLeaf", Problem: "triple_pt", Size: 16, Steps: 40},
			{App: "ARES", Problem: "hotspot", Size: 16, Steps: 30},
		},
		HotShare:     0.75,
		WindowRows:   20000,
		CycleSeconds: 0.19,
	},
	{
		Name: "large-cold",
		Why:  "kernels of 0.1-1 ms, never-repeating predicts that bypass the memo, 100k-row window: bulk work dominates and Apollo's mechanism should be invisible",
		Decks: []deck{
			{App: "LULESH", Problem: "sedov", Size: 64, Steps: 2},
			{App: "CleverLeaf", Problem: "sod", Size: 256, Steps: 1},
			{App: "ARES", Problem: "sedov", Size: 128, Steps: 4},
		},
		HotShare:     0,
		WindowRows:   100000,
		CycleSeconds: 0.57,
	},
}

// smokeWorkload is the tiny input `-smoke` and the package test run: it
// exercises every code path and oracle, and measures nothing usable.
var smokeWorkload = workload{
	Name: "smoke",
	Why:  "tiny decks and sub-second phases for the package test",
	Decks: []deck{
		{App: "LULESH", Problem: "sedov", Size: 8, Steps: 20},
		{App: "CleverLeaf", Problem: "triple_pt", Size: 16, Steps: 2},
		{App: "ARES", Problem: "hotspot", Size: 16, Steps: 3},
	},
	HotShare:     0.75,
	WindowRows:   4000,
	CycleSeconds: 0.08,
}

func workloadByName(name string) (workload, bool) {
	if name == smokeWorkload.Name {
		return smokeWorkload, true
	}
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Open-loop schedule of the request phase (requests per second). The
// rates are the same on every workload; only the vector mix differs.
const (
	predictRate = 3000        // single-vector POST /predict
	batchRate   = 150         // batch-64 POST /predict
	ingestRate  = 40          // POST /telemetry of ingestRows rows
	getRate     = 50          // conditional GET /models/{name}, answered 304
	noopRate    = 300         // GET /healthz
	refRate     = 100         // reference decodes, done by the load workers between requests
	putEvery    = time.Second // ISSUE's one every 2 s would fit a child's phase A once

	batchSize  = 64
	ingestRows = 256
	refRows    = 16 // rows of the body the predict reference decodes (about the time of one predict)
	hotSetSize = 256
	freshRows  = 2000 // rows posted per loop cycle, ingestRows a batch: 8 batches
)

// Shares of --seconds given to each phase of an untraced run.
const (
	launchShare = 0.36
	openShare   = 0.18 // request phase A, open loop
	closedShare = 0.09 // request phases B and C, each
	loopShare   = 0.28
)
