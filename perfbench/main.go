// Command perfbench is the repository benchmark: closed-loop workloads that
// replay a seeded request sequence against the engine, check every answer
// against a reference computed from the base tables, and report end-to-end
// metrics (untraced run) or per-layer metrics (traced run).
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh compare old.jsonl new.jsonl
//
// Every run prints a detailed record line (stamp, workload character,
// failures, metrics) and, as its last line, the result object
// {"correct", "attempted", "failed", "metrics"}. Appending a run's output to
// a file makes a result file for compare.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// sequenceSalt separates the request-sequence seed from the data seed.
const sequenceSalt = 1 << 40

// minSamples is the completed-query count below which p90 has fewer than
// ten samples beyond it.
const minSamples = 100

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

// runConfig is one run's settings.
type runConfig struct {
	seed     int64
	duration time.Duration
	traced   bool
	commit   string
	spansDir string
	// shrink divides every table's row count; the command line always
	// runs at 1, the full size.
	shrink int
}

// record is the detailed result of one run.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Stamp    stamp   `json:"stamp"`
	Clients  int     `json:"clients"`
	// Attempted counts the requests sent in the window; each one is a
	// latency sample.
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	ErrorRate float64                `json:"error_rate"`
	Character character              `json:"character"`
	Failures  []string               `json:"failures,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (serve-warm, adhoc-cold, shard-skew)")
	seed := fs.Int64("seed", 1, "seed of the generated tables and request sequence")
	seconds := fs.Float64("seconds", 30, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced run")
	commit := fs.String("commit", "unknown", "revision recorded in the result stamp")
	spansDir := fs.String("spans-dir", "", "directory the traced run writes its spans to (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --trace 0|1 and --seconds > 0")
		return 2
	}
	cfg := runConfig{seed: *seed, duration: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, commit: *commit, spansDir: *spansDir, shrink: 1}
	rec, err := run(def, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
	}
	if rec.Attempted < minSamples {
		fmt.Fprintf(os.Stderr, "perfbench: only %d queries completed; p90 has fewer than 10 samples beyond it\n", rec.Attempted)
	}
	line, err := json.Marshal(rec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	res := result{Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics}
	if line, err = json.Marshal(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	// A wrong answer is reported by "correct": false and the FAILED lines;
	// the exit code says only whether the benchmark itself ran.
	return 0
}

// maxFailures bounds how many failures a record lists.
const maxFailures = 10

// setups is how many times a run sets its workload up; setup_s is their
// median, which a single noisy set-up cannot move.
const setups = 5

// run sets the workload up setups times (keeping the last), replays its
// sequence for cfg.duration, checks every answer and computes the metrics.
func run(def *workloadDef, cfg runConfig) (*record, error) {
	var e *env
	var times []setupTimes
	for i := 0; i < setups; i++ {
		e = nil // let the previous set-up be collected before the next
		var st setupTimes
		var err error
		if e, st, err = setUp(def, cfg.seed, cfg.shrink, cfg.traced); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", def.name, err)
		}
		times = append(times, st)
	}
	if cfg.traced && def.shards == 0 {
		// Prime the traced path's template map as the warm-up primed the
		// engine's plan cache.
		for _, q := range def.warmup() {
			if smp := e.runTraced(&recorder{}, q); smp.err != nil {
				return nil, fmt.Errorf("%s traced warm-up %q: %w", def.name, q.SQL(), smp.err)
			}
		}
	}
	seq := def.newSequence(cfg.seed + sequenceSalt)
	w := e.runWindow(seq, cfg.duration, cfg.traced)

	ref, err := newReference(e.cat)
	if err != nil {
		return nil, err
	}
	rec := &record{
		Workload: def.name, Seed: cfg.seed, Trace: cfg.traced, Seconds: cfg.duration.Seconds(),
		Stamp: newStamp(cfg.commit), Clients: def.clients,
		Attempted: len(w.samples), Failed: w.check(seq, ref),
		Character: w.character(),
	}
	rec.ErrorRate = ratio(rec.Failed, rec.Attempted)
	for _, s := range w.samples {
		if len(rec.Failures) == maxFailures {
			break
		}
		if s.err != nil {
			rec.Failures = append(rec.Failures, fmt.Sprintf("request %d %q: %v", s.idx, seq.at(s.idx).SQL(), s.err))
		} else if s.mismatch != "" {
			rec.Failures = append(rec.Failures, fmt.Sprintf("request %d %q: %s", s.idx, seq.at(s.idx).SQL(), s.mismatch))
		}
	}
	if rec.Attempted == 0 {
		return nil, fmt.Errorf("%s: no request completed", def.name)
	}

	if cfg.traced {
		fillSelfTimes(w.spans)
		if cfg.spansDir != "" {
			path := filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", def.name, cfg.seed))
			if err := writeSpans(path, w.spans); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
		}
		rec.Metrics = values(perLayer, perLayerValues(&w, times, rec.Character))
		return rec, nil
	}
	e2e := endToEndValues(&w, times)
	// Retained memory is read with only the catalog, the engine and its plan
	// cache alive: the samples are dropped first.
	w.samples = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(e)
	e2e["heap_live_mb"] = float64(ms.HeapAlloc) / 1e6
	rec.Metrics = values(endToEnd, e2e)
	return rec, nil
}
