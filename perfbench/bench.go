package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"rankopt/internal/catalog"
	"rankopt/internal/engine"
	"rankopt/internal/exec"
	"rankopt/internal/plan"
)

// env is one set-up workload: the catalog, the engine serving it and, for
// the traced path, a template map keyed by fingerprint that mirrors the
// engine's plan cache.
type env struct {
	def *workloadDef
	cat *catalog.Catalog
	eng *engine.Engine

	mu        sync.Mutex
	templates map[string]*plan.Template
}

// setupTimes is one set-up's timing: the whole of it (setup_s), the table
// load with index builds, and a separate Catalog.Shard call (traced runs).
type setupTimes struct {
	total, load, shard time.Duration
}

// setUp builds the workload from scratch: tables and indexes, the engine
// (which shards the catalog), and the warm-up that primes the plan cache.
// With timeShard set it also times one Catalog.Shard call on its own.
func setUp(def *workloadDef, seed int64, shrink int, timeShard bool) (*env, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	cat := def.load(seed, shrink)
	st.load = time.Since(t0)
	if timeShard && def.shards > 0 {
		t1 := time.Now()
		if _, err := cat.Shard(def.shards); err != nil {
			return nil, st, fmt.Errorf("shard catalog: %w", err)
		}
		st.shard = time.Since(t1)
	}
	e := &env{def: def, cat: cat, templates: map[string]*plan.Template{},
		eng: engine.NewWithConfig(cat, engine.Config{Shards: def.shards})}
	if err := e.eng.ShardError(); err != nil {
		return nil, st, err
	}
	for _, q := range def.warmup() {
		if smp := sampleOf(e.eng.Run(engine.Request{SQL: q.SQL()})); smp.err != nil {
			return nil, st, fmt.Errorf("warm-up %q: %w", q.SQL(), smp.err)
		}
	}
	st.total = time.Since(t0)
	return e, st, nil
}

// sample is one completed request.
type sample struct {
	idx    int
	traced bool
	// viaEngine is set when engine.Run served the request.
	viaEngine bool
	lat       time.Duration
	err       error
	// mismatch describes a wrong answer ("" when it matched the reference).
	mismatch string
	scores   []float64
	fp       string
	hit      bool
	sharded  bool
	// rankedInputs counts the plan's rank-join inputs that must arrive in
	// score order; sortInputs counts those that are Sort enforcers.
	rankedInputs, sortInputs int
	// pulled sums the rank joins' input depths; qerrs holds each rank-join
	// side's depth q-error, max(actual/estimated, estimated/actual).
	pulled int
	qerrs  []float64
	shard  *exec.ShardMergeStats
	// optimized is set when the traced path ran core.Optimize.
	optimized                   bool
	plansGenerated, plansPruned int
}

// sampleOf reads a request's outcome off an engine response.
func sampleOf(resp engine.Response) sample {
	smp := sample{viaEngine: true, err: resp.Err, fp: resp.Fingerprint, hit: resp.CacheHit,
		sharded: resp.Sharded, shard: resp.ShardStats}
	if resp.Err != nil {
		return smp
	}
	smp.scores, smp.err = answerScores(resp.Columns, resp.Tuples)
	smp.observePlan(resp.Plan)
	for _, rj := range resp.RankJoins {
		smp.observeRankJoin(rj.EstDL, rj.EstDR, rj.Stats)
	}
	return smp
}

// observePlan counts the plan's ranked inputs and its Sort enforcers among
// them: both children of an HRJN and the outer child of an NRJN (whose
// inner is drained unranked).
func (s *sample) observePlan(root *plan.Node) {
	if root == nil {
		return
	}
	root.Walk(func(n *plan.Node) {
		var ranked []*plan.Node
		switch n.Op {
		case plan.OpHRJN:
			ranked = n.Children
		case plan.OpNRJN:
			ranked = n.Children[:1]
		}
		for _, c := range ranked {
			s.rankedInputs++
			if c.Op == plan.OpSort {
				s.sortInputs++
			}
		}
	})
}

func (s *sample) observeRankJoin(estL, estR float64, st exec.RankJoinStats) {
	s.pulled += st.LeftDepth + st.RightDepth
	for _, side := range [][2]float64{{float64(st.LeftDepth), estL}, {float64(st.RightDepth), estR}} {
		if side[0] > 0 && side[1] > 0 {
			s.qerrs = append(s.qerrs, math.Max(side[0]/side[1], side[1]/side[0]))
		}
	}
}

// window is one timed closed-loop run.
type window struct {
	samples []sample
	spans   []span
	elapsed time.Duration
	mem0    runtime.MemStats
	mem1    runtime.MemStats
	// cpu is the process's user plus system CPU time over the window.
	cpu time.Duration
}

// runWindow replays the sequence with the workload's clients for d: each
// client sends its next request only after the previous one completed, and
// stops taking new requests once d has passed. With traced set, every odd
// request of the sequence takes the traced path and the even ones the plain
// engine.Run, so both see the same mix.
func (e *env) runWindow(seq *sequence, d time.Duration, traced bool) window {
	var w window
	perClient := make([][]sample, e.def.clients)
	recs := make([]recorder, e.def.clients)
	runtime.GC()
	runtime.ReadMemStats(&w.mem0)
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < e.def.clients; c++ {
		recs[c].base = start
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i, q := seq.next()
				t0 := time.Now()
				var smp sample
				switch {
				case traced && i%2 == 1 && e.def.shards > 0:
					recs[c].req = i
					smp = e.runEngineTraced(&recs[c], q)
				case traced && i%2 == 1:
					recs[c].req = i
					smp = e.runTraced(&recs[c], q)
				default:
					smp = sampleOf(e.eng.Run(engine.Request{SQL: q.SQL()}))
				}
				smp.lat = time.Since(t0)
				smp.idx = i
				smp.traced = traced && i%2 == 1
				perClient[c] = append(perClient[c], smp)
			}
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&w.mem1)
	for c := range perClient {
		w.samples = append(w.samples, perClient[c]...)
		w.spans = append(w.spans, recs[c].spans...)
	}
	sort.Slice(w.samples, func(a, b int) bool { return w.samples[a].idx < w.samples[b].idx })
	return w
}

// processCPU returns the user plus system CPU time the process has used
// (0 where the platform does not report it).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// check compares every answer with the reference and returns the number of
// failed requests: errors plus wrong answers.
func (w *window) check(seq *sequence, ref *reference) int {
	failed := 0
	for i := range w.samples {
		s := &w.samples[i]
		if s.err == nil {
			s.mismatch = checkScores(s.scores, ref.topK(seq.at(s.idx)))
		}
		if s.err != nil || s.mismatch != "" {
			failed++
		}
	}
	return failed
}

// character counts what the workload exercised, so a change to what it
// exercises shows in every result.
type character struct {
	CacheHitRatio        float64 `json:"cache_hit_ratio"`
	DistinctFingerprints int     `json:"distinct_fingerprints"`
	ShardedShare         float64 `json:"sharded_share"`
	SortInputShare       float64 `json:"sort_input_share"`
}

func (w *window) character() character {
	var c character
	fps := map[string]bool{}
	var engineRuns, hits, sharded, ranked, sorts int
	for _, s := range w.samples {
		if s.err != nil {
			continue
		}
		fps[s.fp] = true
		// The traced path's template map is the benchmark's own; only
		// engine sessions report the engine's plan cache.
		if s.viaEngine {
			engineRuns++
			if s.hit {
				hits++
			}
		}
		if s.sharded {
			sharded++
		}
		ranked += s.rankedInputs
		sorts += s.sortInputs
	}
	c.DistinctFingerprints = len(fps)
	c.CacheHitRatio = ratio(hits, engineRuns)
	c.ShardedShare = ratio(sharded, len(w.samples))
	c.SortInputShare = ratio(sorts, ranked)
	return c
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// median returns the middle of xs (0 when empty) without reordering xs.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
