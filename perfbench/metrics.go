package main

import (
	"runtime"
	"time"
)

// metricDef is one reported metric. End-to-end metrics carry the bound by
// which they may worsen, as a share of the baseline median; per-layer
// metrics have none. README.md lists which end-to-end metric and workload
// each per-layer metric should move.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are measured with tracing off.
var endToEnd = []metricDef{
	{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_query", Unit: "count", Better: "lower", Bound: 0.1},
	{Name: "alloc_mb_per_query", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer come from the traced run. A metric of a layer a workload does
// not pass through reads 0 there.
var perLayer = []metricDef{
	{Name: "sqlparse.parse_us", Unit: "us", Better: "lower"},
	{Name: "sqlparse.fingerprint_us", Unit: "us", Better: "lower"},
	{Name: "engine.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.optimize_ms", Unit: "ms", Better: "lower"},
	{Name: "core.plans_generated", Unit: "count", Better: "lower"},
	{Name: "core.plans_pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "plan.instantiate_us", Unit: "us", Better: "lower"},
	{Name: "plan.compile_us", Unit: "us", Better: "lower"},
	{Name: "exec.open_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.first_batch_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.drain_ms", Unit: "ms", Better: "lower"},
	{Name: "exec.rows_pulled_per_answer", Unit: "count", Better: "lower"},
	{Name: "exec.depth_est_ratio", Unit: "ratio", Better: "lower"},
	{Name: "shard.run_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.critical_path_ms", Unit: "ms", Better: "lower"},
	{Name: "shard.pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "shard.early_stop_rate", Unit: "ratio", Better: "higher"},
	{Name: "shard.tuples_saved_ratio", Unit: "ratio", Better: "higher"},
	{Name: "shard.fallback_ratio", Unit: "ratio", Better: "lower"},
	{Name: "catalog.load_s", Unit: "s", Better: "lower"},
	{Name: "catalog.shard_s", Unit: "s", Better: "lower"},
	{Name: "go.gc_per_kquery", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "workload.distinct_fingerprints", Unit: "count", Better: "higher"},
	{Name: "workload.sharded_share", Unit: "ratio", Better: "higher"},
	{Name: "workload.sort_input_share", Unit: "ratio", Better: "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values pairs each definition with its measured value.
func values(defs []metricDef, v map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndValues computes the untraced run's metrics but heap_live_mb,
// which is read once the samples are dropped.
func endToEndValues(w *window, setups []setupTimes) map[string]float64 {
	n := float64(len(w.samples))
	lats := make([]float64, len(w.samples))
	for i, s := range w.samples {
		lats[i] = msOf(s.lat)
	}
	totals := make([]float64, len(setups))
	for i, st := range setups {
		totals[i] = st.total.Seconds()
	}
	return map[string]float64{
		"throughput_qps":     n / w.elapsed.Seconds(),
		"latency_p50_ms":     quantile(lats, 0.5),
		"latency_p90_ms":     quantile(lats, 0.9),
		"cpu_ms_per_query":   msOf(w.cpu) / n,
		"allocs_per_query":   float64(w.mem1.Mallocs-w.mem0.Mallocs) / n,
		"alloc_mb_per_query": float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc) / 1e6 / n,
		"setup_s":            median(totals),
	}
}

// perLayerValues computes the traced run's metrics from its spans and
// samples.
func perLayerValues(w *window, setups []setupTimes, ch character) map[string]float64 {
	ls := layerStatsOf(w.spans)
	v := map[string]float64{
		"sqlparse.parse_us":              ls.p50("sqlparse.parse", time.Microsecond),
		"sqlparse.fingerprint_us":        ls.p50("sqlparse.fingerprint", time.Microsecond),
		"engine.cache_hit_ratio":         ch.CacheHitRatio,
		"core.optimize_ms":               ls.p50("core.optimize", time.Millisecond),
		"plan.instantiate_us":            ls.p50("plan.instantiate", time.Microsecond),
		"plan.compile_us":                ls.p50("plan.compile", time.Microsecond),
		"exec.open_ms":                   ls.p50("exec.open", time.Millisecond),
		"exec.first_batch_ms":            ls.p50("exec.first_batch", time.Millisecond),
		"exec.drain_ms":                  ls.p50("exec.drain", time.Millisecond),
		"shard.run_ms":                   median(ls.dur["engine.run"]) / float64(time.Millisecond),
		"shard.busy_ms":                  median(ls.shardBusy) / float64(time.Millisecond),
		"shard.critical_path_ms":         median(ls.shardCritical) / float64(time.Millisecond),
		"workload.distinct_fingerprints": float64(ch.DistinctFingerprints),
		"workload.sharded_share":         ch.ShardedShare,
		"workload.sort_input_share":      ch.SortInputShare,
	}

	var generated []float64
	var gen, pruned, pulled, answers, shards, started, prunedShards, stopped, saved, taken, sessions, fallbacks int
	var qerrs []float64
	var tracedLat, plainLat time.Duration
	var tracedN, plainN int
	for _, s := range w.samples {
		if s.traced {
			tracedLat += s.lat
			tracedN++
		} else {
			plainLat += s.lat
			plainN++
		}
		if s.optimized {
			generated = append(generated, float64(s.plansGenerated))
			gen += s.plansGenerated
			pruned += s.plansPruned
		}
		pulled += s.pulled
		answers += len(s.scores)
		qerrs = append(qerrs, s.qerrs...)
		if s.viaEngine {
			sessions++
			if !s.sharded {
				fallbacks++
			}
		}
		if st := s.shard; st != nil {
			shards += st.Shards
			started += st.Started
			prunedShards += st.Pruned
			stopped += st.EarlyStopped
			saved += st.TuplesSaved
			taken += st.TuplesPulled
		}
	}
	v["core.plans_generated"] = median(generated)
	v["core.plans_pruned_ratio"] = ratio(pruned, gen)
	v["exec.rows_pulled_per_answer"] = ratio(pulled, answers)
	v["exec.depth_est_ratio"] = median(qerrs)
	v["shard.pruned_ratio"] = ratio(prunedShards, shards)
	v["shard.early_stop_rate"] = ratio(stopped, started)
	v["shard.tuples_saved_ratio"] = ratio(saved, saved+taken)
	if shards > 0 {
		v["shard.fallback_ratio"] = ratio(fallbacks, sessions)
	}

	loads := make([]float64, len(setups))
	shardTimes := make([]float64, len(setups))
	for i, st := range setups {
		loads[i] = st.load.Seconds()
		shardTimes[i] = st.shard.Seconds()
	}
	v["catalog.load_s"] = median(loads)
	v["catalog.shard_s"] = median(shardTimes)
	v["go.gc_per_kquery"] = float64(w.mem1.NumGC-w.mem0.NumGC) * 1000 / float64(len(w.samples))
	if tracedN > 0 && plainN > 0 {
		v["trace.overhead_ratio"] = (float64(tracedLat) / float64(tracedN)) / (float64(plainLat) / float64(plainN))
	}
	return v
}

// stamp identifies the machine, toolchain and revision a result came from.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func newStamp(commit string) stamp {
	return stamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit}
}
