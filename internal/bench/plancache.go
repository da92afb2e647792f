package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"rankopt/internal/engine"
	"rankopt/internal/workload"
)

// PlanCacheConfig parameterizes the plan-cache benchmark: one repeated-query
// batch is replayed against a cache-disabled engine (cold — every session
// runs parse + optimize) and a primed cache-enabled engine (warm — every
// session hits and only re-instantiates + executes), measuring throughput
// and allocations per query for both.
type PlanCacheConfig struct {
	// Tables, Rows, Selectivity, Seed shape the workload.RankedSet catalog.
	// More tables means more join orders for the DP optimizer to enumerate,
	// which is exactly the work a cache hit skips.
	Tables      int     `json:"tables"`
	Rows        int     `json:"rows"`
	Selectivity float64 `json:"selectivity"`
	Seed        int64   `json:"seed"`
	// Queries is the number of sessions replayed per measurement point.
	Queries int `json:"queries"`
	// K is the LIMIT of every session's query.
	K int `json:"k"`
	// Workers lists the session-worker counts to measure.
	Workers []int `json:"workers"`
}

// DefaultPlanCacheConfig is the acceptance-run workload: a 4-table catalog
// keeps the optimizer's enumeration the dominant per-session cost, and the
// batch repeats a handful of query shapes, so a served cache should clear
// 2x cold throughput comfortably.
func DefaultPlanCacheConfig() PlanCacheConfig {
	return PlanCacheConfig{
		Tables:      4,
		Rows:        2000,
		Selectivity: 0.01,
		Seed:        7,
		Queries:     64,
		K:           5,
		Workers:     []int{1, 4},
	}
}

// PlanCachePoint is one measured worker count: the same batch cold and warm.
type PlanCachePoint struct {
	Workers int `json:"workers"`
	Queries int `json:"queries"`

	ColdMillis float64 `json:"cold_elapsed_ms"`
	ColdQPS    float64 `json:"cold_queries_per_sec"`
	// ColdAllocs is heap allocations per query on the cache-disabled engine.
	ColdAllocs float64 `json:"cold_allocs_per_query"`

	WarmMillis float64 `json:"warm_elapsed_ms"`
	WarmQPS    float64 `json:"warm_queries_per_sec"`
	WarmAllocs float64 `json:"warm_allocs_per_query"`

	// Speedup is warm QPS over cold QPS — the headline number.
	Speedup float64 `json:"speedup"`
}

// PlanCacheReport is the BENCH_plancache.json artifact.
type PlanCacheReport struct {
	Config   PlanCacheConfig  `json:"config"`
	MaxProcs int              `json:"gomaxprocs"`
	CPUs     int              `json:"cpus"`
	Points   []PlanCachePoint `json:"points"`
	// CacheStats snapshots the warm engine's counters after the sweep, as
	// evidence the warm numbers really were served from the cache.
	CacheHits          uint64 `json:"cache_hits"`
	CacheMisses        uint64 `json:"cache_misses"`
	CacheEntries       int    `json:"cache_entries"`
	CacheInvalidations uint64 `json:"cache_invalidations"`
}

// planCacheQueries reuses the throughput generator's repeated-shape mix:
// rotating ranked 2-way joins plus the full m-way join.
func planCacheQueries(cfg PlanCacheConfig) []engine.Request {
	return throughputQueries(ThroughputConfig{
		Tables: cfg.Tables, Queries: cfg.Queries, K: cfg.K,
	})
}

// measureBatch times one RunAll and reads the global allocation counter
// around it. Mallocs is monotonic and process-wide, so the delta is exact
// regardless of GC activity; with concurrent workers it attributes all
// allocation in the window to the batch, which is what we want — nothing
// else runs.
func measureBatch(eng *engine.Engine, reqs []engine.Request, workers int) (ms, qps, allocsPerQuery float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	resps := eng.RunAll(reqs, workers)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	if err := firstErr(resps); err != nil {
		return 0, 0, 0, err
	}
	ms = float64(elapsed.Nanoseconds()) / 1e6
	if elapsed > 0 {
		qps = float64(len(reqs)) / elapsed.Seconds()
	}
	allocsPerQuery = float64(m1.Mallocs-m0.Mallocs) / float64(len(reqs))
	return ms, qps, allocsPerQuery, nil
}

// PlanCache runs the benchmark: one catalog, one request batch, and per
// worker count a cold (cache-disabled) and a warm (cache-enabled, primed)
// timed run.
func PlanCache(cfg PlanCacheConfig) (*PlanCacheReport, error) {
	if cfg.Tables < 2 {
		return nil, fmt.Errorf("bench: plancache needs at least 2 tables, got %d", cfg.Tables)
	}
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("bench: plancache needs at least one worker count")
	}
	cat, _ := workload.RankedSet(cfg.Tables, workload.RankedConfig{
		N: cfg.Rows, Selectivity: cfg.Selectivity, Seed: cfg.Seed,
	})
	cold := engine.NewWithConfig(cat, engine.Config{DisablePlanCache: true})
	warm := engine.NewWithConfig(cat, engine.Config{})
	reqs := planCacheQueries(cfg)
	// Untimed warm-up: faults in the catalog, grows the heap, and primes the
	// warm engine's cache so its measured runs are pure hits.
	if err := firstErr(cold.RunAll(reqs, 1)); err != nil {
		return nil, fmt.Errorf("bench: plancache cold warm-up: %w", err)
	}
	if err := firstErr(warm.RunAll(reqs, 1)); err != nil {
		return nil, fmt.Errorf("bench: plancache cache priming: %w", err)
	}
	report := &PlanCacheReport{Config: cfg, MaxProcs: runtime.GOMAXPROCS(0), CPUs: runtime.NumCPU()}
	for _, w := range cfg.Workers {
		pt := PlanCachePoint{Workers: w, Queries: len(reqs)}
		var err error
		if pt.ColdMillis, pt.ColdQPS, pt.ColdAllocs, err = measureBatch(cold, reqs, w); err != nil {
			return nil, fmt.Errorf("bench: plancache cold at %d workers: %w", w, err)
		}
		if pt.WarmMillis, pt.WarmQPS, pt.WarmAllocs, err = measureBatch(warm, reqs, w); err != nil {
			return nil, fmt.Errorf("bench: plancache warm at %d workers: %w", w, err)
		}
		if pt.ColdQPS > 0 {
			pt.Speedup = pt.WarmQPS / pt.ColdQPS
		}
		report.Points = append(report.Points, pt)
	}
	st := warm.CacheStats()
	report.CacheHits = st.Hits
	report.CacheMisses = st.Misses
	report.CacheEntries = st.Entries
	report.CacheInvalidations = st.Invalidations
	return report, nil
}

// JSON renders the artifact bytes.
func (r *PlanCacheReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Table renders the report in the bench text format.
func (r *PlanCacheReport) Table() *Table {
	t := &Table{
		Title: "Plan cache: cold vs warm",
		Note: fmt.Sprintf("%d-table ranked workload, %d rows/table, %d sessions/point, k=%d, hits=%d misses=%d, GOMAXPROCS=%d",
			r.Config.Tables, r.Config.Rows, r.Config.Queries, r.Config.K,
			r.CacheHits, r.CacheMisses, runtime.GOMAXPROCS(0)),
		Columns: []string{"workers", "cold_qps", "warm_qps", "speedup", "cold_allocs/q", "warm_allocs/q"},
	}
	for _, p := range r.Points {
		t.AddRow(p.Workers, p.ColdQPS, p.WarmQPS, p.Speedup, p.ColdAllocs, p.WarmAllocs)
	}
	return t
}

// PlanCacheExperiment adapts the benchmark to the registry's Run signature
// using the default config.
func PlanCacheExperiment() (*Table, error) {
	rep, err := PlanCache(DefaultPlanCacheConfig())
	if err != nil {
		return nil, err
	}
	return rep.Table(), nil
}
