package bench

import (
	"encoding/json"
	"fmt"
	"runtime"

	"rankopt/internal/catalog"
	"rankopt/internal/engine"
	"rankopt/internal/trace"
	"rankopt/internal/workload"
)

// TraceOverheadConfig parameterizes the tracing-overhead benchmark: one
// repeated-query batch is replayed through a primed engine twice, first with
// no trace attached (the production hot path — every span call must collapse
// to a nil compare) and then with a span recorder on every session (the
// diagnostic path — fresh single-worker optimization, decision trace, span
// recording, and analyze instrumentation).
type TraceOverheadConfig struct {
	// Tables, Rows, Selectivity, Seed shape the workload.RankedSet catalog.
	Tables      int     `json:"tables"`
	Rows        int     `json:"rows"`
	Selectivity float64 `json:"selectivity"`
	Seed        int64   `json:"seed"`
	// Queries is the number of sessions replayed per measurement.
	Queries int `json:"queries"`
	// K is the LIMIT of every session's query.
	K int `json:"k"`
	// Repeats is how many times each side is measured; the best repeat is
	// reported (minimum-noise estimator, same as testing.B).
	Repeats int `json:"repeats"`

	// ShardCount..ShardQueries shape the sharded side of the comparison: the
	// same off/on measurement over a range-partitioned skewed catalog (the
	// BENCH_shard workload) served from ShardCount shards. The workload is
	// sized execution-dominated on purpose — a traced session re-optimizes
	// fresh, and the gate bounds the overhead of tracing the *sharded
	// execution*, not of re-planning a trivial query. ShardCount 0 skips the
	// sharded block.
	ShardCount   int   `json:"shard_count"`
	ShardRows    int   `json:"shard_rows"`
	ShardKeys    int   `json:"shard_keys"`
	ShardK       int   `json:"shard_k"`
	ShardQueries int   `json:"shard_queries"`
	ShardSeed    int64 `json:"shard_seed"`
}

// DefaultTraceOverheadConfig is the acceptance-run workload: enough sessions
// over a cached 3-table catalog that the off side measures the steady-state
// hot path, not warm-up effects.
func DefaultTraceOverheadConfig() TraceOverheadConfig {
	return TraceOverheadConfig{
		Tables:      3,
		Rows:        2000,
		Selectivity: 0.01,
		Seed:        11,
		Queries:     128,
		K:           10,
		Repeats:     3,

		ShardCount:   4,
		ShardRows:    20000,
		ShardKeys:    200,
		ShardK:       10,
		ShardQueries: 24,
		ShardSeed:    29,
	}
}

// TraceOverheadReport is the BENCH_trace.json artifact. The off side is the
// number to track across revisions — it is the qps every untraced query
// pays; the on side documents the cost of opting into a traced session
// (which deliberately re-optimizes fresh and instruments every operator, so
// it is expected to be several times slower, never free).
type TraceOverheadReport struct {
	Config   TraceOverheadConfig `json:"config"`
	MaxProcs int                 `json:"gomaxprocs"`
	CPUs     int                 `json:"cpus"`

	OffMillis float64 `json:"off_elapsed_ms"`
	OffQPS    float64 `json:"off_queries_per_sec"`
	// OffAllocs is heap allocations per query with tracing off — the whole
	// instrumented pipeline must add none (pinned separately by an
	// AllocsPerRun test in internal/trace).
	OffAllocs float64 `json:"off_allocs_per_query"`

	OnMillis float64 `json:"on_elapsed_ms"`
	OnQPS    float64 `json:"on_queries_per_sec"`
	OnAllocs float64 `json:"on_allocs_per_query"`

	// Slowdown is off QPS over on QPS — how much a traced session costs
	// relative to the hot path.
	Slowdown float64 `json:"slowdown"`
	// SpansPerQuery and DecisionsPerQuery prove the on side really traced:
	// pipeline+operator spans recorded per session, and optimizer decision
	// events in one probe session's trace.
	SpansPerQuery     float64 `json:"spans_per_query"`
	DecisionsPerQuery int     `json:"decisions_probe"`

	// Sharded is the scatter-gather side of the artifact (absent when
	// Config.ShardCount is 0): the same off/on comparison with every session
	// served by the shard coordinator, traced sessions carrying one Chrome
	// lane per shard worker.
	Sharded *ShardedTraceOverhead `json:"sharded,omitempty"`
}

// ShardedTraceOverhead measures tracing overhead on the sharded serving
// tier: traced-off vs traced-on throughput at a fixed shard count.
type ShardedTraceOverhead struct {
	ShardCount int `json:"shard_count"`

	OffMillis float64 `json:"off_elapsed_ms"`
	OffQPS    float64 `json:"off_queries_per_sec"`
	OnMillis  float64 `json:"on_elapsed_ms"`
	OnQPS     float64 `json:"on_queries_per_sec"`
	// Slowdown is off QPS over on QPS — the CI gate's number.
	Slowdown float64 `json:"slowdown"`
	// SpansPerQuery proves traced sharded sessions record the fan-out: the
	// pipeline stages plus one shard span (and nested operator spans) per
	// shard worker.
	SpansPerQuery float64 `json:"spans_per_query"`
}

// TraceOverhead runs the benchmark: one catalog, one request batch, a primed
// engine, then best-of-Repeats timed runs with tracing off and on.
func TraceOverhead(cfg TraceOverheadConfig) (*TraceOverheadReport, error) {
	if cfg.Tables < 2 {
		return nil, fmt.Errorf("bench: trace overhead needs at least 2 tables, got %d", cfg.Tables)
	}
	if cfg.Repeats < 1 {
		cfg.Repeats = 1
	}
	cat, _ := workload.RankedSet(cfg.Tables, workload.RankedConfig{
		N: cfg.Rows, Selectivity: cfg.Selectivity, Seed: cfg.Seed,
	})
	eng := engine.NewWithConfig(cat, engine.Config{})
	reqs := throughputQueries(ThroughputConfig{
		Tables: cfg.Tables, Queries: cfg.Queries, K: cfg.K,
	})
	// Untimed warm-up: faults in the catalog and primes the plan cache so the
	// off side measures pure cache-hit sessions.
	if err := firstErr(eng.RunAll(reqs, 1)); err != nil {
		return nil, fmt.Errorf("bench: trace overhead warm-up: %w", err)
	}

	report := &TraceOverheadReport{Config: cfg, MaxProcs: runtime.GOMAXPROCS(0), CPUs: runtime.NumCPU()}
	for r := 0; r < cfg.Repeats; r++ {
		ms, qps, allocs, err := measureBatch(eng, reqs, 1)
		if err != nil {
			return nil, fmt.Errorf("bench: trace overhead off repeat %d: %w", r, err)
		}
		if qps > report.OffQPS {
			report.OffMillis, report.OffQPS, report.OffAllocs = ms, qps, allocs
		}
	}
	var spans int
	for r := 0; r < cfg.Repeats; r++ {
		// Fresh traces every repeat: a Trace belongs to one session.
		treqs := make([]engine.Request, len(reqs))
		traces := make([]*trace.Trace, len(reqs))
		for i, req := range reqs {
			traces[i] = trace.New(req.SQL)
			req.Trace = traces[i]
			treqs[i] = req
		}
		ms, qps, allocs, err := measureBatch(eng, treqs, 1)
		if err != nil {
			return nil, fmt.Errorf("bench: trace overhead on repeat %d: %w", r, err)
		}
		if qps > report.OnQPS {
			report.OnMillis, report.OnQPS, report.OnAllocs = ms, qps, allocs
			spans = 0
			for _, tr := range traces {
				spans += tr.Len()
			}
		}
	}
	if len(reqs) > 0 {
		report.SpansPerQuery = float64(spans) / float64(len(reqs))
	}
	if report.OnQPS > 0 {
		report.Slowdown = report.OffQPS / report.OnQPS
	}
	// One probe session outside the timed runs supplies the decision count.
	probe := reqs[0]
	probe.Trace = trace.New(probe.SQL)
	resp := eng.Run(probe)
	if resp.Err != nil {
		return nil, fmt.Errorf("bench: trace overhead probe: %w", resp.Err)
	}
	if resp.OptTrace != nil {
		report.DecisionsPerQuery = len(resp.OptTrace.Decisions()) + resp.OptTrace.TotalCandidates()
	}
	if cfg.ShardCount > 0 {
		sh, err := shardedTraceOverhead(cfg)
		if err != nil {
			return nil, err
		}
		report.Sharded = sh
	}
	return report, nil
}

// shardedTraceOverhead measures the sharded block: the skewed
// range-partitioned 2-table workload (see bench.Shard) served from
// cfg.ShardCount shards, one repeated top-k session, best-of-Repeats off and
// on. Every session must actually take the scatter-gather path.
func shardedTraceOverhead(cfg TraceOverheadConfig) (*ShardedTraceOverhead, error) {
	cat := catalog.New()
	for i, name := range []string{"T1", "T2"} {
		rel := workload.Ranked(workload.RankedConfig{
			Name: name, N: cfg.ShardRows, Selectivity: 1 / float64(cfg.ShardKeys),
			Seed: cfg.ShardSeed + int64(i)*7919, ScoreByKey: 1,
		})
		cat.AddTable(rel)
		if _, err := cat.CreateIndex(name, "key", false); err != nil {
			return nil, err
		}
		spec := catalog.PartitionSpec{
			Column: "key", Kind: catalog.PartitionRange, Lo: 0, Hi: float64(cfg.ShardKeys),
		}
		if err := cat.SetPartition(name, spec); err != nil {
			return nil, err
		}
	}
	eng := engine.NewWithConfig(cat, engine.Config{Shards: cfg.ShardCount})
	if err := eng.ShardError(); err != nil {
		return nil, err
	}
	sql := fmt.Sprintf("SELECT * FROM T1, T2 WHERE T1.key = T2.key "+
		"ORDER BY T1.score + T2.score DESC LIMIT %d", cfg.ShardK)
	reqs := make([]engine.Request, cfg.ShardQueries)
	for i := range reqs {
		reqs[i] = engine.Request{ID: fmt.Sprintf("sh%d", i), SQL: sql}
	}
	// Warm-up doubles as the sharded-path assertion: a session that silently
	// fell back would make the comparison meaningless.
	probe := eng.Run(reqs[0])
	if probe.Err != nil {
		return nil, fmt.Errorf("bench: sharded trace warm-up: %w", probe.Err)
	}
	if !probe.Sharded {
		return nil, fmt.Errorf("bench: sharded trace workload fell back to the single path")
	}

	sh := &ShardedTraceOverhead{ShardCount: cfg.ShardCount}
	for r := 0; r < cfg.Repeats; r++ {
		ms, qps, _, err := measureBatch(eng, reqs, 1)
		if err != nil {
			return nil, fmt.Errorf("bench: sharded trace off repeat %d: %w", r, err)
		}
		if qps > sh.OffQPS {
			sh.OffMillis, sh.OffQPS = ms, qps
		}
	}
	// A traced probe proves traced sessions stay on the sharded path too (the
	// legacy analyze/trace fallback would quietly invalidate the comparison).
	tprobe := reqs[0]
	tprobe.Trace = trace.New(tprobe.SQL)
	if resp := eng.Run(tprobe); resp.Err != nil {
		return nil, fmt.Errorf("bench: sharded trace probe: %w", resp.Err)
	} else if !resp.Sharded {
		return nil, fmt.Errorf("bench: traced sharded session fell back to the single path")
	}
	var spans int
	for r := 0; r < cfg.Repeats; r++ {
		treqs := make([]engine.Request, len(reqs))
		traces := make([]*trace.Trace, len(reqs))
		for i, req := range reqs {
			traces[i] = trace.New(req.SQL)
			req.Trace = traces[i]
			treqs[i] = req
		}
		ms, qps, _, err := measureBatch(eng, treqs, 1)
		if err != nil {
			return nil, fmt.Errorf("bench: sharded trace on repeat %d: %w", r, err)
		}
		if qps > sh.OnQPS {
			sh.OnMillis, sh.OnQPS = ms, qps
			spans = 0
			for _, tr := range traces {
				spans += tr.Len()
			}
		}
	}
	if len(reqs) > 0 {
		sh.SpansPerQuery = float64(spans) / float64(len(reqs))
	}
	if sh.OnQPS > 0 {
		sh.Slowdown = sh.OffQPS / sh.OnQPS
	}
	return sh, nil
}

// CheckOverhead gates the artifact: both sides must have run, traced
// sessions must actually record spans and optimizer decisions, and the
// traced slowdown must stay under the bound (a generous smoke ceiling — the
// traced path re-optimizes and instruments on purpose, but it must never
// regress into pathology).
func (r *TraceOverheadReport) CheckOverhead(maxSlowdown float64) error {
	if r.OffQPS <= 0 || r.OnQPS <= 0 {
		return fmt.Errorf("bench: trace overhead measured non-positive qps (off=%.1f on=%.1f)", r.OffQPS, r.OnQPS)
	}
	if r.SpansPerQuery <= 0 || r.DecisionsPerQuery <= 0 {
		return fmt.Errorf("bench: traced sessions recorded nothing (spans/q=%.1f decisions=%d)",
			r.SpansPerQuery, r.DecisionsPerQuery)
	}
	if r.Slowdown > maxSlowdown {
		return fmt.Errorf("bench: traced sessions %.1fx slower than untraced, bound is %.1fx", r.Slowdown, maxSlowdown)
	}
	return nil
}

// CheckShardedOverhead gates the sharded block: the sharded sessions must
// have run (both sides), traced sharded sessions must record the per-shard
// lanes, and the traced slowdown must stay under the bound. The bound is far
// tighter than CheckOverhead's because the sharded workload is
// execution-dominated — tracing a gather must cost lane bookkeeping, not a
// re-run.
func (r *TraceOverheadReport) CheckShardedOverhead(maxSlowdown float64) error {
	if r.Sharded == nil {
		return fmt.Errorf("bench: no sharded trace block in the artifact")
	}
	sh := r.Sharded
	if sh.OffQPS <= 0 || sh.OnQPS <= 0 {
		return fmt.Errorf("bench: sharded trace overhead measured non-positive qps (off=%.1f on=%.1f)", sh.OffQPS, sh.OnQPS)
	}
	// At minimum: the pipeline stages plus one span per shard worker.
	if sh.SpansPerQuery < float64(sh.ShardCount) {
		return fmt.Errorf("bench: traced sharded sessions recorded %.1f spans/query, want at least one per shard (%d)",
			sh.SpansPerQuery, sh.ShardCount)
	}
	if sh.Slowdown > maxSlowdown {
		return fmt.Errorf("bench: traced sharded sessions %.2fx slower than untraced, bound is %.2fx", sh.Slowdown, maxSlowdown)
	}
	return nil
}

// JSON renders the artifact bytes.
func (r *TraceOverheadReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Table renders the report in the bench text format.
func (r *TraceOverheadReport) Table() *Table {
	t := &Table{
		Title: "Tracing overhead: off vs on",
		Note: fmt.Sprintf("%d-table ranked workload, %d rows/table, %d sessions, k=%d, best of %d, GOMAXPROCS=%d",
			r.Config.Tables, r.Config.Rows, r.Config.Queries, r.Config.K, r.Config.Repeats, r.MaxProcs),
		Columns: []string{"off_qps", "on_qps", "slowdown", "off_allocs/q", "on_allocs/q", "spans/q"},
	}
	t.AddRow(r.OffQPS, r.OnQPS, r.Slowdown, r.OffAllocs, r.OnAllocs, r.SpansPerQuery)
	return t
}

// ShardedTable renders the sharded block (nil when it was skipped).
func (r *TraceOverheadReport) ShardedTable() *Table {
	if r.Sharded == nil {
		return nil
	}
	sh := r.Sharded
	t := &Table{
		Title: "Tracing overhead on the sharded tier: off vs on",
		Note: fmt.Sprintf("skewed range-partitioned 2-table workload, %d rows/table, %d shards, %d sessions, k=%d, best of %d",
			r.Config.ShardRows, sh.ShardCount, r.Config.ShardQueries, r.Config.ShardK, r.Config.Repeats),
		Columns: []string{"off_qps", "on_qps", "slowdown", "spans/q"},
	}
	t.AddRow(sh.OffQPS, sh.OnQPS, sh.Slowdown, sh.SpansPerQuery)
	return t
}
