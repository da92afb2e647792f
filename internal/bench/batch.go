package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/relation"
	"rankopt/internal/workload"
)

// This benchmark measures what the batch execution layer buys: the same
// operator tree is drained one-tuple-per-Next (CollectPerTupleCtx, the
// pre-vectorization executor) and batch-at-a-time (CollectCtx), and every
// pair of runs is checked for exact tuple-level agreement. The cases are the
// vectorized pipeline segments — scan, filter, projection, hash join — not
// the rank-joins, which stay per-tuple by design (their threshold
// termination needs incremental pulls).

// BatchConfig parameterizes the batch-vs-per-tuple executor benchmark.
type BatchConfig struct {
	// Rows is the cardinality of each input relation.
	Rows int `json:"rows"`
	// BuildRows is the hash join's build-side cardinality. Much smaller than
	// Rows, so the shared build phase does not drown the probe loop the case
	// exists to measure (the probe-bound regime is also the one the batch
	// layer targets — build cost is identical on both paths).
	BuildRows int `json:"build_rows"`
	// Seed shapes the synthetic relations.
	Seed int64 `json:"seed"`
	// Reps is how many timed repetitions each side runs; the fastest is
	// reported (standard microbenchmark practice — the minimum is the run
	// least disturbed by the machine).
	Reps int `json:"reps"`
}

// DefaultBatchConfig sizes the inputs so per-tuple overhead dominates real
// work — the regime the batch layer targets — while a full run stays under a
// few seconds. The 200:1 probe:build ratio is the selective-join shape
// (small dimension build side against a large fact probe side) where the
// build table's min-max filter prunes most probes.
func DefaultBatchConfig() BatchConfig {
	return BatchConfig{Rows: 200000, BuildRows: 1000, Seed: 11, Reps: 7}
}

// BatchPoint is one measured operator-pipeline case.
type BatchPoint struct {
	Case string `json:"case"`
	// RowsOut is the result cardinality (identical on both paths).
	RowsOut int `json:"rows_out"`
	// TupleMs and BatchMs are the fastest drains of each executor path.
	TupleMs float64 `json:"per_tuple_ms"`
	BatchMs float64 `json:"batch_ms"`
	// Speedup is TupleMs / BatchMs.
	Speedup float64 `json:"speedup"`
	// TupleAllocs and BatchAllocs are heap allocations per run of each path.
	TupleAllocs uint64 `json:"per_tuple_allocs"`
	BatchAllocs uint64 `json:"batch_allocs"`
	// ParityOK reports that the two paths produced identical results —
	// same rows, same order, same values.
	ParityOK bool `json:"parity_ok"`
}

// BatchReport is the BENCH_batch.json artifact.
type BatchReport struct {
	Config BatchConfig `json:"config"`
	// MaxProcs and CPUs stamp the machine. Batch-vs-tuple ratios are
	// single-threaded, so they stay valid at gomaxprocs=1.
	MaxProcs int          `json:"gomaxprocs"`
	CPUs     int          `json:"cpus"`
	Points   []BatchPoint `json:"points"`
}

// batchCase names one benchmark pipeline and builds fresh operator trees for
// it (fresh per drain, so no state leaks between measurements).
type batchCase struct {
	name  string
	build func() exec.Operator
	// buildRef, when set, builds the tree the per-tuple side drains — the
	// scalar reference configuration for operators whose internals were also
	// vectorized (the hash join's build and table). nil means build, for
	// operators whose Next path already is the pre-batch executor.
	buildRef func() exec.Operator
}

// batchCases constructs the benchmark pipelines over freshly generated
// relations.
func batchCases(cfg BatchConfig) ([]batchCase, error) {
	cat, names := workload.RankedSet(2, workload.RankedConfig{
		N: cfg.Rows, Selectivity: 0.01, Seed: cfg.Seed,
	})
	t1, err := cat.Table(names[0])
	if err != nil {
		return nil, err
	}
	t2, err := cat.Table(names[1])
	if err != nil {
		return nil, err
	}
	r1, r2 := t1.Rel, t2.Rel
	build := workload.Ranked(workload.RankedConfig{
		Name: "B", N: cfg.BuildRows, Selectivity: 0.01, Seed: cfg.Seed + 1,
	})
	// Probe-bound 1:1 equi-join on the unique id column: a small build table
	// streamed against the full probe side, so the measurement isolates
	// per-probe overhead rather than build cost or fan-out amplification. The
	// per-tuple side runs the scalar reference build (interface-keyed table),
	// matching the executor as it was before vectorization.
	mkJoin := func(perTuple bool) func() exec.Operator {
		return func() exec.Operator {
			hj := exec.NewHashJoin(
				exec.NewSeqScan(build), exec.NewSeqScan(r2),
				expr.Col("B", "id"), expr.Col(names[1], "id"), nil)
			hj.BuildSizeHint = cfg.BuildRows
			hj.PerTupleBuild = perTuple
			return hj
		}
	}
	return []batchCase{
		{name: "seqscan", build: func() exec.Operator {
			return exec.NewSeqScan(r1)
		}},
		{name: "filter", build: func() exec.Operator {
			// score < 0.05 over the uniform distribution: ~5% selectivity,
			// the selective-scan regime vectorized filters target. A
			// rejected row costs the batch path one column load and one
			// compare where the per-tuple path pays a full Next round-trip
			// (interface dispatch, closure tree, boxed Value) — so rejects
			// are where vectorization pays, and they dominate real scans.
			// The shape is one CompileCmp turns into a direct column compare.
			pred := expr.Bin(expr.OpLt, expr.Col(names[0], "score"), expr.FloatLit(0.05))
			return exec.NewFilter(exec.NewSeqScan(r1), pred)
		}},
		{name: "project", build: func() exec.Operator {
			items := []exec.ProjectItem{
				{E: expr.Col(names[0], "id"), As: "id", Kind: relation.KindInt},
				{E: expr.Col(names[0], "score"), As: "score", Kind: relation.KindFloat},
			}
			return exec.NewProject(exec.NewSeqScan(r1), items...)
		}},
		{name: "hashjoin", build: mkJoin(false), buildRef: mkJoin(true)},
	}, nil
}

// drainFunc is one executor path's discarding drain.
type drainFunc func(exec.Operator) (int, error)

// measureDrain times reps fresh discarding drains and returns the fastest,
// plus the allocation count and row count of the final run. The timed drains
// do not materialize results: accumulating a 200k-row slice costs the same
// on both executor paths and would only dilute the quantity under test (the
// per-tuple iteration overhead). Result correctness is checked separately by
// the untimed parity runs.
func measureDrain(build func() exec.Operator, drain drainFunc, reps int) (time.Duration, uint64, int, error) {
	best := time.Duration(0)
	var allocs uint64
	rows := 0
	var ms0, ms1 runtime.MemStats
	for i := 0; i < reps; i++ {
		op := build()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		n, err := drain(op)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return 0, 0, 0, err
		}
		if best == 0 || elapsed < best {
			best = elapsed
		}
		allocs = ms1.Mallocs - ms0.Mallocs
		rows = n
	}
	return best, allocs, rows, nil
}

// sameTuples reports exact result equality: count, order, arity, values.
func sameTuples(a, b []relation.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// BatchExec runs the benchmark.
func BatchExec(cfg BatchConfig) (*BatchReport, error) {
	if cfg.Rows <= 0 || cfg.Reps <= 0 {
		return nil, fmt.Errorf("bench: batch needs positive rows and reps, got %d/%d", cfg.Rows, cfg.Reps)
	}
	if cfg.BuildRows <= 0 {
		cfg.BuildRows = cfg.Rows / 20
		if cfg.BuildRows == 0 {
			cfg.BuildRows = 1
		}
	}
	cases, err := batchCases(cfg)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	perTuple := func(op exec.Operator) (int, error) { return exec.DrainPerTupleCtx(ctx, op) }
	batch := func(op exec.Operator) (int, error) { return exec.DrainCtx(ctx, op) }
	report := &BatchReport{
		Config:   cfg,
		MaxProcs: runtime.GOMAXPROCS(0),
		CPUs:     runtime.NumCPU(),
	}
	for _, c := range cases {
		buildRef := c.buildRef
		if buildRef == nil {
			buildRef = c.build
		}
		// Untimed parity runs: both paths fully materialized and compared
		// tuple-for-tuple (these double as warm-up for the timed drains).
		refOut, err := exec.CollectPerTupleCtx(ctx, buildRef())
		if err != nil {
			return nil, fmt.Errorf("bench: batch case %s per-tuple parity run: %w", c.name, err)
		}
		batchOut, err := exec.CollectCtx(ctx, c.build())
		if err != nil {
			return nil, fmt.Errorf("bench: batch case %s batch parity run: %w", c.name, err)
		}
		tDur, tAllocs, tRows, err := measureDrain(buildRef, perTuple, cfg.Reps)
		if err != nil {
			return nil, fmt.Errorf("bench: batch case %s per-tuple: %w", c.name, err)
		}
		bDur, bAllocs, bRows, err := measureDrain(c.build, batch, cfg.Reps)
		if err != nil {
			return nil, fmt.Errorf("bench: batch case %s batch: %w", c.name, err)
		}
		pt := BatchPoint{
			Case:        c.name,
			RowsOut:     bRows,
			TupleMs:     float64(tDur.Nanoseconds()) / 1e6,
			BatchMs:     float64(bDur.Nanoseconds()) / 1e6,
			TupleAllocs: tAllocs,
			BatchAllocs: bAllocs,
			ParityOK:    sameTuples(refOut, batchOut) && tRows == len(refOut) && bRows == len(batchOut),
		}
		if bDur > 0 {
			pt.Speedup = float64(tDur) / float64(bDur)
		}
		report.Points = append(report.Points, pt)
	}
	return report, nil
}

// CheckParity fails if any case's two executor paths disagreed — the gate CI
// runs on the artifact.
func (r *BatchReport) CheckParity() error {
	for _, p := range r.Points {
		if !p.ParityOK {
			return fmt.Errorf("bench: batch case %s: batch and per-tuple paths diverged", p.Case)
		}
	}
	return nil
}

// JSON renders the artifact bytes.
func (r *BatchReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Table renders the report in the bench text format.
func (r *BatchReport) Table() *Table {
	t := &Table{
		Title: "Batch vs per-tuple execution",
		Note: fmt.Sprintf("%d rows/input, best of %d, GOMAXPROCS=%d",
			r.Config.Rows, r.Config.Reps, r.MaxProcs),
		Columns: []string{"case", "rows_out", "per_tuple_ms", "batch_ms", "speedup", "pt_allocs", "b_allocs", "parity"},
	}
	for _, p := range r.Points {
		t.AddRow(p.Case, p.RowsOut, p.TupleMs, p.BatchMs, p.Speedup, p.TupleAllocs, p.BatchAllocs, p.ParityOK)
	}
	return t
}

// BatchExecExperiment adapts the benchmark to the registry's Run signature.
func BatchExecExperiment() (*Table, error) {
	rep, err := BatchExec(DefaultBatchConfig())
	if err != nil {
		return nil, err
	}
	if err := rep.CheckParity(); err != nil {
		return nil, err
	}
	return rep.Table(), nil
}
