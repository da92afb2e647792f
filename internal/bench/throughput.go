package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"rankopt/internal/core"
	"rankopt/internal/engine"
	"rankopt/internal/workload"
)

// ThroughputConfig parameterizes the concurrent query-serving benchmark: a
// fixed batch of top-k sessions is replayed at each worker count over one
// shared synthetic catalog, measuring end-to-end queries/sec.
type ThroughputConfig struct {
	// Tables, Rows, Selectivity, Seed shape the workload.RankedSet catalog.
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
	// OptWorkers additionally parallelizes each session's DP enumeration
	// (0 keeps the optimizer sequential).
	OptWorkers int `json:"opt_workers"`
}

// DefaultThroughputConfig is the 3-table workload the PR's acceptance run
// uses: large enough that sessions do real optimizer + rank-join work, small
// enough to finish in seconds.
func DefaultThroughputConfig() ThroughputConfig {
	return ThroughputConfig{
		Tables:      3,
		Rows:        20000,
		Selectivity: 0.005,
		Seed:        7,
		Queries:     64,
		K:           10,
		Workers:     []int{1, 2, 4, 8},
	}
}

// ThroughputPoint is one measured worker count.
type ThroughputPoint struct {
	Workers int     `json:"workers"`
	Queries int     `json:"queries"`
	Millis  float64 `json:"elapsed_ms"`
	QPS     float64 `json:"queries_per_sec"`
	// Speedup is QPS relative to the batch's first (usually 1-worker) point.
	Speedup float64 `json:"speedup"`
	// Errors counts failed sessions; any non-zero value invalidates the run.
	Errors int `json:"errors"`
}

// ThroughputReport is the BENCH_throughput.json artifact. MaxProcs records
// the measuring machine's parallelism: session workers beyond it cannot
// raise CPU-bound throughput, so a 1-core runner shows flat points while a
// multi-core one shows the speedup.
type ThroughputReport struct {
	Config ThroughputConfig `json:"config"`
	// MaxProcs and CPUs stamp the machine: at gomaxprocs=1 multi-worker
	// scaling is structurally invisible, not a regression.
	MaxProcs int               `json:"gomaxprocs"`
	CPUs     int               `json:"cpus"`
	Points   []ThroughputPoint `json:"points"`
}

// throughputQueries builds a deterministic session mix over the T1..Tm
// catalog: rotating ranked 2-way joins plus the full m-way join, with the
// paper's canonical shape (equi-join on key, ORDER BY summed scores, LIMIT k).
func throughputQueries(cfg ThroughputConfig) []engine.Request {
	twoWay := func(a, b int) string {
		return fmt.Sprintf(
			"SELECT * FROM T%d, T%d WHERE T%d.key = T%d.key ORDER BY T%d.score + T%d.score DESC LIMIT %d",
			a, b, a, b, a, b, cfg.K)
	}
	var shapes []string
	for i := 1; i <= cfg.Tables; i++ {
		j := i%cfg.Tables + 1
		if i < j {
			shapes = append(shapes, twoWay(i, j))
		} else if j < i {
			shapes = append(shapes, twoWay(j, i))
		}
	}
	if cfg.Tables >= 3 {
		sql := "SELECT * FROM T1"
		where := ""
		order := "T1.score"
		for i := 2; i <= cfg.Tables; i++ {
			sql += fmt.Sprintf(", T%d", i)
			if where != "" {
				where += " AND "
			}
			where += fmt.Sprintf("T%d.key = T%d.key", i-1, i)
			order += fmt.Sprintf(" + T%d.score", i)
		}
		shapes = append(shapes, fmt.Sprintf("%s WHERE %s ORDER BY %s DESC LIMIT %d", sql, where, order, cfg.K))
	}
	reqs := make([]engine.Request, cfg.Queries)
	for i := range reqs {
		reqs[i] = engine.Request{
			ID:  fmt.Sprintf("q%03d", i),
			SQL: shapes[i%len(shapes)],
		}
	}
	return reqs
}

// Throughput runs the benchmark: one catalog, one request batch, one timed
// RunAll per worker count.
func Throughput(cfg ThroughputConfig) (*ThroughputReport, error) {
	if cfg.Tables < 2 {
		return nil, fmt.Errorf("bench: throughput needs at least 2 tables, got %d", cfg.Tables)
	}
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("bench: throughput needs at least one worker count")
	}
	cat, _ := workload.RankedSet(cfg.Tables, workload.RankedConfig{
		N: cfg.Rows, Selectivity: cfg.Selectivity, Seed: cfg.Seed,
	})
	eng := engine.New(cat, core.Options{Workers: cfg.OptWorkers})
	reqs := throughputQueries(cfg)
	report := &ThroughputReport{Config: cfg, MaxProcs: runtime.GOMAXPROCS(0), CPUs: runtime.NumCPU()}
	// Untimed warm-up batch: grows the heap and faults in the catalog pages
	// once, so the first measured point holds no cold-start advantage over
	// the later ones.
	if err := firstErr(eng.RunAll(reqs, 1)); err != nil {
		return nil, fmt.Errorf("bench: throughput warm-up: %w", err)
	}
	for _, w := range cfg.Workers {
		start := time.Now()
		resps := eng.RunAll(reqs, w)
		elapsed := time.Since(start)
		pt := ThroughputPoint{Workers: w, Queries: len(reqs)}
		for _, r := range resps {
			if r.Err != nil {
				pt.Errors++
			}
		}
		if pt.Errors > 0 {
			return nil, fmt.Errorf("bench: throughput at %d workers: %d sessions failed (first: %v)",
				w, pt.Errors, firstErr(resps))
		}
		pt.Millis = float64(elapsed.Nanoseconds()) / 1e6
		if elapsed > 0 {
			pt.QPS = float64(len(reqs)) / elapsed.Seconds()
		}
		if len(report.Points) > 0 && report.Points[0].QPS > 0 {
			pt.Speedup = pt.QPS / report.Points[0].QPS
		} else {
			pt.Speedup = 1
		}
		report.Points = append(report.Points, pt)
	}
	return report, nil
}

func firstErr(resps []engine.Response) error {
	for _, r := range resps {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}

// JSON renders the artifact bytes.
func (r *ThroughputReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Table renders the report in the bench text format.
func (r *ThroughputReport) Table() *Table {
	t := &Table{
		Title: "Concurrent session throughput",
		Note: fmt.Sprintf("%d-table ranked workload, %d rows/table, %d sessions/point, k=%d, GOMAXPROCS=%d",
			r.Config.Tables, r.Config.Rows, r.Config.Queries, r.Config.K, runtime.GOMAXPROCS(0)),
		Columns: []string{"workers", "queries", "elapsed_ms", "qps", "speedup"},
	}
	for _, p := range r.Points {
		t.AddRow(p.Workers, p.Queries, p.Millis, p.QPS, p.Speedup)
	}
	return t
}

// ThroughputExperiment adapts the benchmark to the registry's Run signature
// using the default config.
func ThroughputExperiment() (*Table, error) {
	rep, err := Throughput(DefaultThroughputConfig())
	if err != nil {
		return nil, err
	}
	return rep.Table(), nil
}
