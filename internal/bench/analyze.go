package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"

	"rankopt/internal/core"
	"rankopt/internal/engine"
	"rankopt/internal/workload"
)

// AnalyzeConfig parameterizes the depth-model accuracy sweep: the canonical
// ranked-join query shapes are executed with EXPLAIN ANALYZE instrumentation
// at each k, and every rank-join's Section-4 depth estimates are compared
// against the depths the executor actually reached.
type AnalyzeConfig struct {
	// Tables, Rows, Selectivity, Seed shape the workload.RankedSet catalog.
	Tables      int     `json:"tables"`
	Rows        int     `json:"rows"`
	Selectivity float64 `json:"selectivity"`
	Seed        int64   `json:"seed"`
	// Ks lists the LIMIT values swept per query shape.
	Ks []int `json:"ks"`
}

// DefaultAnalyzeConfig mirrors the throughput workload so the accuracy
// numbers describe the same queries the serving benchmarks run.
func DefaultAnalyzeConfig() AnalyzeConfig {
	return AnalyzeConfig{
		Tables:      3,
		Rows:        20000,
		Selectivity: 0.005,
		Seed:        7,
		Ks:          []int{1, 10, 50, 100},
	}
}

// DepthSample is one rank-join observation: the optimizer's estimated left
// and right depths against the executed depths, with per-side relative
// errors (|est-act|/max(act,1)).
type DepthSample struct {
	SQL   string  `json:"sql"`
	K     int     `json:"k"`
	Op    string  `json:"op"`
	Pred  string  `json:"pred"`
	EstDL float64 `json:"est_dl"`
	ActDL int     `json:"act_dl"`
	EstDR float64 `json:"est_dr"`
	ActDR int     `json:"act_dr"`
	ErrL  float64 `json:"rel_err_l"`
	ErrR  float64 `json:"rel_err_r"`
}

// AnalyzeReport is the BENCH_analyze.json artifact: every depth sample plus
// the aggregate accuracy of the depth model over the sweep.
type AnalyzeReport struct {
	Config   AnalyzeConfig `json:"config"`
	MaxProcs int           `json:"gomaxprocs"`
	CPUs     int           `json:"cpus"`
	// MeanRelErr and MaxRelErr aggregate both sides of every sample (1.0 =
	// 100% relative error).
	MeanRelErr float64       `json:"mean_rel_err"`
	MaxRelErr  float64       `json:"max_rel_err"`
	Samples    []DepthSample `json:"samples"`
}

// relErr is the accuracy metric: |est-act| over the actual depth, guarding
// the zero-depth case.
func relErr(est float64, act int) float64 {
	denom := float64(act)
	if denom < 1 {
		denom = 1
	}
	return math.Abs(est-float64(act)) / denom
}

// Analyze runs the sweep: each query shape at each k through an analyzing
// session, folding every rank-join of every plan into the report.
func Analyze(cfg AnalyzeConfig) (*AnalyzeReport, error) {
	if cfg.Tables < 2 {
		return nil, fmt.Errorf("bench: analyze needs at least 2 tables, got %d", cfg.Tables)
	}
	if len(cfg.Ks) == 0 {
		return nil, fmt.Errorf("bench: analyze needs at least one k")
	}
	cat, _ := workload.RankedSet(cfg.Tables, workload.RankedConfig{
		N: cfg.Rows, Selectivity: cfg.Selectivity, Seed: cfg.Seed,
	})
	eng := engine.New(cat, core.Options{})
	rep := &AnalyzeReport{Config: cfg, MaxProcs: runtime.GOMAXPROCS(0), CPUs: runtime.NumCPU()}
	var errSum float64
	var errN int
	for _, k := range cfg.Ks {
		base := cfg
		shapes := throughputQueries(ThroughputConfig{
			Tables: base.Tables, Rows: base.Rows, Selectivity: base.Selectivity,
			Seed: base.Seed, K: k, Queries: queryShapeCount(base.Tables),
		})
		for _, req := range shapes {
			req.Analyze = true
			resp := eng.Run(req)
			if resp.Err != nil {
				return nil, fmt.Errorf("bench: analyze %q: %w", req.SQL, resp.Err)
			}
			for _, rj := range resp.RankJoins {
				s := DepthSample{
					SQL: req.SQL, K: k, Op: rj.Op, Pred: rj.Pred,
					EstDL: rj.EstDL, ActDL: rj.Stats.LeftDepth,
					EstDR: rj.EstDR, ActDR: rj.Stats.RightDepth,
				}
				s.ErrL = relErr(s.EstDL, s.ActDL)
				s.ErrR = relErr(s.EstDR, s.ActDR)
				rep.Samples = append(rep.Samples, s)
				errSum += s.ErrL + s.ErrR
				errN += 2
				rep.MaxRelErr = math.Max(rep.MaxRelErr, math.Max(s.ErrL, s.ErrR))
			}
		}
	}
	if errN > 0 {
		rep.MeanRelErr = errSum / float64(errN)
	}
	return rep, nil
}

// queryShapeCount is the number of distinct query shapes throughputQueries
// generates for an m-table catalog (the 2-way rotations plus the m-way join);
// requesting exactly that many yields each shape once.
func queryShapeCount(tables int) int {
	if tables < 3 {
		return 1 // the single 2-way join
	}
	return tables + 1 // every 2-way rotation plus the m-way join
}

// CheckBound returns an error when the sweep's mean relative depth error
// exceeds maxMeanErr — the CI smoke gate for depth-model regressions.
func (r *AnalyzeReport) CheckBound(maxMeanErr float64) error {
	if r.MeanRelErr > maxMeanErr {
		return fmt.Errorf("bench: mean relative depth error %.2f exceeds bound %.2f",
			r.MeanRelErr, maxMeanErr)
	}
	return nil
}

// JSON renders the artifact bytes.
func (r *AnalyzeReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Table renders the report in the bench text format.
func (r *AnalyzeReport) Table() *Table {
	t := &Table{
		Title: "Depth-model accuracy (estimated vs executed rank-join depths)",
		Note: fmt.Sprintf("%d-table ranked workload, %d rows/table, sel=%g | mean rel err=%.1f%% max=%.1f%%",
			r.Config.Tables, r.Config.Rows, r.Config.Selectivity,
			r.MeanRelErr*100, r.MaxRelErr*100),
		Columns: []string{"k", "op", "pred", "est_dL", "act_dL", "errL%", "est_dR", "act_dR", "errR%"},
	}
	for _, s := range r.Samples {
		t.AddRow(s.K, s.Op, s.Pred,
			s.EstDL, s.ActDL, s.ErrL*100,
			s.EstDR, s.ActDR, s.ErrR*100)
	}
	return t
}
