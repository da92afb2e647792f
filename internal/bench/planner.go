package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/exec"
	"rankopt/internal/plan"
	"rankopt/internal/sqlparse"
	"rankopt/internal/workload"
)

// PlannerConfig parameterizes the two-speed planner comparison: the m-way
// ranked chain join is optimized with the System-R DP and with the greedy
// fast path at each selectivity, measuring planning wall time and the cost
// of the chosen plan; a small same-shape catalog then executes both plans
// and cross-checks the top-k answers.
type PlannerConfig struct {
	// Tables is the chain-join width planned at each point.
	Tables int `json:"tables"`
	// Rows is the per-table cardinality of the planning catalog (planning
	// time only; the parity execution uses ExecRows).
	Rows int `json:"rows"`
	// ExecRows is the per-table cardinality of the small parity catalog
	// both chosen plans execute against.
	ExecRows int `json:"exec_rows"`
	// Selectivities are the swept join selectivities.
	Selectivities []float64 `json:"selectivities"`
	// K is the LIMIT bound.
	K int `json:"k"`
	// Trials is how many timed optimizer runs the median is taken over.
	Trials int `json:"trials"`
	// Seed drives the workload generator.
	Seed int64 `json:"seed"`
}

// DefaultPlannerConfig sweeps the 4-way join — wide enough that the DP's
// exponential enumeration has real work to amortize — across three
// selectivity decades.
func DefaultPlannerConfig() PlannerConfig {
	return PlannerConfig{
		Tables:        4,
		Rows:          5000,
		ExecRows:      120,
		Selectivities: []float64{0.001, 0.01, 0.05},
		K:             10,
		Trials:        9,
		Seed:          17,
	}
}

// PlannerPoint is one selectivity's comparison: median planning time per
// planner, the speedup, the k-cost of each chosen plan under the shared
// cost model, their ratio, and whether the two plans' executed top-k
// answers agreed on the parity catalog.
type PlannerPoint struct {
	Selectivity float64 `json:"selectivity"`
	// Seed is the per-point workload seed (derived from Config.Seed), stamped
	// so a single point can be reproduced without rerunning the sweep.
	Seed         int64   `json:"seed"`
	DPMicros     float64 `json:"dp_plan_us"`
	GreedyMicros float64 `json:"greedy_plan_us"`
	Speedup      float64 `json:"speedup"`
	DPCost       float64 `json:"dp_cost"`
	GreedyCost   float64 `json:"greedy_cost"`
	CostRatio    float64 `json:"cost_ratio"`
	// Fallback is true when the greedy planner declined the shape and the
	// DP produced the plan (never expected on this sweep).
	Fallback bool `json:"fallback"`
	// ResultsMatch is the executed parity verdict.
	ResultsMatch bool `json:"results_match"`
}

// PlannerReport is the BENCH_planner.json artifact.
type PlannerReport struct {
	Config   PlannerConfig  `json:"config"`
	MaxProcs int            `json:"gomaxprocs"`
	CPUs     int            `json:"cpus"`
	Points   []PlannerPoint `json:"points"`
	// MedianSpeedup aggregates the per-point planning-time speedups.
	MedianSpeedup float64 `json:"median_speedup"`
	// WorstCostRatio is the largest greedy/DP plan-cost ratio of the sweep.
	WorstCostRatio float64 `json:"worst_cost_ratio"`
}

// chainSQL builds the canonical m-way ranked chain join.
func chainSQL(tables, k int) string {
	sql := "SELECT * FROM T1"
	for i := 2; i <= tables; i++ {
		sql += fmt.Sprintf(", T%d", i)
	}
	sql += " WHERE "
	for i := 2; i <= tables; i++ {
		if i > 2 {
			sql += " AND "
		}
		sql += fmt.Sprintf("T%d.key = T%d.key", i-1, i)
	}
	sql += " ORDER BY T1.score"
	for i := 2; i <= tables; i++ {
		sql += fmt.Sprintf(" + T%d.score", i)
	}
	return fmt.Sprintf("%s DESC LIMIT %d", sql, k)
}

// medianMicros times fn trials times and returns the median in microseconds.
func medianMicros(trials int, fn func()) float64 {
	times := make([]float64, trials)
	for i := range times {
		start := time.Now()
		fn()
		times[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	sort.Float64s(times)
	return times[len(times)/2]
}

// topKScores executes a plan and extracts the combined-score column.
func topKScores(cat *catalog.Catalog, root *plan.Node) ([]float64, error) {
	op, err := plan.CompileWith(cat, root, plan.Config{})
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	tuples, err := exec.Collect(op)
	if err != nil {
		return nil, fmt.Errorf("execute: %w", err)
	}
	out := make([]float64, len(tuples))
	for i, t := range tuples {
		// SELECT * keeps the RankAssign layout: score at len-2.
		out[i] = t[len(t)-2].AsFloat()
	}
	return out, nil
}

// Planner runs the sweep.
func Planner(cfg PlannerConfig) (*PlannerReport, error) {
	if cfg.Tables < 2 || cfg.Trials < 1 || len(cfg.Selectivities) == 0 {
		return nil, fmt.Errorf("bench: degenerate planner config %+v", cfg)
	}
	rep := &PlannerReport{
		Config: cfg, MaxProcs: runtime.GOMAXPROCS(0), CPUs: runtime.NumCPU(),
	}
	sql := chainSQL(cfg.Tables, cfg.K)
	q, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, fmt.Errorf("bench: parse %q: %w", sql, err)
	}
	var speedups []float64
	for si, sel := range cfg.Selectivities {
		// Each sweep point gets its own derived seed: reusing cfg.Seed at
		// every selectivity made all points share one key/score draw, so a
		// generator quirk at that seed skewed the whole sweep.
		seed := cfg.Seed + int64(si)*1009
		cat, _ := workload.RankedSet(cfg.Tables, workload.RankedConfig{
			N: cfg.Rows, Selectivity: sel, Seed: seed,
		})
		// One untimed warmup per planner settles one-time costs (stats
		// loading, allocator warmth) outside the measurement.
		dpRes, err := core.Optimize(cat, q, core.Options{})
		if err != nil {
			return nil, fmt.Errorf("bench: dp optimize sel=%g: %w", sel, err)
		}
		gRes, err := core.Optimize(cat, q, core.Options{Planner: core.PlannerGreedy})
		if err != nil {
			return nil, fmt.Errorf("bench: greedy optimize sel=%g: %w", sel, err)
		}
		pt := PlannerPoint{
			Selectivity: sel,
			Seed:        seed,
			DPMicros: medianMicros(cfg.Trials, func() {
				_, _ = core.Optimize(cat, q, core.Options{})
			}),
			GreedyMicros: medianMicros(cfg.Trials, func() {
				_, _ = core.Optimize(cat, q, core.Options{Planner: core.PlannerGreedy})
			}),
			DPCost:     dpRes.Best.Cost(float64(cfg.K)),
			GreedyCost: gRes.Best.Cost(float64(cfg.K)),
			Fallback:   gRes.GreedyFallback,
		}
		pt.Speedup = pt.DPMicros / math.Max(pt.GreedyMicros, 1e-3)
		pt.CostRatio = pt.GreedyCost / math.Max(pt.DPCost, 1e-9)

		// Parity: both plan shapes re-planned over a small catalog of the
		// same selectivity must produce identical top-k score sequences.
		ecat, _ := workload.RankedSet(cfg.Tables, workload.RankedConfig{
			N: cfg.ExecRows, Selectivity: sel, Seed: seed + 1,
		})
		dpE, err1 := core.Optimize(ecat, q, core.Options{})
		gE, err2 := core.Optimize(ecat, q, core.Options{Planner: core.PlannerGreedy})
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bench: parity optimize sel=%g: %v / %v", sel, err1, err2)
		}
		dScores, err1 := topKScores(ecat, dpE.Best)
		gScores, err2 := topKScores(ecat, gE.Best)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bench: parity execute sel=%g: %v / %v", sel, err1, err2)
		}
		pt.ResultsMatch = len(dScores) == len(gScores)
		if pt.ResultsMatch {
			for i := range dScores {
				if math.Abs(dScores[i]-gScores[i]) > 1e-9*math.Max(math.Abs(dScores[i]), 1) {
					pt.ResultsMatch = false
					break
				}
			}
		}
		rep.Points = append(rep.Points, pt)
		speedups = append(speedups, pt.Speedup)
		rep.WorstCostRatio = math.Max(rep.WorstCostRatio, pt.CostRatio)
	}
	sort.Float64s(speedups)
	rep.MedianSpeedup = speedups[len(speedups)/2]
	return rep, nil
}

// CheckGates is the CI gate: greedy planning must be at least minSpeedup
// times faster than the DP (median over the sweep), every chosen greedy
// plan must cost within maxQualityLoss of the DP's plan under the shared
// model (0.2 = within 20%), every point's executed answers must agree, and
// the greedy path must actually have planned (no silent DP fallback).
func (r *PlannerReport) CheckGates(minSpeedup, maxQualityLoss float64) error {
	if r.MedianSpeedup < minSpeedup {
		return fmt.Errorf("bench: greedy planning speedup %.1fx below gate %.1fx",
			r.MedianSpeedup, minSpeedup)
	}
	if r.WorstCostRatio > 1+maxQualityLoss {
		return fmt.Errorf("bench: greedy plan cost ratio %.2f exceeds gate %.2f",
			r.WorstCostRatio, 1+maxQualityLoss)
	}
	for _, pt := range r.Points {
		if pt.Fallback {
			return fmt.Errorf("bench: greedy fell back to the DP at sel=%g", pt.Selectivity)
		}
		if !pt.ResultsMatch {
			return fmt.Errorf("bench: greedy and DP answers diverged at sel=%g", pt.Selectivity)
		}
	}
	return nil
}

// JSON renders the artifact bytes.
func (r *PlannerReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Table renders the report in the bench text format.
func (r *PlannerReport) Table() *Table {
	t := &Table{
		Title: "Two-speed planner: DP vs greedy (planning time and plan quality)",
		Note: fmt.Sprintf("%d-way chain join, %d rows/table, k=%d | median speedup=%.1fx worst cost ratio=%.2f",
			r.Config.Tables, r.Config.Rows, r.Config.K, r.MedianSpeedup, r.WorstCostRatio),
		Columns: []string{"sel", "dp_us", "greedy_us", "speedup", "dp_cost", "greedy_cost", "ratio", "match"},
	}
	for _, pt := range r.Points {
		t.AddRow(pt.Selectivity, pt.DPMicros, pt.GreedyMicros, pt.Speedup,
			pt.DPCost, pt.GreedyCost, pt.CostRatio, pt.ResultsMatch)
	}
	return t
}
