package oracle

import (
	"fmt"
	"testing"

	"rankopt/internal/core"
	"rankopt/internal/exec"
	"rankopt/internal/plan"
	"rankopt/internal/sqlparse"
	"rankopt/internal/workload"
)

// TestAnyKDifferentialCorpus runs the any-k pass over the fixed seed corpus:
// with the competing ranked operators disabled, every case must enumerate at
// least one AnyK plan (no silent fallback) and every such plan must agree
// with brute force through both execution drains.
func TestAnyKDifferentialCorpus(t *testing.T) {
	n := corpusSize()
	plans := 0
	for seed := int64(1); seed <= int64(n); seed++ {
		c := Generate(seed)
		rep, err := RunAnyK(c)
		if err != nil {
			writeReproducer(t, c, err)
			t.Fatalf("anyk oracle disagreement: %v", err)
		}
		plans += rep.AnyKPlans
	}
	t.Logf("anyk oracle: %d queries, %d AnyK plans executed, all agreed", n, plans)
	if plans < n {
		t.Fatalf("fewer AnyK plans than queries: %d over %d", plans, n)
	}
}

// anyKWinCase builds a query shape where the any-k enumerator should be the
// DP winner: unordered inputs with a moderate fan-out, where HRJN-family
// plans pay for ranked access and buffer combinatorial partials.
type anyKWinCase struct {
	name string
	m    int
	n    int
	sel  float64
	k    int
	star bool
}

func (w anyKWinCase) build(seed int64) (*Case, string) {
	cat, names := workload.RankedSet(w.m, workload.RankedConfig{
		N: w.n, Selectivity: w.sel, Seed: seed,
	})
	sql := "SELECT * FROM "
	for i, name := range names {
		if i > 0 {
			sql += ", "
		}
		sql += name
	}
	sql += " WHERE "
	for i := 1; i < w.m; i++ {
		if i > 1 {
			sql += " AND "
		}
		if w.star {
			// Star: every spoke joins the hub table.
			sql += fmt.Sprintf("%s.key = %s.key", names[0], names[i])
		} else {
			// Chain: each table joins its predecessor.
			sql += fmt.Sprintf("%s.key = %s.key", names[i-1], names[i])
		}
	}
	sql += " ORDER BY "
	for i, name := range names {
		if i > 0 {
			sql += " + "
		}
		sql += name + ".score"
	}
	sql += fmt.Sprintf(" DESC LIMIT %d", w.k)
	c := &Case{Seed: seed, SQL: sql, Tables: w.m, K: w.k, cat: cat, names: names}
	return c, sql
}

// TestAnyKWinsPlanChoice pins the planner crossover: on 3- and 4-way chains
// and stars over unordered data with a real per-key fan-out, the DP must pick
// an AnyK plan under *default* options — no competitor disabled — and that
// winning plan must agree with brute force.
func TestAnyKWinsPlanChoice(t *testing.T) {
	cases := []anyKWinCase{
		// m=3 needs the deep-dig regime (low selectivity, larger k) before
		// the any-k build beats HRJN's depth cost; m=4 crosses over already
		// at small k because the eager combine explodes with width.
		{name: "chain3", m: 3, n: 400, sel: 0.01, k: 50},
		{name: "chain4", m: 4, n: 300, sel: 0.02, k: 10},
		{name: "star3", m: 3, n: 400, sel: 0.01, k: 50, star: true},
		{name: "star4", m: 4, n: 300, sel: 0.02, k: 10, star: true},
	}
	for _, w := range cases {
		w := w
		t.Run(w.name, func(t *testing.T) {
			c, sql := w.build(4242)
			q, err := sqlparse.Parse(sql)
			if err != nil {
				t.Fatalf("parse %q: %v", sql, err)
			}
			res, err := core.Optimize(c.cat, q, core.Options{})
			if err != nil {
				t.Fatalf("optimize: %v", err)
			}
			if res.Best.CountOps(plan.OpAnyK) == 0 {
				t.Fatalf("DP did not pick AnyK for %s:\n%s", sql, plan.Explain(res.Best))
			}
			want, err := c.reference(q)
			if err != nil {
				t.Fatal(err)
			}
			op, err := plan.CompileWith(c.cat, res.Best, plan.Config{})
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			tuples, err := exec.Collect(op)
			if err != nil {
				t.Fatalf("execute: %v", err)
			}
			got := make([]float64, len(tuples))
			for i, tup := range tuples {
				got[i] = tup[len(tup)-2].AsFloat()
			}
			if err := compareScores(want, got); err != nil {
				t.Fatalf("winning AnyK plan disagrees with brute force: %v", err)
			}
			// The greedy fast path must also surface the any-k candidate on
			// this shape (it compares the full-mask enumerator against its
			// left-deep walk).
			gres, err := core.Optimize(c.cat, q, core.Options{Planner: core.PlannerGreedy})
			if err != nil {
				t.Fatalf("greedy optimize: %v", err)
			}
			if gres.Best.CountOps(plan.OpAnyK) == 0 {
				t.Logf("note: greedy picked a non-AnyK plan:\n%s", plan.Explain(gres.Best))
			}
		})
	}
}
