// Quickstart: generate two ranked relations, ask the rank-aware optimizer
// for the top-5 join results by combined score, and inspect the chosen plan.
package main

import (
	"fmt"
	"log"

	"rankopt/internal/core"
	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/logical"
	"rankopt/internal/plan"
	"rankopt/internal/workload"
)

func main() {
	// 1. Synthetic data: two tables T1, T2 of 10k rows with uniform scores,
	//    join keys tuned for selectivity 0.01, plus score and key indexes.
	cat, names := workload.RankedSet(2, workload.RankedConfig{
		N: 10000, Selectivity: 0.01, Seed: 7,
	})
	fmt.Println("tables:", names)

	// 2. The query: top-5 join results ranked on 0.4*T1.score + 0.6*T2.score.
	q := &logical.Query{
		Tables: []string{"T1", "T2"},
		Joins: []logical.JoinPred{
			{L: expr.Col("T1", "key"), R: expr.Col("T2", "key")},
		},
		Score: expr.Sum(
			expr.ScoreTerm{Weight: 0.4, E: expr.Col("T1", "score")},
			expr.ScoreTerm{Weight: 0.6, E: expr.Col("T2", "score")},
		),
		K: 5,
	}

	// 3. Optimize: ranking is an interesting property, so the plan space
	//    includes rank-join (HRJN/NRJN) plans next to join-then-sort plans.
	res, err := core.Optimize(cat, q, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimizer: %d candidate plans, %d kept in MEMO\n",
		res.PlansGenerated, res.PlansKept)
	fmt.Print(plan.Explain(res.Best))

	// 4. Execute.
	op, err := plan.CompileWith(cat, res.Best, plan.Config{})
	if err != nil {
		log.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range rows {
		n := len(row)
		fmt.Printf("rank %s  score %s  (T1.id=%s, T2.id=%s)\n",
			row[n-1], row[n-2], row[0], row[3])
	}
}
