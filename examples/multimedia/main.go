// Multimedia similarity search — the paper's motivating workload (its
// Query Q): "retrieve the k most similar video shots to a given image based
// on m visual features". Every feature (ColorHist, ColorLayout, Texture,
// Edges) ranks the same stored objects by one similarity score.
//
// The example answers the query two ways:
//
//  1. as a top-k *selection* with classic rank-aggregation algorithms (TA
//     and NRA) over the per-feature ranked lists, and
//  2. as a top-k *join* through the rank-aware optimizer, which builds a
//     pipeline of HRJN operators over the feature relations,
//
// then compares the access effort (depths) with the Section 4 estimate.
package main

import (
	"fmt"
	"log"

	"rankopt/internal/catalog"
	"rankopt/internal/core"
	"rankopt/internal/estimate"
	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/logical"
	"rankopt/internal/plan"
	"rankopt/internal/ranking"
	"rankopt/internal/workload"
)

const (
	objects = 5000
	topK    = 10
)

func main() {
	cat, features := workload.Corpus(workload.CorpusConfig{
		Objects: objects, Features: 4, Seed: 99,
	})
	weights := []float64{0.4, 0.3, 0.2, 0.1}
	fmt.Printf("corpus: %d video objects, features %v, weights %v\n\n",
		objects, features, weights)

	topKSelection(cat, features, weights)
	topKJoin(cat, features, weights)
}

// topKSelection treats each feature relation as a ranked list of the same
// objects and aggregates with TA and NRA.
func topKSelection(cat *catalog.Catalog, features []string, weights []float64) {
	lists := make([]*ranking.ListSource, len(features))
	for i, f := range features {
		tab, err := cat.Table(f)
		if err != nil {
			log.Fatal(err)
		}
		ids := make([]int64, tab.Rel.Cardinality())
		scores := make([]float64, tab.Rel.Cardinality())
		for j, tup := range tab.Rel.Tuples() {
			ids[j] = tup[0].AsInt()
			scores[j] = tup[1].AsFloat()
		}
		lists[i] = ranking.NewListSource(ids, scores)
	}

	srcs := make([]ranking.Source, len(lists))
	for i, l := range lists {
		srcs[i] = l
	}
	taRes, taStats, err := ranking.TA(srcs, weights, topK)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- top-k selection via TA (sorted + random access) --")
	for i, r := range taRes {
		fmt.Printf("  %2d. object %4d  score %.4f\n", i+1, r.ID, r.Score)
	}
	fmt.Printf("  effort: %d sorted + %d random accesses (naive scan: %d)\n\n",
		taStats.TotalSorted(), taStats.TotalRandom(), objects*len(features))

	for _, l := range lists {
		l.Reset()
	}
	sorted := make([]ranking.SortedAccess, len(lists))
	for i, l := range lists {
		sorted[i] = l
	}
	nraRes, nraStats, err := ranking.NRA(sorted, weights, topK)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- top-k selection via NRA (sorted access only) --")
	fmt.Printf("  same top-%d set: %v\n", topK, sameSet(taRes, nraRes))
	fmt.Printf("  effort: %d sorted accesses\n\n", nraStats.TotalSorted())
}

// topKJoin runs the same similarity query through the rank-aware optimizer
// as a 4-way top-k join on object id.
func topKJoin(cat *catalog.Catalog, features []string, weights []float64) {
	q := &logical.Query{Tables: features, K: topK}
	for i, f := range features {
		q.Score.Terms = append(q.Score.Terms,
			expr.ScoreTerm{Weight: weights[i], E: expr.Col(f, "score")})
		if i > 0 {
			q.Joins = append(q.Joins, logical.JoinPred{
				L: expr.Col(features[i-1], "id"), R: expr.Col(f, "id"),
			})
		}
	}
	res, err := core.Optimize(cat, q, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- top-k join via the rank-aware optimizer --")
	fmt.Print(plan.Explain(res.Best))

	op, err := plan.CompileWith(cat, res.Best, plan.Config{})
	if err != nil {
		log.Fatal(err)
	}
	rows, err := exec.Collect(op)
	if err != nil {
		log.Fatal(err)
	}
	for i, row := range rows {
		n := len(row)
		fmt.Printf("  %2d. object %s  score %s\n", i+1, row[0], row[n-2])
	}

	// Estimate how deep a 4-way rank-join pipeline must read (id joins have
	// selectivity 1/objects).
	tree, err := estimate.LeftDeep(4, objects, 1.0/objects, 1.0/objects)
	if err != nil {
		log.Fatal(err)
	}
	if err := estimate.Propagate(tree, topK, estimate.ModeAvg); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n  estimated top rank-join depths for k=%d: dL=%.0f dR=%.0f (of %d tuples)\n",
		topK, tree.DL, tree.DR, objects)
}

func sameSet(a, b []ranking.Result) bool {
	set := map[int64]bool{}
	for _, r := range a {
		set[r.ID] = true
	}
	for _, r := range b {
		if !set[r.ID] {
			return false
		}
	}
	return true
}
