package main

import (
	"fmt"
	"math"
	"sort"

	"rankopt/internal/catalog"
	"rankopt/internal/relation"
)

// scoreTolerance is the absolute difference, relative to max(1, |want|),
// allowed between an engine score and the reference score: the engine may
// sum a chain's scores in another order than the reference does.
const scoreTolerance = 1e-9

// reference computes top-k score sequences straight from the base tables,
// without the engine: a same-key chain joins only rows that share one key,
// so each key group's best sums are found on its own and merged.
type reference struct {
	tables map[string]*refTable
	memo   map[string][]float64
}

// refTable is one base table's rows grouped by key, each group sorted by
// descending score.
type refTable struct {
	byKey map[int64][]refRow
}

type refRow struct {
	id    int64
	score float64
}

func newReference(cat *catalog.Catalog) (*reference, error) {
	r := &reference{tables: map[string]*refTable{}, memo: map[string][]float64{}}
	for _, name := range cat.Names() {
		tab, err := cat.Table(name)
		if err != nil {
			return nil, err
		}
		sch := tab.Rel.Schema()
		idPos, err1 := sch.Resolve(name, "id")
		keyPos, err2 := sch.Resolve(name, "key")
		scorePos, err3 := sch.Resolve(name, "score")
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("reference: table %s lacks id/key/score", name)
		}
		rt := &refTable{byKey: map[int64][]refRow{}}
		for _, t := range tab.Rel.Tuples() {
			k := t[keyPos].AsInt()
			rt.byKey[k] = append(rt.byKey[k], refRow{id: t[idPos].AsInt(), score: t[scorePos].AsFloat()})
		}
		for _, rows := range rt.byKey {
			sort.Slice(rows, func(a, b int) bool { return rows[a].score > rows[b].score })
		}
		r.tables[name] = rt
	}
	return r, nil
}

// topK returns q's top-k scores in descending order.
func (r *reference) topK(q query) []float64 {
	sql := q.SQL()
	if got, ok := r.memo[sql]; ok {
		return got
	}
	first := r.tables[q.Tables[0]]
	var all []float64
	for key := range first.byKey {
		acc := []float64{0}
		for _, name := range q.Tables {
			scores := r.groupScores(name, key, q)
			acc = topSums(acc, scores, q.K)
			if len(acc) == 0 {
				break
			}
		}
		all = append(all, acc...)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(all)))
	if len(all) > q.K {
		all = all[:q.K]
	}
	r.memo[sql] = all
	return all
}

// groupScores returns the best k scores of table name's key group that
// pass q's filter, in descending order.
func (r *reference) groupScores(name string, key int64, q query) []float64 {
	var out []float64
	for _, row := range r.tables[name].byKey[key] {
		if len(out) == q.K {
			break
		}
		if name == q.FilterTable && row.id >= q.FilterBelow {
			continue
		}
		out = append(out, row.score)
	}
	return out
}

// topSums returns the k largest a[i]+b[j] in descending order, given a and
// b in descending order. The pair (i, j) is beaten by at least
// (i+1)(j+1)-1 other pairs, so only pairs with (i+1)(j+1) <= k can place.
func topSums(a, b []float64, k int) []float64 {
	var out []float64
	for i := 0; i < len(a) && i < k; i++ {
		for j := 0; j < len(b) && (i+1)*(j+1) <= k; j++ {
			out = append(out, a[i]+b[j])
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// checkScores compares an answer's score sequence with the reference and
// describes the first difference ("" when they agree).
func checkScores(got, want []float64) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d answers, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > scoreTolerance*math.Max(1, math.Abs(want[i])) {
			return fmt.Sprintf("score %d is %.12g, want %.12g", i, got[i], want[i])
		}
	}
	return ""
}

// answerScores extracts the ranking score column from an answer.
func answerScores(cols []string, tuples []relation.Tuple) ([]float64, error) {
	pos := -1
	for i, c := range cols {
		if c == "score" {
			pos = i
		}
	}
	if pos < 0 {
		return nil, fmt.Errorf("answer has no score column (columns %v)", cols)
	}
	out := make([]float64, len(tuples))
	for i, t := range tuples {
		out[i] = t[pos].AsFloat()
	}
	return out, nil
}
