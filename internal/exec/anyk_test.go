package exec

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
	"rankopt/internal/workload"
)

// anykFixture builds m ranked relations joined in a path on their shared key
// column and the AnyK operator over *unsorted* scans — the operator's input
// contract, unlike the HRJN family's descending-score requirement.
func anykFixture(t testing.TB, m, n int, sel float64, seed int64) ([]*relation.Relation, *AnyK) {
	t.Helper()
	rels := make([]*relation.Relation, m)
	inputs := make([]Operator, m)
	scores := make([]expr.Expr, m)
	lkeys := make([]expr.Expr, m-1)
	rkeys := make([]expr.Expr, m-1)
	for i := 0; i < m; i++ {
		name := string(rune('A' + i))
		rels[i] = workload.Ranked(workload.RankedConfig{
			Name: name, N: n, Selectivity: sel, Seed: seed + int64(i),
		})
		inputs[i] = NewSeqScan(rels[i])
		scores[i] = expr.Col(name, "score")
		if i < m-1 {
			lkeys[i] = expr.Col(name, "key")
		}
		if i > 0 {
			rkeys[i-1] = expr.Col(name, "key")
		}
	}
	j, err := NewAnyK(inputs, scores, lkeys, rkeys)
	if err != nil {
		t.Fatal(err)
	}
	return rels, j
}

func TestAnyKTopKMatchesReference(t *testing.T) {
	for _, m := range []int{2, 3, 4} {
		rels, j := anykFixture(t, m, 250, 0.05, 1100+int64(m))
		k := 12
		got, err := CollectK(j, k)
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		want := refMultiTopK(rels, k)
		if len(got) != len(want) {
			t.Fatalf("m=%d: %d results, want %d", m, len(got), len(want))
		}
		for i := range want {
			if math.Abs(combinedScoreM(got[i], m)-want[i]) > 1e-9 {
				t.Fatalf("m=%d rank %d: %v, want %v", m, i, combinedScoreM(got[i], m), want[i])
			}
		}
	}
}

// The full enumeration must agree with MultiHRJN result-for-result on
// scores: same join, same ranking, different algorithm.
func TestAnyKAgreesWithMultiHRJN(t *testing.T) {
	rels, j := anykFixture(t, 3, 200, 0.06, 1150)
	got, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]Operator, len(rels))
	scores := make([]expr.Expr, len(rels))
	keys := make([]expr.Expr, len(rels))
	for i, r := range rels {
		inputs[i] = rankedScan(r)
		scores[i] = expr.Col(r.Name, "score")
		keys[i] = expr.Col(r.Name, "key")
	}
	h, err := NewMultiHRJN(inputs, scores, keys)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Collect(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("AnyK emitted %d results, MultiHRJN %d", len(got), len(want))
	}
	for i := range want {
		gs := combinedScoreM(got[i], 3)
		ws := combinedScoreM(want[i], 3)
		if math.Abs(gs-ws) > 1e-9 {
			t.Fatalf("rank %d: AnyK %v vs MultiHRJN %v", i, gs, ws)
		}
	}
}

// Two runs over the same inputs must emit byte-identical tuple sequences:
// the successor partition plus FIFO tie-breaking leaves no nondeterminism.
func TestAnyKDeterministicTieBreak(t *testing.T) {
	run := func() []relation.Tuple {
		// Heavy ties: every score is drawn from a 3-value set.
		a := makeRel("A", [][3]float64{{0, 1, 0.5}, {1, 1, 0.5}, {2, 2, 0.7}, {3, 2, 0.3}})
		b := makeRel("B", [][3]float64{{0, 1, 0.5}, {1, 1, 0.7}, {2, 2, 0.5}, {3, 2, 0.5}})
		c := makeRel("C", [][3]float64{{0, 1, 0.3}, {1, 2, 0.5}, {2, 2, 0.5}})
		j, err := NewAnyK(
			[]Operator{NewSeqScan(a), NewSeqScan(b), NewSeqScan(c)},
			[]expr.Expr{expr.Col("A", "score"), expr.Col("B", "score"), expr.Col("C", "score")},
			[]expr.Expr{expr.Col("A", "key"), expr.Col("B", "key")},
			[]expr.Expr{expr.Col("B", "key"), expr.Col("C", "key")})
		if err != nil {
			t.Fatal(err)
		}
		out, err := Collect(j)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	first, second := run(), run()
	if len(first) != len(second) {
		t.Fatalf("runs disagree on cardinality: %d vs %d", len(first), len(second))
	}
	for i := range first {
		for c := range first[i] {
			if first[i][c] != second[i][c] {
				t.Fatalf("rank %d col %d differs across runs: %v vs %v", i, c, first[i][c], second[i][c])
			}
		}
	}
}

func TestAnyKValidation(t *testing.T) {
	rel := makeRel("A", [][3]float64{{0, 1, 0.5}})
	score := expr.Col("A", "score")
	key := expr.Col("A", "key")
	if _, err := NewAnyK([]Operator{NewSeqScan(rel)},
		[]expr.Expr{score}, nil, nil); err == nil {
		t.Error("single input must be rejected")
	}
	if _, err := NewAnyK(
		[]Operator{NewSeqScan(rel), NewSeqScan(rel)},
		[]expr.Expr{score},
		[]expr.Expr{key}, []expr.Expr{key}); err == nil {
		t.Error("arity mismatch must be rejected")
	}
	wide := make([]Operator, anykMaxWidth+1)
	scores := make([]expr.Expr, anykMaxWidth+1)
	keys := make([]expr.Expr, anykMaxWidth)
	for i := range wide {
		wide[i] = NewSeqScan(rel)
		scores[i] = score
	}
	for i := range keys {
		keys[i] = key
	}
	if _, err := NewAnyK(wide, scores, keys, keys); err == nil {
		t.Errorf("width beyond %d must be rejected", anykMaxWidth)
	}
}

func TestAnyKEmptyInput(t *testing.T) {
	a := makeRel("A", [][3]float64{{0, 1, 0.5}})
	b := makeRel("B", nil)
	j, err := NewAnyK(
		[]Operator{NewSeqScan(a), NewSeqScan(b)},
		[]expr.Expr{expr.Col("A", "score"), expr.Col("B", "score")},
		[]expr.Expr{expr.Col("A", "key")},
		[]expr.Expr{expr.Col("B", "key")})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(j)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input join = %v, %v", got, err)
	}
}

func TestAnyKNaNScoreRejected(t *testing.T) {
	a := makeRel("A", [][3]float64{{0, 1, math.NaN()}, {1, 1, 0.5}})
	b := makeRel("B", [][3]float64{{0, 1, 0.5}})
	j, err := NewAnyK(
		[]Operator{NewSeqScan(a), NewSeqScan(b)},
		[]expr.Expr{expr.Col("A", "score"), expr.Col("B", "score")},
		[]expr.Expr{expr.Col("A", "key")},
		[]expr.Expr{expr.Col("B", "key")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(j); err == nil {
		t.Fatal("NaN score must fail the build")
	}
}

// Reopening after a full drain must replay the identical result stream.
func TestAnyKReopen(t *testing.T) {
	_, j := anykFixture(t, 3, 120, 0.1, 1200)
	first, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Collect(j)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("reopen replay: %d then %d results", len(first), len(second))
	}
	for i := range first {
		if math.Abs(combinedScoreM(first[i], 3)-combinedScoreM(second[i], 3)) > 1e-9 {
			t.Fatalf("rank %d differs across reopen", i)
		}
	}
}

func TestAnyKStatsAndGauges(t *testing.T) {
	_, j := anykFixture(t, 3, 150, 0.08, 1250)
	out, err := CollectK(j, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Re-open to inspect gauges before Close wipes state.
	if err := j.OpenCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.Next(); err != nil {
		t.Fatal(err)
	}
	depths := j.Depths()
	if len(depths) != 3 {
		t.Fatalf("Depths len = %d", len(depths))
	}
	for i, d := range depths {
		// The build drains every input fully.
		if d != 150 {
			t.Fatalf("input %d depth %d, want 150", i, d)
		}
	}
	if j.MaxQueue() == 0 {
		t.Error("queue high-water not recorded")
	}
	st := j.Stats()
	if st.LeftDepth != depths[0] || st.RightDepth != depths[2] || st.Emitted != 1 {
		t.Errorf("Stats = %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_ = out
}

// Cancellation mid-build surfaces the typed error within the polling cadence,
// leaves the budget fully released after Close, and leaks no goroutines (the
// operator is single-threaded; the check guards against a future async build).
func TestAnyKQueryCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	b := NewBudget(ResourceLimits{MaxBufferedTuples: 1 << 20})
	_, j := anykFixture(t, 3, 4000, 0.02, 1300)
	j.Budget = b
	ctx, cancel := context.WithCancel(context.Background())
	if err := j.OpenCtx(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	var err error
	for i := 0; i < 2*cancelCheckPeriod; i++ {
		if _, _, err = j.Next(); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("cancellation not observed: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if b.Buffered() != 0 {
		t.Fatalf("budget not released after cancel+Close: %d still charged", b.Buffered())
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// Cancelling after results have flowed must also surface during enumeration,
// not only during the build.
func TestAnyKCancelMidEnumeration(t *testing.T) {
	_, j := anykFixture(t, 3, 2000, 0.05, 1350)
	ctx, cancel := context.WithCancel(context.Background())
	if err := j.OpenCtx(ctx); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 3; i++ {
		if _, ok, err := j.Next(); err != nil || !ok {
			t.Fatalf("warm-up pull %d: ok=%v err=%v", i, ok, err)
		}
	}
	cancel()
	var err error
	for i := 0; i < 2*cancelCheckPeriod; i++ {
		if _, _, err = j.Next(); err != nil {
			break
		}
	}
	if !errors.Is(err, ErrQueryCancelled) {
		t.Fatalf("cancellation not observed within polling cadence: %v", err)
	}
}

func TestAnyKBudgetExceeded(t *testing.T) {
	b := NewBudget(ResourceLimits{MaxBufferedTuples: 10})
	_, j := anykFixture(t, 3, 4000, 0.02, 1400)
	j.Budget = b
	_, err := Collect(j)
	if err == nil {
		t.Fatal("tiny buffer budget must fail the build")
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("want ErrBudgetExceeded, got %v", err)
	}
	if b.Buffered() != 0 {
		t.Fatalf("budget not released after failed run: %d still charged", b.Buffered())
	}
}

func TestAnyKDepthExceeded(t *testing.T) {
	b := NewBudget(ResourceLimits{MaxDepthPerInput: 7})
	_, j := anykFixture(t, 3, 4000, 0.02, 1450)
	j.Budget = b
	_, err := Collect(j)
	if err == nil {
		t.Fatal("tiny depth cap must fail the drain")
	}
	if !errors.Is(err, ErrDepthExceeded) {
		t.Fatalf("want ErrDepthExceeded, got %v", err)
	}
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("ErrDepthExceeded must wrap ErrBudgetExceeded, got %v", err)
	}
}

// TestAnyKPopAllocs pins the enumeration hot path: after the build, each pop
// costs the output tuple plus amortized heap growth — the inline index
// vectors mean successor pushes allocate nothing. Budget 3 per pop leaves
// room for growth spikes while catching any regression to boxed solutions.
func TestAnyKPopAllocs(t *testing.T) {
	_, j := anykFixture(t, 3, 1500, 0.05, 1500)
	if err := j.OpenCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	// First Next triggers the build; a few more warm the queue.
	for i := 0; i < 32; i++ {
		if _, ok, err := j.Next(); err != nil || !ok {
			t.Fatalf("warm-up pull %d: ok=%v err=%v", i, ok, err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok, err := j.Next(); err != nil || !ok {
			t.Fatalf("pop failed: ok=%v err=%v", ok, err)
		}
	})
	t.Logf("AnyK: %.2f allocs per pop", allocs)
	if allocs > 3.0 {
		t.Errorf("AnyK pop hot path allocates %.2f/pop, budget 3.0", allocs)
	}
}

// refAnyKEntry, refAnyKSol and refAnyKQueue make up anykEagerRef, the
// sort-everything any-k build and Lawler enumeration that the lazy build
// must reproduce answer for answer.
type refAnyKEntry struct {
	tuple         relation.Tuple
	score, suffix float64
	next          []refAnyKEntry
	ord           int
}

type refAnyKSol struct {
	score    float64
	seq, dev int
	idx      []int
}

type refAnyKQueue []refAnyKSol

func (q refAnyKQueue) Len() int { return len(q) }
func (q refAnyKQueue) Less(i, j int) bool {
	if q[i].score != q[j].score {
		return q[i].score > q[j].score
	}
	return q[i].seq < q[j].seq
}
func (q refAnyKQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refAnyKQueue) Push(x any)   { *q = append(*q, x.(refAnyKSol)) }
func (q *refAnyKQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// anykEagerRef enumerates the first k results (all when k < 0) of the
// same-key path join over rels the eager way: drain every level, bucket
// levels 1..m-1 by HashKey, fully sort every bucket and the root by suffix
// descending then drain order, and pop a FIFO-tie-broken solution queue.
func anykEagerRef(t *testing.T, rels []*relation.Relation, k int) []relation.Tuple {
	t.Helper()
	m := len(rels)
	bind := func(col string, r *relation.Relation) expr.Eval {
		ev, err := expr.Col(r.Name, col).Bind(r.Schema())
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}
	eval := func(ev expr.Eval, tu relation.Tuple) relation.Value {
		v, err := ev(tu)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	order := func(b []refAnyKEntry) {
		sort.Slice(b, func(x, y int) bool {
			if b[x].suffix != b[y].suffix {
				return b[x].suffix > b[y].suffix
			}
			return b[x].ord < b[y].ord
		})
	}
	var root []refAnyKEntry
	var byKey map[any][]refAnyKEntry
	for lvl := m - 1; lvl >= 0; lvl-- {
		r := rels[lvl]
		score, key := bind("score", r), bind("key", r)
		var kept []refAnyKEntry
		ord := 0
		for _, tu := range r.Tuples() {
			sv := eval(score, tu)
			if sv.IsNull() {
				continue
			}
			e := refAnyKEntry{tuple: tu, score: sv.AsFloat(), suffix: sv.AsFloat(), ord: ord}
			ord++
			if lvl < m-1 {
				kv := eval(key, tu)
				if kv.IsNull() || len(byKey[kv.HashKey()]) == 0 {
					continue
				}
				e.next = byKey[kv.HashKey()]
				e.suffix += e.next[0].suffix
			}
			kept = append(kept, e)
		}
		if lvl == 0 {
			order(kept)
			root = kept
			break
		}
		byKey = map[any][]refAnyKEntry{}
		for _, e := range kept {
			if kv := eval(key, e.tuple); !kv.IsNull() {
				byKey[kv.HashKey()] = append(byKey[kv.HashKey()], e)
			}
		}
		for _, b := range byKey {
			order(b)
		}
	}

	var out []relation.Tuple
	q := &refAnyKQueue{}
	seq := 0
	if len(root) > 0 {
		heap.Push(q, refAnyKSol{score: root[0].suffix, idx: make([]int, m)})
		seq++
	}
	path := make([]*refAnyKEntry, m)
	prefix := make([]float64, m)
	for q.Len() > 0 && (k < 0 || len(out) < k) {
		s := heap.Pop(q).(refAnyKSol)
		bucket := root
		var tup relation.Tuple
		for lvl := range path {
			path[lvl] = &bucket[s.idx[lvl]]
			prefix[lvl] = path[lvl].score
			if lvl > 0 {
				prefix[lvl] += prefix[lvl-1]
			}
			bucket = path[lvl].next
			tup = append(tup, path[lvl].tuple...)
		}
		for lvl := s.dev; lvl < m; lvl++ {
			bucket := root
			if lvl > 0 {
				bucket = path[lvl-1].next
			}
			ni := s.idx[lvl] + 1
			if ni >= len(bucket) {
				continue
			}
			idx := make([]int, m)
			copy(idx, s.idx[:lvl])
			idx[lvl] = ni
			score := bucket[ni].suffix
			if lvl > 0 {
				score += prefix[lvl-1]
			}
			heap.Push(q, refAnyKSol{score: score, seq: seq, dev: lvl, idx: idx})
			seq++
		}
		out = append(out, tup)
	}
	return out
}

// anykParityInputs draws m relations (id, key, score) that stress the
// order contract: scores from a four-value set (heavy ties), NULL scores
// and keys, numeric keys stored as ints or floats of one value (−0 and +0
// included), the odd string key, keys no neighbour has (dead entries), and,
// when empty ≥ 0, a level with no usable row.
func anykParityInputs(rng *rand.Rand, m, empty int) []*relation.Relation {
	rows := 40
	if m > 5 {
		rows = 16
	} else if m > 3 {
		rows = 24
	}
	domain := 4 + rng.Intn(3)
	rels := make([]*relation.Relation, m)
	for i := range rels {
		name := string(rune('A' + i))
		rels[i] = relation.New(name, relation.NewSchema(
			relation.Column{Table: name, Name: "id", Kind: relation.KindInt},
			relation.Column{Table: name, Name: "key", Kind: relation.KindFloat},
			relation.Column{Table: name, Name: "score", Kind: relation.KindFloat},
		))
		n := rows/2 + rng.Intn(rows/2+1)
		if i == empty && rng.Intn(2) == 0 {
			n = 0
		}
		for id := 0; id < n; id++ {
			kv := rng.Intn(domain)
			var key relation.Value
			switch r := rng.Float64(); {
			case r < 0.08:
				key = relation.Null()
			case r < 0.12:
				key = relation.Int(int64(domain + 1 + i)) // matches no neighbour
			case r < 0.15:
				key = relation.String_(fmt.Sprint(kv))
			case kv == 0 && r < 0.4:
				key = relation.Float(math.Copysign(0, -1))
			case r < 0.6:
				key = relation.Float(float64(kv))
			default:
				key = relation.Int(int64(kv))
			}
			score := relation.Float([]float64{0.25, 0.5, 0.5, 1}[rng.Intn(4)])
			if rng.Float64() < 0.1 || i == empty {
				score = relation.Null()
			}
			rels[i].MustAppend(relation.Tuple{relation.Int(int64(id)), key, score})
		}
	}
	return rels
}

// anykOver builds the same-key path AnyK over rels, alternating batch
// (SeqScan) and per-tuple inputs so both drain paths run.
func anykOver(t *testing.T, rels []*relation.Relation) *AnyK {
	t.Helper()
	m := len(rels)
	inputs := make([]Operator, m)
	scores := make([]expr.Expr, m)
	lkeys := make([]expr.Expr, m-1)
	rkeys := make([]expr.Expr, m-1)
	for i, r := range rels {
		inputs[i] = NewSeqScan(r)
		if i%2 == 1 {
			inputs[i] = FromTuples(r.Schema(), r.Tuples())
		}
		scores[i] = expr.Col(r.Name, "score")
		if i < m-1 {
			lkeys[i] = expr.Col(r.Name, "key")
		}
		if i > 0 {
			rkeys[i-1] = expr.Col(r.Name, "key")
		}
	}
	j, err := NewAnyK(inputs, scores, lkeys, rkeys)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func sameTuples(t *testing.T, what string, got, want []relation.Tuple) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: result %d has %d columns, want %d", what, i, len(got[i]), len(want[i]))
		}
		for c := range want[i] {
			if got[i][c] != want[i][c] {
				t.Fatalf("%s: result %d = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
}

// The lazy build must emit exactly the eager build's sequence — same tuples,
// same order, ties included — at every k, and again after a reopen.
func TestAnyKMatchesEagerReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1900))
	total, nonEmpty := 0, 0
	for m := 2; m <= anykMaxWidth; m++ {
		for variant := 0; variant < 6; variant++ {
			empty := -1
			if variant == 5 {
				empty = rng.Intn(m)
			}
			rels := anykParityInputs(rng, m, empty)
			want := anykEagerRef(t, rels, -1)
			total += len(want)
			if len(want) > 0 {
				nonEmpty++
			}
			j := anykOver(t, rels)
			for _, k := range []int{1, 10, len(want) + 1} {
				got, err := CollectK(j, k)
				if err != nil {
					t.Fatal(err)
				}
				sameTuples(t, fmt.Sprintf("m=%d variant=%d k=%d", m, variant, k), got, want[:min(k, len(want))])
			}
			// Reopen mid-enumeration, without a Close, and replay everything.
			if err := j.OpenCtx(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, _, err := j.Next(); err != nil {
					t.Fatal(err)
				}
			}
			got, err := Collect(j)
			if err != nil {
				t.Fatal(err)
			}
			sameTuples(t, fmt.Sprintf("m=%d variant=%d reopened", m, variant), got, want)
		}
	}
	t.Logf("%d results over %d non-empty joins", total, nonEmpty)
	if nonEmpty < 30 || total < 5000 {
		t.Fatalf("inputs too sparse to test ordering: %d results over %d non-empty joins", total, nonEmpty)
	}
}

// anykPhaseCtx reports cancellation from the first Err call made inside the
// function whose name ends in phase, so a test can cancel one build phase.
type anykPhaseCtx struct {
	context.Context
	phase string
	fired bool
}

func (c *anykPhaseCtx) Err() error {
	if !c.fired {
		pcs := make([]uintptr, 32)
		frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs)])
		for more := true; more && !c.fired; {
			var f runtime.Frame
			f, more = frames.Next()
			c.fired = strings.HasSuffix(f.Function, c.phase)
		}
	}
	if c.fired {
		return context.Canceled
	}
	return nil
}

// Every O(n) build loop — the drain, the grouping, the root heapify — polls
// the context, returns the typed error, and leaves nothing charged.
func TestAnyKCancelEachBuildPhase(t *testing.T) {
	for _, phase := range []string{".(*AnyK).drain", ".(*AnyK).group", ".heapifyRoot"} {
		b := NewBudget(ResourceLimits{MaxBufferedTuples: 1 << 20})
		_, j := anykFixture(t, 2, 1000, 0.02, 1600)
		j.Budget = b
		ctx := &anykPhaseCtx{Context: context.Background(), phase: phase}
		_, err := CollectCtx(ctx, j)
		if !ctx.fired {
			t.Fatalf("%s: never polled the context", phase)
		}
		if !errors.Is(err, ErrQueryCancelled) {
			t.Fatalf("%s: want ErrQueryCancelled, got %v", phase, err)
		}
		if b.Buffered() != 0 {
			t.Fatalf("%s: %d tuples still charged after Close", phase, b.Buffered())
		}
	}
}

// While enumerating, the budget holds exactly the live entries plus the
// queued solutions (every dead entry was released); after Close it holds
// nothing, whether the run drained everything, stopped at k=1, or failed
// on the depth cap.
func TestAnyKBudgetReleasedOnClose(t *testing.T) {
	b := NewBudget(ResourceLimits{MaxBufferedTuples: 1 << 20})
	_, j := anykFixture(t, 3, 300, 0.005, 1650)
	j.Budget = b
	if err := j.OpenCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := j.Next(); err != nil || !ok {
		t.Fatalf("first pull: ok=%v err=%v", ok, err)
	}
	live := len(j.pq)
	for _, lv := range j.levels {
		live += len(lv.entries)
	}
	if sum := 3 * 300; live >= sum || b.Buffered() != int64(live) {
		t.Fatalf("budget holds %d, want the %d live entries and queued solutions (of %d rows)", b.Buffered(), live, sum)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		limit ResourceLimits
		k     int
	}{
		{"full", ResourceLimits{MaxBufferedTuples: 1 << 20}, 1 << 30},
		{"k=1", ResourceLimits{MaxBufferedTuples: 1 << 20}, 1},
		{"depth cap", ResourceLimits{MaxBufferedTuples: 1 << 20, MaxDepthPerInput: 250}, 1},
	} {
		b := NewBudget(tc.limit)
		_, j := anykFixture(t, 3, 300, 0.05, 1650)
		j.Budget = b
		_, err := CollectK(j, tc.k)
		if failed := errors.Is(err, ErrDepthExceeded); failed != (tc.limit.MaxDepthPerInput > 0) {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
		if b.Buffered() != 0 {
			t.Fatalf("%s: %d tuples still charged after Close", tc.name, b.Buffered())
		}
	}
}

// TestAnyKBuildAllocs pins the build's allocations on a 2-way 2×15000-row,
// 100-key join: chunked drains, one placed array, bucket table and
// float64-keyed map per level, and no per-row allocation. The eager build
// it replaced made ~31000 here.
func TestAnyKBuildAllocs(t *testing.T) {
	_, j := anykFixture(t, 2, 15000, 0.01, 1700)
	allocs := testing.AllocsPerRun(5, func() {
		if err := j.OpenCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := j.Next(); err != nil || !ok {
			t.Fatalf("first pull: ok=%v err=%v", ok, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("AnyK: %.0f allocs per build", allocs)
	if allocs > anykBuildAllocs {
		t.Errorf("AnyK build allocates %.0f, budget %d", allocs, anykBuildAllocs)
	}
}

// anykBuildAllocs is TestAnyKBuildAllocs' budget: the measured count plus
// about 10% headroom.
const anykBuildAllocs = 74

var anykSink relation.Tuple

// BenchmarkAnyKBuild times one open-build-enumerate-close cycle of a 2-way,
// 100-key AnyK at n rows per input, pulling k results (all of them for
// k=all) — the build dominates at small k, the enumeration at k=all.
func BenchmarkAnyKBuild(b *testing.B) {
	for _, n := range []int{1000, 15000} {
		for _, k := range []int{1, 100, 0} {
			name := fmt.Sprintf("n=%d/k=%d", n, k)
			if k == 0 {
				name = fmt.Sprintf("n=%d/k=all", n)
			}
			b.Run(name, func(b *testing.B) {
				_, j := anykFixture(b, 2, n, 0.01, 1700)
				b.ReportAllocs()
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					if err := j.OpenCtx(context.Background()); err != nil {
						b.Fatal(err)
					}
					for got := 0; k == 0 || got < k; got++ {
						t, ok, err := j.Next()
						if err != nil {
							b.Fatal(err)
						}
						if !ok {
							break
						}
						anykSink = t
					}
					if err := j.Close(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
