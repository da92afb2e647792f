package ranking

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// genLists builds m lists over n shared objects with independent uniform
// scores, returning sources plus the exact aggregate per object.
func genLists(m, n int, weights []float64, seed int64) ([]*ListSource, map[int64]float64) {
	rng := rand.New(rand.NewSource(seed))
	scores := make([][]float64, m)
	for i := range scores {
		scores[i] = make([]float64, n)
		for j := range scores[i] {
			scores[i][j] = rng.Float64()
		}
	}
	ids := make([]int64, n)
	for j := range ids {
		ids[j] = int64(j)
	}
	lists := make([]*ListSource, m)
	for i := range lists {
		lists[i] = NewListSource(ids, scores[i])
	}
	exact := map[int64]float64{}
	for j := 0; j < n; j++ {
		t := 0.0
		for i := 0; i < m; i++ {
			t += weights[i] * scores[i][j]
		}
		exact[int64(j)] = t
	}
	return lists, exact
}

func exactTopK(exact map[int64]float64, k int) []Result {
	out := make([]Result, 0, len(exact))
	for id, s := range exact {
		out = append(out, Result{ID: id, Score: s})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].ID < out[b].ID
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func asSources(ls []*ListSource) []Source {
	out := make([]Source, len(ls))
	for i, l := range ls {
		out[i] = l
	}
	return out
}

func asSorted(ls []*ListSource) []SortedAccess {
	out := make([]SortedAccess, len(ls))
	for i, l := range ls {
		out[i] = l
	}
	return out
}

func TestTAMatchesExact(t *testing.T) {
	weights := []float64{0.5, 0.3, 0.2}
	lists, exact := genLists(3, 500, weights, 7)
	got, stats, err := TA(asSources(lists), weights, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := exactTopK(exact, 10)
	if len(got) != 10 {
		t.Fatalf("TA returned %d results", len(got))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("TA[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if stats.TotalSorted() == 0 || stats.TotalRandom() == 0 {
		t.Error("TA stats not recorded")
	}
	// Early-out: should not read all 3*500 entries for k=10.
	if stats.TotalSorted() >= 1500 {
		t.Errorf("TA did no early-out: %d sorted accesses", stats.TotalSorted())
	}
}

func TestNRAMatchesExactSet(t *testing.T) {
	weights := []float64{0.4, 0.6}
	lists, exact := genLists(2, 400, weights, 11)
	got, stats, err := NRA(asSorted(lists), weights, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := exactTopK(exact, 8)
	if len(got) != 8 {
		t.Fatalf("NRA returned %d results", len(got))
	}
	// NRA guarantees the correct top-k SET (order by lower bounds).
	wantSet := map[int64]bool{}
	for _, r := range want {
		wantSet[r.ID] = true
	}
	for _, r := range got {
		if !wantSet[r.ID] {
			t.Fatalf("NRA returned %d which is not in the exact top-8", r.ID)
		}
	}
	if stats.TotalRandom() != 0 {
		t.Error("NRA must not use random access")
	}
}

func TestNRAEarlyOut(t *testing.T) {
	weights := []float64{1, 1}
	lists, _ := genLists(2, 5000, weights, 13)
	_, stats, err := NRA(asSorted(lists), weights, 5)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalSorted() >= 10000 {
		t.Errorf("NRA did no early-out: %d sorted accesses", stats.TotalSorted())
	}
}

func TestValidation(t *testing.T) {
	lists, _ := genLists(2, 10, []float64{1, 1}, 3)
	if _, _, err := TA(asSources(lists), []float64{1}, 5); err == nil {
		t.Error("weight arity must be validated")
	}
	if _, _, err := TA(asSources(lists), []float64{1, -1}, 5); err == nil {
		t.Error("negative weights must be rejected")
	}
	if _, _, err := NRA(asSorted(lists), []float64{1, 1}, 0); err == nil {
		t.Error("k=0 must be rejected")
	}
	if _, _, err := NRA(nil, nil, 5); err == nil {
		t.Error("empty lists must be rejected")
	}
}

func TestKLargerThanObjects(t *testing.T) {
	weights := []float64{1, 1}
	lists, exact := genLists(2, 5, weights, 17)
	got, _, err := TA(asSources(lists), weights, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("TA with k>n returned %d", len(got))
	}
	want := exactTopK(exact, 5)
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("TA order wrong with k>n")
		}
	}
	for i := range lists {
		lists[i].Reset()
	}
	gotN, _, err := NRA(asSorted(lists), weights, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotN) != 5 {
		t.Fatalf("NRA with k>n returned %d", len(gotN))
	}
}

func TestListSource(t *testing.T) {
	s := NewListSource([]int64{5, 6, 7}, []float64{0.2, 0.9, 0.5})
	id, sc, ok := s.Next()
	if !ok || id != 6 || sc != 0.9 {
		t.Fatalf("first = %d/%v", id, sc)
	}
	if v, ok := s.Probe(5); !ok || v != 0.2 {
		t.Error("probe failed")
	}
	if _, ok := s.Probe(99); ok {
		t.Error("probe of absent id should fail")
	}
	s.Reset()
	if id, _, _ := s.Next(); id != 6 {
		t.Error("reset failed")
	}
	if s.Len() != 3 {
		t.Error("len")
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched slices must panic")
		}
	}()
	NewListSource([]int64{1}, []float64{1, 2})
}

// Property: TA and NRA agree with brute force across random instances.
func TestTAandNRAProperty(t *testing.T) {
	f := func(seed int64) bool {
		weights := []float64{0.3, 0.7}
		lists, exact := genLists(2, 120, weights, seed)
		want := exactTopK(exact, 6)
		got, _, err := TA(asSources(lists), weights, 6)
		if err != nil || len(got) != 6 {
			return false
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				return false
			}
		}
		for i := range lists {
			lists[i].Reset()
		}
		gotN, _, err := NRA(asSorted(lists), weights, 6)
		if err != nil || len(gotN) != 6 {
			return false
		}
		wantSet := map[int64]bool{}
		for _, r := range want {
			wantSet[r.ID] = true
		}
		for _, r := range gotN {
			if !wantSet[r.ID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTA(b *testing.B) {
	weights := []float64{0.5, 0.3, 0.2}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lists, _ := genLists(3, 2000, weights, int64(i))
		b.StartTimer()
		if _, _, err := TA(asSources(lists), weights, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNRA(b *testing.B) {
	weights := []float64{0.5, 0.5}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		lists, _ := genLists(2, 2000, weights, int64(i))
		b.StartTimer()
		if _, _, err := NRA(asSorted(lists), weights, 10); err != nil {
			b.Fatal(err)
		}
	}
}
