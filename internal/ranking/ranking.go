// Package ranking implements classic rank-aggregation algorithms over
// ranked lists: Fagin's Threshold Algorithm (TA) and the No-Random-Access
// algorithm (NRA). These solve
// the paper's "top-k selection" problem class (all lists rank the same
// object set); the rank-join operators in package exec solve the "top-k
// join" class. The algorithms share the threshold machinery the paper's
// rank-join operators encapsulate.
package ranking

import (
	"container/heap"
	"fmt"
	"sort"
)

// SortedAccess retrieves (object, score) pairs in descending score order.
type SortedAccess interface {
	// Next returns the next-ranked object; ok=false when exhausted.
	Next() (id int64, score float64, ok bool)
}

// RandomAccess probes the score of a known object.
type RandomAccess interface {
	// Probe returns the object's score in this list; ok=false if absent.
	Probe(id int64) (score float64, ok bool)
}

// Source couples both access methods over one ranked list.
type Source interface {
	SortedAccess
	RandomAccess
}

// Result is one aggregated answer.
type Result struct {
	ID int64
	// Score is the exact aggregate for TA; for NRA it is the lower
	// bound at termination (exact once every list reported the object).
	Score float64
}

// Stats reports the access effort an algorithm spent — the analogue of the
// rank-join depths the paper estimates.
type Stats struct {
	// SortedAccesses counts Next calls that returned an object, per list.
	SortedAccesses []int
	// RandomAccesses counts Probe calls, per list.
	RandomAccesses []int
}

func (s Stats) total(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// TotalSorted returns the total sorted accesses across lists.
func (s Stats) TotalSorted() int { return s.total(s.SortedAccesses) }

// TotalRandom returns the total random accesses across lists.
func (s Stats) TotalRandom() int { return s.total(s.RandomAccesses) }

// ListSource is an in-memory Source backed by explicit (id, score) pairs.
type ListSource struct {
	ids    []int64
	scores []float64
	byID   map[int64]float64
	pos    int
}

// NewListSource builds a source from parallel id/score slices, sorting them
// descending by score.
func NewListSource(ids []int64, scores []float64) *ListSource {
	if len(ids) != len(scores) {
		panic(fmt.Sprintf("ranking: %d ids vs %d scores", len(ids), len(scores)))
	}
	idx := make([]int, len(ids))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	s := &ListSource{
		ids:    make([]int64, len(ids)),
		scores: make([]float64, len(ids)),
		byID:   make(map[int64]float64, len(ids)),
	}
	for i, j := range idx {
		s.ids[i] = ids[j]
		s.scores[i] = scores[j]
	}
	for i := range ids {
		s.byID[ids[i]] = scores[i]
	}
	return s
}

// Next implements SortedAccess.
func (s *ListSource) Next() (int64, float64, bool) {
	if s.pos >= len(s.ids) {
		return 0, 0, false
	}
	id, sc := s.ids[s.pos], s.scores[s.pos]
	s.pos++
	return id, sc, true
}

// Probe implements RandomAccess.
func (s *ListSource) Probe(id int64) (float64, bool) {
	sc, ok := s.byID[id]
	return sc, ok
}

// Reset rewinds sorted access to the top.
func (s *ListSource) Reset() { s.pos = 0 }

// Len returns the list length.
func (s *ListSource) Len() int { return len(s.ids) }

// resultHeap is a min-heap on score, keeping the current best-k.
type resultHeap []Result

func (h resultHeap) Len() int           { return len(h) }
func (h resultHeap) Less(i, j int) bool { return h[i].Score < h[j].Score }
func (h resultHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x any)        { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() any {
	old := *h
	n := len(old)
	r := old[n-1]
	*h = old[:n-1]
	return r
}

func validate(m int, weights []float64, k int) error {
	if m == 0 {
		return fmt.Errorf("ranking: no input lists")
	}
	if len(weights) != m {
		return fmt.Errorf("ranking: %d weights for %d lists", len(weights), m)
	}
	for i, w := range weights {
		if w < 0 {
			return fmt.Errorf("ranking: negative weight %v at %d breaks monotonicity", w, i)
		}
	}
	if k <= 0 {
		return fmt.Errorf("ranking: non-positive k %d", k)
	}
	return nil
}

func sortResults(rs []Result) {
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].Score != rs[j].Score {
			return rs[i].Score > rs[j].Score
		}
		return rs[i].ID < rs[j].ID
	})
}

// TA runs Fagin's Threshold Algorithm: round-robin sorted access on every
// list; each newly seen object is fully scored via random access to the
// other lists; terminate when the k-th best exact score is at least the
// threshold f(last1, ..., lastm). Requires both access methods on all lists.
func TA(lists []Source, weights []float64, k int) ([]Result, Stats, error) {
	m := len(lists)
	if err := validate(m, weights, k); err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{SortedAccesses: make([]int, m), RandomAccesses: make([]int, m)}
	bounds := NewBounds(m)
	seen := map[int64]bool{}
	var best resultHeap

	for !bounds.AllExhausted() {
		for i := 0; i < m; i++ {
			if bounds.Exhausted(i) {
				continue
			}
			id, sc, ok := lists[i].Next()
			if !ok {
				bounds.Exhaust(i)
				continue
			}
			stats.SortedAccesses[i]++
			if err := bounds.Observe(i, sc); err != nil {
				return nil, stats, err
			}
			if seen[id] {
				continue
			}
			seen[id] = true
			total := weights[i] * sc
			for j := 0; j < m; j++ {
				if j == i {
					continue
				}
				stats.RandomAccesses[j]++
				if s, ok := lists[j].Probe(id); ok {
					total += weights[j] * s
				}
			}
			if len(best) < k {
				heap.Push(&best, Result{ID: id, Score: total})
			} else if total > best[0].Score {
				best[0] = Result{ID: id, Score: total}
				heap.Fix(&best, 0)
			}
		}
		// Threshold: the best possible score of any unseen object. Every
		// non-exhausted list was observed this round, so Upper is finite.
		threshold := 0.0
		for i := 0; i < m; i++ {
			if !bounds.Exhausted(i) {
				threshold += weights[i] * bounds.Upper(i)
			}
		}
		if len(best) >= k && best[0].Score >= threshold {
			break
		}
	}
	out := append([]Result(nil), best...)
	sortResults(out)
	return out, stats, nil
}

// nraCand tracks one partially seen object during NRA.
type nraCand struct {
	id    int64
	known []bool
	lower float64
}

// NRA runs the No-Random-Access algorithm: round-robin sorted access only.
// An object's lower bound counts its known weighted scores (unknown lists
// contribute their minimum, assumed 0); its upper bound fills unknown lists
// with that list's last-seen score. Terminate when the k-th best lower bound
// is at least every other candidate's upper bound and the unseen-object
// upper bound. Scores must be non-negative.
func NRA(lists []SortedAccess, weights []float64, k int) ([]Result, Stats, error) {
	m := len(lists)
	if err := validate(m, weights, k); err != nil {
		return nil, Stats{}, err
	}
	stats := Stats{SortedAccesses: make([]int, m), RandomAccesses: make([]int, m)}
	bounds := NewBounds(m)
	cands := map[int64]*nraCand{}

	upper := func(c *nraCand) float64 {
		u := c.lower
		for i := 0; i < m; i++ {
			if !c.known[i] && !bounds.Exhausted(i) {
				u += weights[i] * bounds.Upper(i)
			}
		}
		return u
	}
	for {
		for i := 0; i < m; i++ {
			if bounds.Exhausted(i) {
				continue
			}
			id, sc, ok := lists[i].Next()
			if !ok {
				bounds.Exhaust(i)
				continue
			}
			if sc < 0 {
				return nil, stats, fmt.Errorf("ranking: NRA requires non-negative scores, got %v", sc)
			}
			stats.SortedAccesses[i]++
			if err := bounds.Observe(i, sc); err != nil {
				return nil, stats, err
			}
			c := cands[id]
			if c == nil {
				c = &nraCand{id: id, known: make([]bool, m)}
				cands[id] = c
			}
			if !c.known[i] {
				c.known[i] = true
				c.lower += weights[i] * sc
			}
		}
		// Check the stopping condition once per round.
		if len(cands) >= k {
			all := make([]*nraCand, 0, len(cands))
			for _, c := range cands {
				all = append(all, c)
			}
			sort.Slice(all, func(a, b int) bool {
				if all[a].lower != all[b].lower {
					return all[a].lower > all[b].lower
				}
				return all[a].id < all[b].id
			})
			kth := all[k-1].lower
			// Upper bound of any unseen object.
			unseenU := 0.0
			for i := 0; i < m; i++ {
				if !bounds.Exhausted(i) {
					unseenU += weights[i] * bounds.Upper(i)
				}
			}
			ok := kth >= unseenU
			for _, c := range all[k:] {
				if !ok {
					break
				}
				if upper(c) > kth {
					ok = false
				}
			}
			if ok || bounds.AllExhausted() {
				out := make([]Result, 0, k)
				for _, c := range all[:k] {
					out = append(out, Result{ID: c.id, Score: c.lower})
				}
				return out, stats, nil
			}
		} else if bounds.AllExhausted() {
			out := make([]Result, 0, len(cands))
			for _, c := range cands {
				out = append(out, Result{ID: c.id, Score: c.lower})
			}
			sortResults(out)
			return out, stats, nil
		}
	}
}
