package main

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"rankopt/internal/catalog"
	"rankopt/internal/workload"
)

// query is one generated request: a same-key equi-join chain over Tables,
// ranked by the sum of their scores, optionally filtered on one table's id.
type query struct {
	Tables []string
	K      int
	// FilterTable, when set, adds "FilterTable.id < FilterBelow".
	FilterTable string
	FilterBelow int64
}

// SQL renders the request text the engine receives.
func (q query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT * FROM ")
	b.WriteString(strings.Join(q.Tables, ", "))
	b.WriteString(" WHERE ")
	for i := 1; i < len(q.Tables); i++ {
		if i > 1 {
			b.WriteString(" AND ")
		}
		fmt.Fprintf(&b, "%s.key = %s.key", q.Tables[i-1], q.Tables[i])
	}
	if q.FilterTable != "" {
		fmt.Fprintf(&b, " AND %s.id < %d", q.FilterTable, q.FilterBelow)
	}
	b.WriteString(" ORDER BY ")
	for i, t := range q.Tables {
		if i > 0 {
			b.WriteString(" + ")
		}
		b.WriteString(t + ".score")
	}
	fmt.Fprintf(&b, " DESC LIMIT %d", q.K)
	return b.String()
}

// shape identifies the plan-cache fingerprint class of q: everything but k,
// which the engine parameterizes out.
func (q query) shape() string {
	return fmt.Sprintf("%s|%s<%d", strings.Join(q.Tables, ","), q.FilterTable, q.FilterBelow)
}

// workloadDef describes one benchmark workload: its catalog, its traffic and
// how many closed-loop clients replay it.
type workloadDef struct {
	name    string
	why     string
	clients int
	// shards is engine.Config.Shards (0 = unsharded engine).
	shards int
	// load generates the tables and builds their indexes (and partition
	// specs) from the data seed. Row counts are divided by shrink, which is
	// 1 except in the package's smoke tests.
	load func(seed int64, shrink int) *catalog.Catalog
	// newSequence returns the timed request sequence for a seed.
	newSequence func(seed int64) *sequence
	// warmup lists the untimed set-up requests; their fingerprints never
	// occur in the timed sequence of adhoc-cold.
	warmup func() []query
}

var ks = []int{1, 10, 100}

var workloads = []*workloadDef{
	{
		name:    "serve-warm",
		why:     "cached 2/3-way chains over Sort enforcers (no score index): exec does the work, core none",
		clients: 2,
		load: func(seed int64, shrink int) *catalog.Catalog {
			return rankedTables(4, 5000/shrink, 0.01, seed, false)
		},
		newSequence: func(seed int64) *sequence {
			names := tableNames(4)
			// One block holds each (width, k) class once, so the mix of
			// cheap 2-way and expensive 3-way requests is the same on every
			// seed up to one block.
			return newSequence(seed, 6, false, func(rng *rand.Rand, slot int) query {
				return query{Tables: pick(rng, names, 2+slot/3), K: ks[slot%3]}
			})
		},
		warmup: func() []query {
			// Every ordered chain once, priming the plan cache with every
			// fingerprint the timed sequence can draw.
			var out []query
			for _, w := range []int{2, 3} {
				for _, c := range orderedChains(tableNames(4), w) {
					out = append(out, query{Tables: c, K: 10})
				}
			}
			return out
		},
	},
	{
		name:    "adhoc-cold",
		why:     "distinct 4-way chains with score indexes: every session misses the plan cache and core.Optimize dominates",
		clients: 1,
		load: func(seed int64, shrink int) *catalog.Catalog {
			return rankedTables(6, 1000/shrink, 0.01, seed, true)
		},
		newSequence: func(seed int64) *sequence {
			names := tableNames(6)
			return newSequence(seed, 3, true, func(rng *rand.Rand, slot int) query {
				tables := pick(rng, names, 4)
				return query{
					Tables: tables, K: ks[slot],
					FilterTable: tables[rng.Intn(len(tables))],
					FilterBelow: 100 + rng.Int63n(900),
				}
			})
		},
		warmup: func() []query {
			// Filter constants below 100 never occur in the timed sequence,
			// so warm-up leaves no fingerprint behind for it to hit.
			return []query{
				{Tables: []string{"T1", "T2", "T3", "T4"}, K: 10, FilterTable: "T1", FilterBelow: 50},
				{Tables: []string{"T6", "T5", "T4", "T3"}, K: 10, FilterTable: "T5", FilterBelow: 60},
				{Tables: []string{"T2", "T4", "T6", "T1"}, K: 10, FilterTable: "T6", FilterBelow: 70},
			}
		},
	},
	{
		name:    "shard-skew",
		why:     "4 range shards with score tied to key: the only traffic through the shard tier and ShardMerge early stop",
		clients: 1,
		shards:  4,
		load:    skewedTables,
		newSequence: func(seed int64) *sequence {
			return newSequence(seed, 3, false, func(rng *rand.Rand, slot int) query {
				return query{Tables: pick(rng, tableNames(2), 2), K: ks[slot]}
			})
		},
		warmup: func() []query {
			var out []query
			for _, c := range orderedChains(tableNames(2), 2) {
				for _, k := range ks {
					out = append(out, query{Tables: c, K: k})
				}
			}
			return out
		},
	},
}

func workloadByName(name string) (*workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func tableNames(m int) []string {
	out := make([]string, m)
	for i := range out {
		out[i] = fmt.Sprintf("T%d", i+1)
	}
	return out
}

// rankedTables builds T1..Tm with a key index on each and, when
// scoreIndex is set, a score index too (workload.RankedSet's layout).
func rankedTables(m, rows int, selectivity float64, seed int64, scoreIndex bool) *catalog.Catalog {
	cfg := workload.RankedConfig{N: rows, Selectivity: selectivity, Seed: seed}
	if scoreIndex {
		cat, _ := workload.RankedSet(m, cfg)
		return cat
	}
	cat := catalog.New()
	for i, name := range tableNames(m) {
		c := cfg
		c.Name = name
		c.Seed = seed + int64(i)*7919
		cat.AddTable(workload.Ranked(c))
		mustIndex(cat, name, "key")
	}
	return cat
}

// shardKeys is shard-skew's key domain; the range partition covers it.
const shardKeys = 400

// skewedTables builds shard-skew's two 60000-row tables whose score is a
// function of the key, range-partitioned on the key, with no score index.
func skewedTables(seed int64, shrink int) *catalog.Catalog {
	cat := catalog.New()
	for i, name := range tableNames(2) {
		cat.AddTable(workload.Ranked(workload.RankedConfig{
			Name: name, N: 60000 / shrink, Selectivity: 1.0 / shardKeys,
			Seed: seed + int64(i)*7919, ScoreByKey: 1,
		}))
		mustIndex(cat, name, "key")
		spec := catalog.PartitionSpec{Column: "key", Kind: catalog.PartitionRange, Lo: 0, Hi: shardKeys}
		if err := cat.SetPartition(name, spec); err != nil {
			panic(err)
		}
	}
	return cat
}

func mustIndex(cat *catalog.Catalog, table, column string) {
	if _, err := cat.CreateIndex(table, column, false); err != nil {
		panic(err)
	}
}

// pick draws w distinct tables in random order.
func pick(rng *rand.Rand, names []string, w int) []string {
	perm := rng.Perm(len(names))
	out := make([]string, w)
	for i := range out {
		out[i] = names[perm[i]]
	}
	return out
}

// orderedChains lists every ordered choice of w distinct tables.
func orderedChains(names []string, w int) [][]string {
	if w == 0 {
		return [][]string{nil}
	}
	var out [][]string
	for i, n := range names {
		rest := append(append([]string(nil), names[:i]...), names[i+1:]...)
		for _, tail := range orderedChains(rest, w-1) {
			out = append(out, append([]string{n}, tail...))
		}
	}
	return out
}

// sequence is a workload's seeded request stream. Requests are drawn in
// blocks: each block visits every slot once in a shuffled order, so the
// class mix is fixed up to one block whatever the seed. The stream is
// generated in order under a lock, so concurrent clients share one sequence
// and the i-th request is the same on every run with the same seed.
type sequence struct {
	mu    sync.Mutex
	rng   *rand.Rand
	block int
	draw  func(rng *rand.Rand, slot int) query
	slots []int
	// seen holds the shapes drawn so far when shapes must not repeat.
	seen   map[string]bool
	issued []query
}

func newSequence(seed int64, block int, distinct bool, draw func(*rand.Rand, int) query) *sequence {
	s := &sequence{rng: rand.New(rand.NewSource(seed)), block: block, draw: draw}
	if distinct {
		s.seen = map[string]bool{}
	}
	return s
}

// next returns the next request and its position in the sequence.
func (s *sequence) next() (int, query) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.slots) == 0 {
		s.slots = s.rng.Perm(s.block)
	}
	slot := s.slots[0]
	s.slots = s.slots[1:]
	q := s.draw(s.rng, slot)
	for s.seen != nil && s.seen[q.shape()] {
		q = s.draw(s.rng, slot)
	}
	if s.seen != nil {
		s.seen[q.shape()] = true
	}
	s.issued = append(s.issued, q)
	return len(s.issued) - 1, q
}

// at returns the i-th request already issued.
func (s *sequence) at(i int) query {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.issued[i]
}
