// Package core implements the paper's contribution: a rank-aware query
// optimizer extending System R bottom-up dynamic programming. Ranking
// expressions are treated as interesting physical properties (Section 3.1),
// the enumeration space is enlarged with rank-join plan alternatives —
// natural via ordered access paths or enforced via glued sorts (Section
// 3.2) — and pruning compares k-parameterized rank-join plan costs against
// blocking sort plans using the crossover point k* while protecting
// pipelined plans (Section 3.3). Rank-join costing delegates to the
// Section 4 depth model through package plan.
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rankopt/internal/catalog"
	"rankopt/internal/costmodel"
	"rankopt/internal/estimate"
	"rankopt/internal/exec"
	"rankopt/internal/expr"
	"rankopt/internal/logical"
	"rankopt/internal/plan"
)

// PlannerMode selects the join-order planning strategy.
type PlannerMode uint8

const (
	// PlannerDP is the paper's System-R bottom-up dynamic programming over
	// every connected table subset (the default).
	PlannerDP PlannerMode = iota
	// PlannerGreedy skips the memo entirely: joins are ordered greedily by
	// visible selectivity and join-graph connectivity, emitting one left-deep
	// plan in microseconds. Shapes greedy cannot order confidently (grouped
	// queries, traced sessions, plan-space collection) fall back to the DP;
	// Result.GreedyFallback reports when that happened.
	PlannerGreedy
)

// String renders the mode the way the -planner flag spells it.
func (m PlannerMode) String() string {
	if m == PlannerGreedy {
		return "greedy"
	}
	return "dp"
}

// ParsePlannerMode parses a -planner flag value ("", "dp", "greedy").
func ParsePlannerMode(s string) (PlannerMode, error) {
	switch s {
	case "", "dp":
		return PlannerDP, nil
	case "greedy":
		return PlannerGreedy, nil
	}
	return PlannerDP, fmt.Errorf("core: unknown planner mode %q (want dp or greedy)", s)
}

// Options controls the optimizer. The Disable* switches exist for the
// ablation experiments; production use keeps the zero value (everything on).
type Options struct {
	// DisableRankAware turns off interesting order expressions and
	// rank-join generation entirely — the traditional System R baseline.
	DisableRankAware bool
	// DisableHRJN / DisableNRJN remove individual rank-join choices.
	DisableHRJN bool
	DisableNRJN bool
	// DisableAnyK removes the any-k ranked-enumeration alternative (the
	// Lawler-style path enumerator over unordered inputs).
	DisableAnyK bool
	// DisablePipelineProtection lets blocking plans prune pipelined plans
	// on cost alone, removing the First-N-Rows property.
	DisablePipelineProtection bool
	// DisableEnforcedRankInputs stops gluing sort operators to create
	// ranked rank-join inputs, keeping only "natural" ordered access paths.
	DisableEnforcedRankInputs bool
	// KeepAllPlans disables pruning entirely, retaining every generated
	// plan. Exponentially expensive — exists to validate that pruning never
	// discards the optimal plan (tests and ablations only).
	KeepAllPlans bool
	// DisableRankAggregate removes the TA-based top-k-selection plan
	// alternative (generated when every table is ranked and joined on one
	// unique-key equivalence class).
	DisableRankAggregate bool
	// UseTopKSort replaces the final full-sort enforcer with a bounded-heap
	// top-k sort when the query carries a LIMIT — the modern competitor to
	// rank-join plans (off by default to stay faithful to the paper's sort
	// plans; an ablation experiment measures the difference).
	UseTopKSort bool
	// CollectAllPlans returns every completed full-query alternative in
	// Result.AllPlans (each with the shared Rank/Limit/Project tail), the
	// input to the differential-testing oracle. Combine with KeepAllPlans to
	// exercise plans pruning would normally discard.
	CollectAllPlans bool
	// Strategy is the HRJN polling policy for compiled plans.
	Strategy exec.PullStrategy
	// Params overrides the cost-model parameters (nil means defaults).
	Params *costmodel.Params
	// Workers bounds the goroutines enumerating join plans within each DP
	// size level (levels are the enumeration's only dependency barrier).
	// 0 or 1 enumerates sequentially; the plans produced are identical
	// either way, since every memo entry is built by exactly one worker.
	Workers int
	// Tracer, when non-nil, observes every enumeration and pruning decision
	// (see tracer.go). Implementations must be safe for concurrent calls
	// when Workers > 1; for a deterministic event order run with Workers <=
	// 1, which the engine does for traced sessions.
	Tracer Tracer
	// Planner selects the join-order strategy: the System-R DP (default) or
	// the greedy fast path (see PlannerGreedy).
	Planner PlannerMode
	// DepthHints carries empirically observed rank-join depths keyed by
	// plan.DepthHintKey (sorted left tables + "|" + sorted right tables).
	// When a rank join is built over a keyed table split, the hint overrides
	// the Section-4 uniform-score depth estimate — the feedback loop's way of
	// re-optimizing with measured depths instead of the model.
	DepthHints map[string]estimate.Observed
}

// Result is the optimizer output.
type Result struct {
	// Best is the chosen complete plan, including any final sort enforcer,
	// rank annotation, limit, and projection.
	Best *plan.Node
	// BestJoin is the underlying join plan before final assembly.
	BestJoin *plan.Node
	// AllPlans holds every completed full-query alternative (only when
	// Options.CollectAllPlans is set). Each is executable via plan.CompileWith
	// and must produce the same top-k answer as Best.
	AllPlans []*plan.Node
	// Memo maps entry labels (e.g. "A,B") to the retained plans, mirroring
	// the paper's Figures 2 and 3.
	Memo map[string][]*plan.Node
	// PlansKept is the total number of plans retained across MEMO entries.
	PlansKept int
	// PlansGenerated counts every candidate considered before pruning.
	PlansGenerated int
	// PlansPruned counts plans the Section 3.3 property+cost domination
	// discarded (rejected candidates plus evicted incumbents).
	PlansPruned int
	// PlansProtected counts pipelined plans that survived a cheaper blocking
	// rival only through the First-N-Rows protection.
	PlansProtected int
	// InterestingOrders reproduces Table 1 for the query.
	InterestingOrders []InterestingOrder
	// Planner is the strategy that actually produced Best (greedy requests
	// that fell back report PlannerDP here).
	Planner PlannerMode
	// GreedyFallback is set when PlannerGreedy was requested but the query
	// shape forced the DP path; GreedyFallbackReason then names why (one of
	// the GreedyFallback* constants).
	GreedyFallback       bool
	GreedyFallbackReason string
}

// InterestingOrder is one row of the paper's Table 1.
type InterestingOrder struct {
	Expr    string
	Reasons []string
}

// tableInfo caches per-table planning facts.
type tableInfo struct {
	idx     int
	name    string
	rawCard float64
	card    float64 // after filters
	filtSel float64
	filters []expr.Expr
	// term is the table's ranking score term (nil when unranked).
	term *expr.ScoreTerm
	// termSlab is the average decrement slab of the weighted term over the
	// filtered relation.
	termSlab float64
	// termCol is set when the term's expression is a bare column (only then
	// can an index provide the ranked order naturally).
	termCol   expr.ColRef
	termIsCol bool
}

// optimizer carries the DP state.
type optimizer struct {
	cat    *catalog.Catalog
	q      *logical.Query
	opts   Options
	params *costmodel.Params
	tables []*tableInfo
	byName map[string]*tableInfo
	memo   map[uint64][]*plan.Node
	pc     pruneCounters
	kmin   float64
	// equiv groups join columns into equivalence classes; joins holds the
	// transitive closure of the query's join predicates.
	equiv *equivClasses
	joins []logical.JoinPred
}

// Optimize plans the query against the catalog.
func Optimize(cat *catalog.Catalog, q *logical.Query, opts Options) (*Result, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	p := opts.Params
	if p == nil {
		def := costmodel.Default()
		p = &def
	}
	o := &optimizer{
		cat:    cat,
		q:      q,
		opts:   opts,
		params: p,
		byName: map[string]*tableInfo{},
		memo:   map[uint64][]*plan.Node{},
	}
	if q.K > 0 {
		o.kmin = float64(q.K)
	}
	if err := o.buildTableInfo(); err != nil {
		return nil, err
	}
	o.equiv = newEquivClasses(q.Joins)
	o.joins = o.equiv.closure(q.Joins)

	planner := PlannerDP
	fallback := false
	fallbackReason := ""
	var best, bestJoin *plan.Node
	var all []*plan.Node
	var err error
	if opts.Planner == PlannerGreedy {
		if g, reason := o.greedyPlan(); g != nil {
			planner = PlannerGreedy
			best, bestJoin, all, err = o.finish([]*plan.Node{g})
		} else {
			fallback = true
			fallbackReason = reason
		}
	}
	if planner == PlannerDP {
		o.enumerateBase()
		o.enumerateJoins()
		o.traceMemoState()
		best, bestJoin, all, err = o.finish(o.memo[o.fullMask()])
	}
	if err != nil {
		return nil, err
	}
	res := &Result{
		Best:                 best,
		BestJoin:             bestJoin,
		AllPlans:             all,
		Memo:                 map[string][]*plan.Node{},
		PlansGenerated:       o.pc.gen,
		PlansPruned:          o.pc.pruned + o.pc.evicted,
		PlansProtected:       o.pc.protected,
		InterestingOrders:    o.interestingOrders(),
		Planner:              planner,
		GreedyFallback:       fallback,
		GreedyFallbackReason: fallbackReason,
	}
	for mask, plans := range o.memo {
		res.Memo[o.label(mask)] = plans
		res.PlansKept += len(plans)
	}
	return res, nil
}

// traceMemoState emits the post-enumeration snapshot to the tracer: the
// query's interesting order expressions (Table 1) and every plan each MEMO
// entry retained, in deterministic (level, label) order.
func (o *optimizer) traceMemoState() {
	tr := o.opts.Tracer
	if tr == nil {
		return
	}
	for _, io := range o.interestingOrders() {
		tr.OnDecision(Decision{
			Kind: DecisionInterestingOrder,
			Plan: io.Expr,
			Note: strings.Join(io.Reasons, "; "),
		})
	}
	masks := make([]uint64, 0, len(o.memo))
	for mask := range o.memo {
		masks = append(masks, mask)
	}
	sort.Slice(masks, func(i, j int) bool {
		pi, pj := popcount(masks[i]), popcount(masks[j])
		if pi != pj {
			return pi < pj
		}
		return o.label(masks[i]) < o.label(masks[j])
	})
	for _, mask := range masks {
		for _, p := range o.memo[mask] {
			tr.OnDecision(Decision{
				Kind:  DecisionKept,
				Level: popcount(mask),
				Entry: o.label(mask),
				Plan:  plan.Summary(p),
				Note:  fmt.Sprintf("props %s; cost %.1f at full output", propsNote(p), p.TotalCost()),
			})
		}
	}
}

func (o *optimizer) buildTableInfo() error {
	for i, name := range o.q.Tables {
		tab, err := o.cat.Table(name)
		if err != nil {
			return err
		}
		ti := &tableInfo{
			idx:     i,
			name:    name,
			rawCard: float64(tab.Stats.Card),
			filtSel: 1,
			filters: o.q.FiltersFor(name),
		}
		for _, f := range ti.filters {
			ti.filtSel *= o.cat.FilterSelectivity(f)
		}
		ti.card = math.Max(ti.rawCard*ti.filtSel, 1)
		for ix := range o.q.Score.Terms {
			t := &o.q.Score.Terms[ix]
			if t.Table() == name {
				ti.term = t
				if c, ok := t.E.(expr.ColRef); ok {
					ti.termCol = c
					ti.termIsCol = true
					cs := o.cat.ColStats(name, c.Name)
					if cs.Slab > 0 {
						// Filtering thins the relation, widening the slab.
						ti.termSlab = t.Weight * cs.Slab / ti.filtSel
					}
				}
				if ti.termSlab == 0 {
					// Fallback: pretend unit range over the filtered card.
					ti.termSlab = t.Weight / ti.card
				}
				break
			}
		}
		o.tables = append(o.tables, ti)
		o.byName[name] = ti
	}
	return nil
}

// rankAware reports whether rank-aware enumeration applies to this query.
func (o *optimizer) rankAware() bool {
	return !o.opts.DisableRankAware && o.q.Ranking()
}

// mask helpers

func (o *optimizer) maskFor(names ...string) uint64 {
	var m uint64
	for _, n := range names {
		m |= 1 << uint(o.byName[n].idx)
	}
	return m
}

func (o *optimizer) namesOf(mask uint64) []string {
	var out []string
	for _, ti := range o.tables {
		if mask&(1<<uint(ti.idx)) != 0 {
			out = append(out, ti.name)
		}
	}
	return out
}

func (o *optimizer) nameSet(mask uint64) map[string]bool {
	set := map[string]bool{}
	for _, n := range o.namesOf(mask) {
		set[n] = true
	}
	return set
}

func (o *optimizer) label(mask uint64) string {
	return strings.Join(o.namesOf(mask), ",")
}

// rankedOf returns the ranked tables within a mask (sorted by table order).
func (o *optimizer) rankedOf(mask uint64) []*tableInfo {
	var out []*tableInfo
	for _, ti := range o.tables {
		if ti.term != nil && mask&(1<<uint(ti.idx)) != 0 {
			out = append(out, ti)
		}
	}
	return out
}

// rankOrderFor builds the OrderRank property covering all ranked tables of
// the mask; ok=false when the mask holds no ranked table.
func (o *optimizer) rankOrderFor(mask uint64) (plan.OrderProp, bool) {
	ranked := o.rankedOf(mask)
	if len(ranked) == 0 {
		return plan.NoOrder, false
	}
	names := make([]string, len(ranked))
	for i, ti := range ranked {
		names[i] = ti.name
	}
	return plan.RankOrder(names...), true
}

// scoreFor returns the partial ranking function over the mask's tables.
func (o *optimizer) scoreFor(mask uint64) expr.ScoreSum {
	return o.q.ScoreFor(o.nameSet(mask))
}

// geoMeanRankedCard returns the geometric mean cardinality of the ranked
// tables under the mask (the depth model's representative n).
func (o *optimizer) geoMeanRankedCard(mask uint64) float64 {
	ranked := o.rankedOf(mask)
	if len(ranked) == 0 {
		return 1
	}
	s := 0.0
	for _, ti := range ranked {
		s += math.Log(ti.card)
	}
	return math.Exp(s / float64(len(ranked)))
}

// selectivityBetween collects the (closure) join predicates connecting the
// two masks, reduced to one predicate per equivalence class, and multiplies
// their selectivities. Redundant transitive predicates are implied by the
// retained ones, so counting them would underestimate the join cardinality.
func (o *optimizer) selectivityBetween(m1, m2 uint64) ([]logical.JoinPred, float64) {
	left, right := o.nameSet(m1), o.nameSet(m2)
	var preds []logical.JoinPred
	for _, j := range o.joins {
		if left[j.L.Table] && right[j.R.Table] {
			preds = append(preds, j)
		} else if left[j.R.Table] && right[j.L.Table] {
			preds = append(preds, logical.JoinPred{L: j.R, R: j.L})
		}
	}
	preds = o.equiv.reduceByClass(preds)
	s := 1.0
	for _, jp := range preds {
		s *= o.cat.JoinSelectivity(jp.L, jp.R)
	}
	return preds, s
}

// fullMask covers all query tables.
func (o *optimizer) fullMask() uint64 { return (1 << uint(len(o.tables))) - 1 }

// sortKeysByScore builds the descending sort keys for a partial score.
func sortKeysByScore(s expr.ScoreSum) []exec.SortKey {
	return []exec.SortKey{{E: s, Desc: true}}
}

// popcount via bits would import math/bits; small helper suffices.
func popcount(m uint64) int {
	c := 0
	for m != 0 {
		m &= m - 1
		c++
	}
	return c
}

var _ = fmt.Sprintf // keep fmt for error paths in other files

// sortedNames sorts a copy of names.
func sortedNames(names []string) []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}
