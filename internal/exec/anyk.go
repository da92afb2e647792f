package exec

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"rankopt/internal/expr"
	"rankopt/internal/relation"
)

// AnyK is a Lawler-style any-k ranked enumerator for acyclic multi-way
// equi-joins arranged as a path: input i joins input i+1 on
// LeftKeys[i] = RightKeys[i]. Where MultiHRJN eagerly materializes every join
// combination a new tuple completes (a product of per-key bucket sizes), AnyK
// builds per-level adjacency once and then pops results from a priority
// queue of partial solutions, expanding at most one successor per path
// position per pop — delay O(m·log) per result after an O(Σ n_i) build,
// independent of the join's output size (Tziavelis et al., "Optimal Join
// Algorithms Meet Top-k").
//
// The build phase is bottom-up dynamic programming over the path: each tuple
// at level i learns its successor bucket at level i+1 (tuples sharing its
// join key) and its own `suffix` bound — its score plus the best completion
// of the remaining path. The enumeration phase then walks a max-heap of
// index vectors: popping the current best solution and pushing, for each
// position at or after the pop's deviation level, the solution that takes
// the next-best sibling there and the greedy best everywhere after. That
// partition visits every join result exactly once, in non-increasing score
// order, with deterministic FIFO tie-breaking.
//
// Ordering is lazy (the "Lazy" any-k variant): the build only moves each
// bucket's best entry to its front, which is all the suffix DP reads, and
// heapifies the root level. A bucket's tail is sorted the first time
// enumeration asks for its second entry, and the root is popped into a
// sorted run one entry per requested position, so a top-k query sorts only
// as deep as its k answers reach.
//
// Inputs need not be sorted — the build consumes them in any order — so AnyK
// runs directly over cheap unordered scans where HRJN-family plans must pay
// for ranked access paths.
type AnyK struct {
	// Inputs are the m path-ordered relations.
	Inputs []Operator
	// Scores[i] evaluates input i's score contribution against its schema.
	Scores []expr.Expr
	// LeftKeys[i] (over Inputs[i]) and RightKeys[i] (over Inputs[i+1]) are
	// the m-1 adjacent equi-join key pairs along the path.
	LeftKeys, RightKeys []expr.Expr
	// Budget, when set, is charged for every tuple buffered during the build
	// and every pending solution on the queue, and consulted for the
	// per-input depth limit while draining inputs.
	Budget *Budget

	schema   *relation.Schema
	scoreEvs []expr.Eval
	lkeyEvs  []expr.Eval // lkeyEvs[i] binds LeftKeys[i] to Inputs[i]
	rkeyEvs  []expr.Eval // rkeyEvs[i] binds RightKeys[i] to Inputs[i+1]

	built bool
	// levels[0].entries is the root: a max-heap in root[:rootHeap] and, after
	// it, the sorted run that root positions index from the end (see rootAt).
	// Levels 1..m-1 hold their entries grouped contiguously by bucket.
	levels   []anykLevel
	rootHeap int
	pq       anykQueue
	seq      int
	// path and prefix are pop-time scratch (the solution walk), reused so
	// the hot path does not allocate them.
	path   []*anykEntry
	prefix []float64

	cancel canceller
	acct   accountant

	depths   []int
	maxQueue int
	emitted  int
}

// anykMaxWidth bounds the path width so a solution's index vector fits in a
// fixed array and pushes never allocate. Join queries are far narrower.
const anykMaxWidth = 8

// anykEntry is one input tuple annotated for ranked enumeration: its own
// score contribution, the best total achievable from it to the end of the
// path (suffix), the id of its successor bucket at the next level, and its
// position in its input's drain order (after NULL-score drops), which
// breaks suffix ties.
type anykEntry struct {
	tuple  relation.Tuple
	score  float64
	suffix float64
	next   int32
	ord    int32
}

// anykCompare orders entries for enumeration: higher suffix first, earlier
// drain position among equals. The order is total within a level, so every
// sort or heap over it yields one sequence.
func anykCompare(a, b anykEntry) int {
	if a.suffix != b.suffix {
		if a.suffix > b.suffix {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.ord, b.ord)
}

// anykBucket is one join key's run of entries within a level:
// entries[lo:lo+n]. The best entry sits at lo from the build on; the tail
// is sorted on first access and then marked sorted for every predecessor
// that shares the bucket.
type anykBucket struct {
	lo, n  int32
	sorted bool
}

// anykLevel is one path level after the build.
type anykLevel struct {
	entries []anykEntry
	buckets []anykBucket
}

// at returns entry i of bucket b, sorting the bucket's tail the first time
// a position past its front is asked for.
func (lv *anykLevel) at(b, i int32) (*anykEntry, bool) {
	bk := &lv.buckets[b]
	if i >= bk.n {
		return nil, false
	}
	if i > 0 && !bk.sorted {
		slices.SortFunc(lv.entries[bk.lo+1:bk.lo+bk.n], anykCompare)
		bk.sorted = true
	}
	return &lv.entries[bk.lo+i], true
}

// anykKeys maps one level's join-key values to its bucket ids with
// Value.HashKey's equality — ints and floats unify, NaN matches nothing, and
// −0 equals +0 — but keeps numeric keys in a float64-keyed map so the common
// case boxes nothing.
type anykKeys struct {
	num   map[float64]int32
	other map[any]int32
}

// find returns the bucket of non-NULL key v.
func (k *anykKeys) find(v relation.Value) (int32, bool) {
	if v.Numeric() {
		b, ok := k.num[v.AsFloat()]
		return b, ok
	}
	b, ok := k.other[v.HashKey()]
	return b, ok
}

// intern returns the bucket of non-NULL key v, assigning id fresh when v is
// new (a NaN key is always new, as in any Go map).
func (k *anykKeys) intern(v relation.Value, fresh int32) int32 {
	if v.Numeric() {
		f := v.AsFloat()
		if b, ok := k.num[f]; ok {
			return b
		}
		if k.num == nil {
			k.num = make(map[float64]int32)
		}
		k.num[f] = fresh
		return fresh
	}
	hk := v.HashKey()
	if b, ok := k.other[hk]; ok {
		return b
	}
	if k.other == nil {
		k.other = make(map[any]int32)
	}
	k.other[hk] = fresh
	return fresh
}

// anykRows holds one level's drained entries in drain order. Chunks double
// up to anykChunkMax entries, so the drain never copies an entry to grow.
type anykRows struct {
	chunks [][]anykEntry
	n      int
}

const anykChunkMax = 4096

func (r *anykRows) add(e anykEntry) {
	last := len(r.chunks) - 1
	if last < 0 || len(r.chunks[last]) == cap(r.chunks[last]) {
		size := anykChunkMax
		if len(r.chunks) < 6 {
			size = 64 << len(r.chunks)
		}
		r.chunks = append(r.chunks, make([]anykEntry, 0, size))
		last++
	}
	r.chunks[last] = append(r.chunks[last], e)
	r.n++
}

// anykSol is a pending (partial) solution: an index vector selecting one
// entry per level, its total score, and the deviation level below which the
// vector is frozen for successor generation.
type anykSol struct {
	score float64
	seq   int
	dev   int8
	idx   [anykMaxWidth]int32
}

// anykQueue is a max-heap of pending solutions ordered by score with FIFO
// tie-breaking, mirroring rankQueue but holding inline index vectors.
type anykQueue []anykSol

func (q anykQueue) prior(i, j int) bool {
	if q[i].score != q[j].score {
		return q[i].score > q[j].score
	}
	return q[i].seq < q[j].seq
}

func (q *anykQueue) push(s anykSol) {
	*q = append(*q, s)
	h := *q
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.prior(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (q *anykQueue) pop() anykSol {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = anykSol{}
	h = h[:n]
	*q = h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.prior(l, best) {
			best = l
		}
		if r < n && h.prior(r, best) {
			best = r
		}
		if best == i {
			break
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
	return top
}

// NewAnyK constructs the operator; inputs, scores, and adjacent key pairs
// must align, and the path width is capped at anykMaxWidth.
func NewAnyK(inputs []Operator, scores, leftKeys, rightKeys []expr.Expr) (*AnyK, error) {
	if len(inputs) < 2 {
		return nil, fmt.Errorf("exec: AnyK needs >=2 inputs, got %d", len(inputs))
	}
	if len(inputs) > anykMaxWidth {
		return nil, fmt.Errorf("exec: AnyK supports at most %d inputs, got %d", anykMaxWidth, len(inputs))
	}
	if len(scores) != len(inputs) || len(leftKeys) != len(inputs)-1 || len(rightKeys) != len(inputs)-1 {
		return nil, fmt.Errorf("exec: AnyK arity mismatch (%d inputs, %d scores, %d/%d keys)",
			len(inputs), len(scores), len(leftKeys), len(rightKeys))
	}
	sch := inputs[0].Schema()
	for _, in := range inputs[1:] {
		sch = sch.Concat(in.Schema())
	}
	return &AnyK{Inputs: inputs, Scores: scores, LeftKeys: leftKeys, RightKeys: rightKeys, schema: sch}, nil
}

// Schema implements Operator.
func (j *AnyK) Schema() *relation.Schema { return j.schema }

// Depths returns the number of tuples consumed from each input.
func (j *AnyK) Depths() []int { return append([]int(nil), j.depths...) }

// MaxQueue returns the solution-queue high-water mark.
func (j *AnyK) MaxQueue() int { return j.maxQueue }

// Stats implements StatsReporter: the build drains every input fully, so the
// reported depths are the input cardinalities, rows with a NULL score
// included.
func (j *AnyK) Stats() RankJoinStats {
	st := RankJoinStats{MaxQueue: j.maxQueue, Emitted: j.emitted}
	if len(j.depths) > 0 {
		st.LeftDepth = j.depths[0]
		st.RightDepth = j.depths[len(j.depths)-1]
	}
	return st
}

// gauges exposes the queue high-water mark (and, on a binary path, the two
// input depths) to the Analyzed collector.
func (j *AnyK) gauges() analyzeGauges {
	g := analyzeGauges{maxQueue: j.maxQueue}
	if len(j.depths) == 2 {
		g.leftDepth, g.rightDepth = j.depths[0], j.depths[1]
	}
	return g
}

// OpenCtx implements Operator. The build itself is deferred to the first
// Next call so cancellation during the (blocking) build surfaces as a Next
// error like every other operator's pull loop.
func (j *AnyK) OpenCtx(ctx context.Context) error {
	j.cancel.reset(ctx)
	j.acct.releaseAll()
	j.acct.budget = j.Budget
	m := len(j.Inputs)
	j.scoreEvs = make([]expr.Eval, m)
	j.lkeyEvs = make([]expr.Eval, m-1)
	j.rkeyEvs = make([]expr.Eval, m-1)
	for i, in := range j.Inputs {
		if err := in.OpenCtx(ctx); err != nil {
			closeQuietly(j.Inputs[:i]...)
			return err
		}
		var err error
		if j.scoreEvs[i], err = j.Scores[i].Bind(in.Schema()); err != nil {
			closeQuietly(j.Inputs[:i+1]...)
			return err
		}
		if i < m-1 {
			if j.lkeyEvs[i], err = j.LeftKeys[i].Bind(in.Schema()); err != nil {
				closeQuietly(j.Inputs[:i+1]...)
				return err
			}
		}
		if i > 0 {
			if j.rkeyEvs[i-1], err = j.RightKeys[i-1].Bind(in.Schema()); err != nil {
				closeQuietly(j.Inputs[:i+1]...)
				return err
			}
		}
	}
	j.built = false
	j.levels = nil
	j.rootHeap = 0
	j.pq = j.pq[:0]
	j.seq = 0
	j.path = make([]*anykEntry, m)
	j.prefix = make([]float64, m)
	j.depths = make([]int, m)
	j.maxQueue = 0
	j.emitted = 0
	return nil
}

// drain consumes input i fully into rows, batch-at-a-time through batch.
// Tuples with a NULL score cannot contribute to any result and are dropped
// (after being counted against the depth).
func (j *AnyK) drain(i int, batch *Batch, rows *anykRows) error {
	var src batchSource
	src.reset(j.cancel.ctx, j.Inputs[i])
	for {
		ok, err := src.next(batch, DefaultBatchSize)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for _, t := range batch.Tuples() {
			if err := j.cancel.poll(); err != nil {
				return err
			}
			j.depths[i]++
			if err := j.Budget.depthOK(j.depths[i]); err != nil {
				return err
			}
			sv, err := j.scoreEvs[i](t)
			if err != nil {
				return err
			}
			if sv.IsNull() {
				continue
			}
			s, err := finiteScore(sv.AsFloat(), "AnyK", "path")
			if err != nil {
				return err
			}
			if err := j.acct.charge(1); err != nil {
				return err
			}
			rows.add(anykEntry{tuple: t, score: s, ord: int32(rows.n)})
		}
	}
}

// classify finishes drained entry e of level lvl: it sets e's suffix and,
// above the last level, its successor bucket, and returns e's own bucket —
// 0 on the root level, its interned join key elsewhere (fresh when the key
// is new) — or -1 when e is dead: a NULL key, or no completion below.
func (j *AnyK) classify(lvl int, e *anykEntry, below, keys *anykKeys, fresh int32) (int32, error) {
	e.suffix = e.score
	if lvl < len(j.Inputs)-1 {
		kv, err := j.lkeyEvs[lvl](e.tuple)
		if err != nil || kv.IsNull() {
			return -1, err
		}
		nb, ok := below.find(kv)
		if !ok {
			return -1, nil
		}
		lower := &j.levels[lvl+1]
		e.next = nb
		e.suffix += lower.entries[lower.buckets[nb].lo].suffix
	}
	if lvl == 0 {
		return 0, nil
	}
	kv, err := j.rkeyEvs[lvl-1](e.tuple)
	if err != nil || kv.IsNull() {
		return -1, err
	}
	return keys.intern(kv, fresh), nil
}

// group builds level lvl from its drained rows, given the key index of the
// already-built level below, and returns the level's own key index for the
// level above. Dead rows are released. Live rows are counted per bucket,
// then placed in drain order into one contiguous array, and each bucket's
// best entry is moved to its front. own is scratch for rows.n bucket ids.
func (j *AnyK) group(lvl int, rows *anykRows, below *anykKeys, own []int32) (anykKeys, error) {
	var keys anykKeys
	var buckets []anykBucket
	if lvl == 0 {
		buckets = []anykBucket{{}}
	}
	live, r := 0, 0
	for _, ch := range rows.chunks {
		for x := range ch {
			if err := j.cancel.poll(); err != nil {
				return keys, err
			}
			b, err := j.classify(lvl, &ch[x], below, &keys, int32(len(buckets)))
			if err != nil {
				return keys, err
			}
			own[r] = b
			r++
			switch {
			case b < 0:
				j.acct.release(1)
				continue
			case int(b) == len(buckets):
				buckets = append(buckets, anykBucket{})
			}
			buckets[b].n++
			live++
		}
	}

	var lo int32
	for b := range buckets {
		buckets[b].lo = lo
		lo += buckets[b].n
		buckets[b].n = 0
	}
	entries := make([]anykEntry, live)
	r = 0
	for _, ch := range rows.chunks {
		for x := range ch {
			if err := j.cancel.poll(); err != nil {
				return keys, err
			}
			if b := own[r]; b >= 0 {
				bk := &buckets[b]
				entries[bk.lo+bk.n] = ch[x]
				bk.n++
			}
			r++
		}
	}
	j.levels[lvl] = anykLevel{entries: entries, buckets: buckets}
	if lvl == 0 {
		return keys, nil
	}
	for b := range buckets {
		run := entries[buckets[b].lo : buckets[b].lo+buckets[b].n]
		best := 0
		for x := 1; x < len(run); x++ {
			if err := j.cancel.poll(); err != nil {
				return keys, err
			}
			// Strict: among equal suffixes the earliest-drained entry wins.
			if run[x].suffix > run[best].suffix {
				best = x
			}
		}
		run[0], run[best] = run[best], run[0]
		buckets[b].sorted = len(run) <= 2
	}
	return keys, nil
}

// build runs the bottom-up phase: drain every input, then place each level
// into key buckets and assign suffix bounds backward along the path, and
// finally heapify the root.
func (j *AnyK) build() error {
	m := len(j.Inputs)
	batch := NewBatch(DefaultBatchSize)
	rows := make([]anykRows, m)
	maxRows := 0
	for i := range rows {
		if err := j.drain(i, batch, &rows[i]); err != nil {
			return err
		}
		maxRows = max(maxRows, rows[i].n)
	}
	own := make([]int32, maxRows)
	j.levels = make([]anykLevel, m)
	var below anykKeys
	for lvl := m - 1; lvl >= 0; lvl-- {
		keys, err := j.group(lvl, &rows[lvl], &below, own)
		if err != nil {
			return err
		}
		below = keys
		rows[lvl] = anykRows{}
	}
	if err := j.heapifyRoot(); err != nil {
		return err
	}
	if top, ok := j.rootAt(0); ok {
		if err := j.acct.charge(1); err != nil {
			return err
		}
		j.pq.push(anykSol{score: top.suffix, seq: j.seq})
		j.seq++
		j.maxQueue = 1
	}
	j.built = true
	return nil
}

// The root level is ordered by an in-place heapsort run lazily: root[:rootHeap]
// is a max-heap under anykCompare, and each pop moves the heap's best entry
// to root[rootHeap-1], just before the sorted run. Root position i therefore
// lives at root[len(root)-1-i] once popped, and popped entries never move.

// heapifyRoot builds the root max-heap in O(n).
func (j *AnyK) heapifyRoot() error {
	root := j.levels[0].entries
	j.rootHeap = len(root)
	for h := len(root)/2 - 1; h >= 0; h-- {
		if err := j.cancel.poll(); err != nil {
			return err
		}
		anykSiftDown(root[:j.rootHeap], h)
	}
	return nil
}

func anykSiftDown(h []anykEntry, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && anykCompare(h[r], h[c]) < 0 {
			c = r
		}
		if anykCompare(h[c], h[i]) > 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// rootAt returns root position i, popping the heap until the sorted run
// reaches it.
func (j *AnyK) rootAt(i int32) (*anykEntry, bool) {
	root := j.levels[0].entries
	pos := len(root) - 1 - int(i)
	if pos < 0 {
		return nil, false
	}
	for pos < j.rootHeap {
		j.rootHeap--
		root[0], root[j.rootHeap] = root[j.rootHeap], root[0]
		anykSiftDown(root[:j.rootHeap], 0)
	}
	return &root[pos], true
}

// walk materializes the popped solution's per-level entries and running
// prefix scores into the reusable scratch. Every index it follows was
// resolved (and so ordered) when the solution was pushed.
func (j *AnyK) walk(s *anykSol) {
	root := j.levels[0].entries
	e := &root[len(root)-1-int(s.idx[0])]
	j.path[0] = e
	j.prefix[0] = e.score
	for lvl := 1; lvl < len(j.Inputs); lvl++ {
		lv := &j.levels[lvl]
		e = &lv.entries[lv.buckets[e.next].lo+s.idx[lvl]]
		j.path[lvl] = e
		j.prefix[lvl] = j.prefix[lvl-1] + e.score
	}
}

// Next implements Operator: pop the best pending solution, emit it, and push
// its successors (one per path position at or after the deviation level).
func (j *AnyK) Next() (relation.Tuple, bool, error) {
	if err := j.cancel.poll(); err != nil {
		return nil, false, err
	}
	if !j.built {
		if err := j.build(); err != nil {
			return nil, false, err
		}
	}
	if len(j.pq) == 0 {
		return nil, false, nil
	}
	m := len(j.Inputs)
	sol := j.pq.pop()
	j.acct.release(1)
	j.walk(&sol)

	for lvl := int(sol.dev); lvl < m; lvl++ {
		// Resolving the sibling may sort its bucket's tail; the walked entry
		// at this level is then the bucket's front, which never moves.
		ni := sol.idx[lvl] + 1
		var sib *anykEntry
		var ok bool
		if lvl == 0 {
			sib, ok = j.rootAt(ni)
		} else {
			sib, ok = j.levels[lvl].at(j.path[lvl-1].next, ni)
		}
		if !ok {
			continue
		}
		succ := anykSol{seq: j.seq, dev: int8(lvl)}
		copy(succ.idx[:lvl], sol.idx[:lvl])
		succ.idx[lvl] = ni
		succ.score = sib.suffix
		if lvl > 0 {
			succ.score += j.prefix[lvl-1]
		}
		j.seq++
		if err := j.acct.charge(1); err != nil {
			return nil, false, err
		}
		j.pq.push(succ)
	}
	if len(j.pq) > j.maxQueue {
		j.maxQueue = len(j.pq)
	}

	out := make(relation.Tuple, 0, j.schema.Len())
	for lvl := 0; lvl < m; lvl++ {
		out = append(out, j.path[lvl].tuple...)
	}
	j.emitted++
	return out, true, nil
}

// Close implements Operator.
func (j *AnyK) Close() error {
	var first error
	for _, in := range j.Inputs {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	j.levels = nil
	j.pq = nil
	j.path = nil
	j.built = false
	j.acct.releaseAll()
	return first
}
