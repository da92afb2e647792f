package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"rankopt/internal/core"
	"rankopt/internal/engine"
	"rankopt/internal/exec"
	"rankopt/internal/plan"
	"rankopt/internal/sqlparse"
)

// span is one timed call into a layer. Spans of one request share Req; a
// root span has Parent -1. Times are nanoseconds since the run started.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the duration minus the time the span's children cover,
	// filled in when the run ends.
	Self int64 `json:"self_ns"`
}

// recorder keeps one client's spans in memory; each client owns one, so
// recording takes no lock.
type recorder struct {
	base  time.Time
	req   int
	spans []span
}

// begin opens a span of the current request and returns its id.
func (r *recorder) begin(name string, parent int) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{Req: r.req, ID: id, Parent: parent, Name: name, Start: time.Since(r.base).Nanoseconds()})
	return id
}

func (r *recorder) end(id int) { r.spans[id].End = time.Since(r.base).Nanoseconds() }

// add records a span whose times were measured elsewhere.
func (r *recorder) add(name string, parent int, start, end time.Time) {
	r.spans = append(r.spans, span{Req: r.req, ID: len(r.spans), Parent: parent, Name: name,
		Start: start.Sub(r.base).Nanoseconds(), End: end.Sub(r.base).Nanoseconds()})
}

// fillSelfTimes sets every span's self time: its duration minus the union
// of the intervals its children cover.
func fillSelfTimes(spans []span) {
	children := map[[2]int][]int{} // (req, parent id) -> child indexes
	index := map[[2]int]int{}      // (req, id) -> index
	for i, s := range spans {
		index[[2]int{s.Req, s.ID}] = i
		if s.Parent >= 0 {
			children[[2]int{s.Req, s.Parent}] = append(children[[2]int{s.Req, s.Parent}], i)
		}
	}
	for key, i := range index {
		s := &spans[i]
		var ivs [][2]int64
		for _, c := range children[key] {
			ivs = append(ivs, [2]int64{max(spans[c].Start, s.Start), min(spans[c].End, s.End)})
		}
		s.Self = s.End - s.Start - covered(ivs)
	}
}

// covered returns the total length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, end int64
	first := true
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		switch {
		case first || iv[0] >= end:
			total += iv[1] - iv[0]
			end = iv[1]
			first = false
		case iv[1] > end:
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTraced serves one request through the layers' public entry points,
// spanning each call: parse, fingerprint, optimize on a template miss,
// instantiate, compile, the root open, the first batch, and the rest of the
// drain with Close. It mirrors engine.Run's unsharded path.
func (e *env) runTraced(rec *recorder, q query) sample {
	sql := q.SQL()
	var smp sample
	root := rec.begin("request", -1)
	defer rec.end(root)
	s := rec.begin("sqlparse.parse", root)
	lq, err := sqlparse.Parse(sql)
	rec.end(s)
	if err != nil {
		smp.err = err
		return smp
	}
	s = rec.begin("sqlparse.fingerprint", root)
	fp := sqlparse.Fingerprint(lq)
	rec.end(s)
	smp.fp = fp
	e.mu.Lock()
	tmpl, hit := e.templates[fp]
	e.mu.Unlock()
	smp.hit = hit
	if !hit {
		s = rec.begin("core.optimize", root)
		res, err := core.Optimize(e.cat, lq, core.Options{})
		rec.end(s)
		if err != nil {
			smp.err = err
			return smp
		}
		smp.optimized = true
		smp.plansGenerated, smp.plansPruned = res.PlansGenerated, res.PlansPruned
		s = rec.begin("plan.new_template", root)
		tmpl = plan.NewTemplate(res.Best, lq.K, plan.PlanCounters{
			Generated: res.PlansGenerated, Kept: res.PlansKept,
			Pruned: res.PlansPruned, Protected: res.PlansProtected,
		})
		rec.end(s)
		e.mu.Lock()
		e.templates[fp] = tmpl
		e.mu.Unlock()
	}
	s = rec.begin("plan.instantiate", root)
	pn := tmpl.Instantiate(lq.K)
	rec.end(s)
	smp.observePlan(pn)
	var joins []rankJoin
	s = rec.begin("plan.compile", root)
	op, err := plan.CompileWith(e.cat, pn, plan.Config{Trace: func(n *plan.Node, o exec.Operator) {
		if sr, ok := o.(exec.StatsReporter); ok && n.Op.IsRankJoin() {
			joins = append(joins, rankJoin{n, sr})
		}
	}})
	rec.end(s)
	if err != nil {
		smp.err = err
		return smp
	}
	cols := make([]string, op.Schema().Len())
	for i := range cols {
		cols[i] = op.Schema().Column(i).QualifiedName()
	}
	bop := exec.Batched(op)
	s = rec.begin("exec.open", root)
	err = exec.OpenOp(context.Background(), bop)
	rec.end(s)
	if err != nil {
		smp.err = err
		return smp
	}
	b := exec.NewBatch(exec.DefaultBatchSize)
	var scores []float64
	pull := func() (bool, error) {
		ok, err := bop.NextBatch(b, exec.DefaultBatchSize)
		if ok {
			got, serr := answerScores(cols, b.Tuples())
			if serr != nil {
				return false, serr
			}
			scores = append(scores, got...)
		}
		return ok, err
	}
	s = rec.begin("exec.first_batch", root)
	ok, err := pull()
	rec.end(s)
	s = rec.begin("exec.drain", root)
	for ok && err == nil {
		ok, err = pull()
	}
	if cerr := bop.Close(); err == nil {
		err = cerr
	}
	rec.end(s)
	if err != nil {
		smp.err = err
		return smp
	}
	smp.scores = scores
	for _, j := range joins {
		smp.observeRankJoin(j.node.EstDL, j.node.EstDR, j.op.Stats())
	}
	return smp
}

type rankJoin struct {
	node *plan.Node
	op   exec.StatsReporter
}

// runEngineTraced serves one request through engine.Run, spanning the call
// and adding one child span per started shard from the response's
// ShardStats. It is the traced path for sharded workloads, whose per-shard
// steps have no public entry point.
func (e *env) runEngineTraced(rec *recorder, q query) sample {
	root := rec.begin("request", -1)
	defer rec.end(root)
	s := rec.begin("engine.run", root)
	resp := e.eng.Run(engine.Request{SQL: q.SQL()})
	rec.end(s)
	if resp.ShardStats != nil {
		for i, o := range resp.ShardStats.PerShard {
			if !o.StartAt.IsZero() {
				rec.add(fmt.Sprintf("shard.%d", i), s, o.StartAt, o.EndAt)
			}
		}
	}
	return sampleOf(resp)
}

// layerStats reduces the traced run's spans to per-layer figures.
type layerStats struct {
	// self and dur hold self times and durations in nanoseconds by span
	// name (all shard spans under the name "shard").
	self, dur map[string][]float64
	// shardBusy and shardCritical are per engine.run call: the sum of its
	// shard spans, and the latest shard end minus the earliest shard start.
	shardBusy, shardCritical []float64
}

func layerStatsOf(spans []span) layerStats {
	ls := layerStats{self: map[string][]float64{}, dur: map[string][]float64{}}
	type agg struct {
		busy       int64
		start, end int64
		n          int
	}
	shardOf := map[[2]int]*agg{}
	runs := map[[2]int]bool{}
	for _, s := range spans {
		name := s.Name
		if strings.HasPrefix(name, "shard.") {
			key := [2]int{s.Req, s.Parent}
			a := shardOf[key]
			if a == nil {
				a = &agg{start: s.Start, end: s.End}
				shardOf[key] = a
			}
			a.busy += s.End - s.Start
			a.start, a.end = min(a.start, s.Start), max(a.end, s.End)
			a.n++
			name = "shard"
		}
		if name == "engine.run" {
			runs[[2]int{s.Req, s.ID}] = true
		}
		ls.self[name] = append(ls.self[name], float64(s.Self))
		ls.dur[name] = append(ls.dur[name], float64(s.End-s.Start))
	}
	for key := range runs {
		if a := shardOf[key]; a != nil {
			ls.shardBusy = append(ls.shardBusy, float64(a.busy))
			ls.shardCritical = append(ls.shardCritical, float64(a.end-a.start))
		} else {
			ls.shardBusy = append(ls.shardBusy, 0)
			ls.shardCritical = append(ls.shardCritical, 0)
		}
	}
	return ls
}

// p50 returns the median self time of the named span in the given unit, or
// 0 when the workload never made that call.
func (ls layerStats) p50(name string, unit time.Duration) float64 {
	return median(ls.self[name]) / float64(unit)
}
