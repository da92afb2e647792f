package plan

import (
	"fmt"
	"math"
	"strings"

	"rankopt/internal/exec"
)

// ShardRun pairs one shard's rebound plan clone with the stats collectors
// its pipeline executed under. The engine builds one per shard for every
// session on the scatter-gather tier.
type ShardRun struct {
	Shard    int
	Root     *Node
	Analysis *AnalyzedPlan
}

// ShardedAnalysis is the EXPLAIN ANALYZE outcome of a sharded session: the
// coordinator's merge stats (with the per-shard ceiling/bound/cause rows)
// plus every shard's analyzed pipeline. Render with FormatShardedAnalyze.
type ShardedAnalysis struct {
	Stats  exec.ShardMergeStats
	Shards []ShardRun
}

// fmtScore renders a score bound for the shard table; ceilings can
// legitimately be ±Inf (no provable bound / provably empty shard).
func fmtScore(v float64) string {
	switch {
	case math.IsNaN(v):
		return "none"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return fmt.Sprintf("%.3f", v)
}

// FormatShardedAnalyze renders the sharded EXPLAIN ANALYZE: the coordinator
// as the root node with its merge counters, then one shard table row per
// shard — outcome cause, a-priori ceiling (the statistics' promise) vs. the
// live bound at decision time (what the run proved), tuples pulled — each
// followed by the shard pipeline's analyzed tree. Pruned shards never ran,
// so they render the table row only. withTimes adds sampled wall times (keep
// it off for byte-stable golden output).
func FormatShardedAnalyze(root *Node, sa *ShardedAnalysis, withTimes bool) string {
	effK := effectiveK(root)
	st := sa.Stats
	var b strings.Builder
	fmt.Fprintf(&b, "EXPLAIN ANALYZE (k=%.0f, sharded over %d shards)\n", effK, st.Shards)
	fmt.Fprintf(&b, "ShardMerge  (started=%d pruned=%d early_stopped=%d exhausted=%d pulled=%d saved=%d kth=%s)\n",
		st.Started, st.Pruned, st.EarlyStopped, st.Exhausted,
		st.TuplesPulled, st.TuplesSaved, fmtScore(st.KthScore))
	runs := map[int]ShardRun{}
	for _, r := range sa.Shards {
		runs[r.Shard] = r
	}
	for _, out := range st.PerShard {
		cause := out.Cause
		if cause == "" {
			cause = "aborted"
		}
		fmt.Fprintf(&b, "  shard %d: %s  ceiling est=%s bound act=%s pulled=%d",
			out.Shard, cause, fmtScore(out.Ceiling), fmtScore(out.Bound), out.Pulled)
		r, ok := runs[out.Shard]
		if out.Cause == exec.ShardCausePruned || !ok || r.Root == nil {
			b.WriteString("  (never started)\n")
			continue
		}
		b.WriteByte('\n')
		est := map[*Node]float64{}
		PropagateK(r.Root, effK, func(n *Node, k float64) {
			est[n] = math.Min(k, n.Card)
		})
		formatAnalyze(&b, r.Root, 2, r.Analysis, est, withTimes)
	}
	return b.String()
}
