package engine

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rankopt/internal/core"
	"rankopt/internal/plan"
)

// TestSnapshotCountsSessions runs a mixed batch (including deliberate parse
// errors and one analyzed query) and checks the engine-wide counters add up.
func TestSnapshotCountsSessions(t *testing.T) {
	eng := testEngine(t, core.Options{})
	reqs := testRequests(14, true)
	var wantErrs, wantTuples uint64
	for _, r := range reqs {
		resp := eng.Run(r)
		if resp.Err != nil {
			wantErrs++
		}
		wantTuples += uint64(len(resp.Tuples))
	}
	aresp := eng.Run(Request{ID: "a", SQL: reqs[0].SQL, Analyze: true})
	if aresp.Err != nil {
		t.Fatal(aresp.Err)
	}
	wantTuples += uint64(len(aresp.Tuples))

	m := eng.Snapshot()
	if m.Queries != uint64(len(reqs))+1 {
		t.Errorf("Queries = %d, want %d", m.Queries, len(reqs)+1)
	}
	if m.Errors != wantErrs {
		t.Errorf("Errors = %d, want %d", m.Errors, wantErrs)
	}
	if m.Analyzed != 1 {
		t.Errorf("Analyzed = %d, want 1", m.Analyzed)
	}
	if m.TuplesReturned != wantTuples {
		t.Errorf("TuplesReturned = %d, want %d", m.TuplesReturned, wantTuples)
	}
	if m.AvgLatencyMillis <= 0 {
		t.Errorf("AvgLatencyMillis = %g, want > 0", m.AvgLatencyMillis)
	}
	if m.P50LatencyMillis <= 0 || m.P99LatencyMillis < m.P50LatencyMillis {
		t.Errorf("quantiles p50=%g p99=%g look wrong", m.P50LatencyMillis, m.P99LatencyMillis)
	}
	if len(m.LatencyBuckets) != numLatencyBuckets {
		t.Fatalf("%d latency buckets, want %d", len(m.LatencyBuckets), numLatencyBuckets)
	}
	last := m.LatencyBuckets[len(m.LatencyBuckets)-1]
	if last.UpperBoundMillis != -1 {
		t.Errorf("overflow bucket bound = %g, want -1 (+Inf)", last.UpperBoundMillis)
	}
	if last.CumulativeCount != m.Queries {
		t.Errorf("histogram total %d != queries %d", last.CumulativeCount, m.Queries)
	}
	for i := 1; i < len(m.LatencyBuckets); i++ {
		if m.LatencyBuckets[i].CumulativeCount < m.LatencyBuckets[i-1].CumulativeCount {
			t.Fatalf("cumulative counts not monotone at bucket %d", i)
		}
	}
}

// TestQuantileBound pins the fixed-bucket quantile estimate on a hand-built
// histogram: 90 sessions in the 1ms bucket, 10 in the 100ms bucket.
func TestQuantileBound(t *testing.T) {
	var m metrics
	for i := 0; i < 90; i++ {
		m.latency[bucketFor(800*time.Microsecond)].Add(1)
	}
	for i := 0; i < 10; i++ {
		m.latency[bucketFor(80*time.Millisecond)].Add(1)
	}
	if got := quantileBound(&m, 100, 0.50); got != 1.0 {
		t.Errorf("p50 = %gms, want 1", got)
	}
	if got := quantileBound(&m, 100, 0.99); got != 100.0 {
		t.Errorf("p99 = %gms, want 100", got)
	}
	if got := quantileBound(&m, 0, 0.99); got != 0 {
		t.Errorf("empty histogram p99 = %g, want 0", got)
	}
}

// TestDebugMuxEndpoints serves the counters over HTTP (stdlib only) and
// checks both exposition formats.
func TestDebugMuxEndpoints(t *testing.T) {
	eng := testEngine(t, core.Options{})
	for _, r := range testRequests(6, false) {
		if resp := eng.Run(r); resp.Err != nil {
			t.Fatal(resp.Err)
		}
	}
	srv := httptest.NewServer(eng.DebugMux())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{
		"raqo_queries_total 6",
		"raqo_errors_total 0",
		"raqo_plan_cache_misses_total",
		"raqo_query_latency_seconds_bucket{le=\"+Inf\"} 6",
		"raqo_query_latency_seconds_count 6",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}

	resp, err = srv.Client().Get(srv.URL + "/debug/engine")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("/debug/engine not valid JSON: %v", err)
	}
	if m.Queries != 6 {
		t.Errorf("/debug/engine queries = %d, want 6", m.Queries)
	}
	if len(m.LatencyBuckets) != numLatencyBuckets {
		t.Errorf("/debug/engine has %d latency buckets, want %d", len(m.LatencyBuckets), numLatencyBuckets)
	}
}

// TestPlainSessionTimesOperators pins that the per-operator latency
// histogram covers all traffic: one plain session — no ANALYZE, no trace —
// must land one raqo_operator_latency_seconds sample per rank join it ran.
func TestPlainSessionTimesOperators(t *testing.T) {
	eng := testEngine(t, core.Options{})
	resp := eng.Run(Request{SQL: testRequests(1, false)[0].SQL})
	if resp.Err != nil {
		t.Fatal(resp.Err)
	}
	joins := resp.Plan.CountOps(plan.OpHRJN)
	if joins == 0 {
		t.Fatalf("plan has no HRJN; the test premise is gone:\n%s", plan.Explain(resp.Plan))
	}
	rec := httptest.NewRecorder()
	eng.DebugMux().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	want := fmt.Sprintf("raqo_operator_latency_seconds_count{op=\"HRJN\"} %d\n", joins)
	if !strings.Contains(rec.Body.String(), want) {
		t.Errorf("/metrics missing %q in:\n%s", want, rec.Body.String())
	}
}
