package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"rankopt/internal/engine"
	"rankopt/internal/sqlparse"
)

// sqlOf renders the first n requests of a sequence.
func sqlOf(seq *sequence, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		_, q := seq.next()
		b.WriteString(q.SQL())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestSameSeedGivesIdenticalSequence(t *testing.T) {
	for _, def := range workloads {
		a := sqlOf(def.newSequence(7), 500)
		b := sqlOf(def.newSequence(7), 500)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two sequences from seed 7 differ", def.name)
		}
		if bytes.Equal(a, sqlOf(def.newSequence(8), 500)) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", def.name)
		}
	}
}

func TestAdhocColdNeverRepeatsAFingerprint(t *testing.T) {
	def, err := workloadByName("adhoc-cold")
	if err != nil {
		t.Fatal(err)
	}
	fingerprint := func(q query) string {
		lq, err := sqlparse.Parse(q.SQL())
		if err != nil {
			t.Fatalf("parse %q: %v", q.SQL(), err)
		}
		return sqlparse.Fingerprint(lq)
	}
	seen := map[string]bool{}
	for _, q := range def.warmup() {
		seen[fingerprint(q)] = true
	}
	seq := def.newSequence(3)
	for i := 0; i < 3000; i++ {
		_, q := seq.next()
		fp := fingerprint(q)
		if seen[fp] {
			t.Fatalf("request %d repeats fingerprint %s", i, fp)
		}
		seen[fp] = true
	}
}

func TestReferenceCatchesACorruptedAnswer(t *testing.T) {
	def, err := workloadByName("serve-warm")
	if err != nil {
		t.Fatal(err)
	}
	cat := def.load(5, 10)
	ref, err := newReference(cat)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.NewWithConfig(cat, engine.Config{})
	seq := def.newSequence(5)
	for i := 0; i < 12; i++ {
		_, q := seq.next()
		smp := sampleOf(eng.Run(engine.Request{SQL: q.SQL()}))
		if smp.err != nil {
			t.Fatalf("%s: %v", q.SQL(), smp.err)
		}
		want := ref.topK(q)
		if msg := checkScores(smp.scores, want); msg != "" {
			t.Fatalf("%s: engine answer rejected: %s", q.SQL(), msg)
		}
		if len(want) == 0 {
			continue
		}
		bumped := append([]float64(nil), smp.scores...)
		bumped[len(bumped)-1] += 1e-6
		if checkScores(bumped, want) == "" {
			t.Errorf("%s: a score off by 1e-6 passed", q.SQL())
		}
		if checkScores(smp.scores[1:], want) == "" {
			t.Errorf("%s: a missing answer passed", q.SQL())
		}
	}
	// A wrong answer in a window counts as a failed request.
	w := window{samples: []sample{{idx: 0, scores: []float64{-1}}}}
	if failed := w.check(seq, ref); failed != 1 || w.samples[0].mismatch == "" {
		t.Errorf("window check: failed=%d mismatch=%q, want one failure", failed, w.samples[0].mismatch)
	}
}

func TestTopSumsMatchesBruteForce(t *testing.T) {
	a := []float64{9, 7, 7, 4, 1}
	b := []float64{8, 8, 3, 2}
	var all []float64
	for _, x := range a {
		for _, y := range b {
			all = append(all, x+y)
		}
	}
	for k := 1; k <= len(all); k++ {
		got := topSums(a, b, k)
		want := sortedDesc(all)[:k]
		if msg := checkScores(got, want); msg != "" {
			t.Fatalf("k=%d: %s (got %v)", k, msg, got)
		}
	}
}

func sortedDesc(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	return s
}

// TestSmokeRunEmitsEveryMetric runs each workload at a twentieth of its
// table sizes for a moment, untraced and traced.
func TestSmokeRunEmitsEveryMetric(t *testing.T) {
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := run(def, runConfig{seed: 1, duration: 200 * time.Millisecond,
				traced: traced, shrink: 20, spansDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.name, traced, err)
			}
			if rec.Failed != 0 {
				t.Errorf("%s traced=%v: %d failed: %v", def.name, traced, rec.Failed, rec.Failures)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", def.name, traced, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rec.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", def.name, traced, d.Name, m)
				}
			}
			if !traced {
				for _, d := range endToEnd {
					if rec.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v", def.name, d.Name, rec.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Req: 1, ID: 0, Parent: -1, Name: "request", Start: 0, End: 100},
		{Req: 1, ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{Req: 1, ID: 2, Parent: 0, Name: "b", Start: 30, End: 50},
		{Req: 1, ID: 3, Parent: 2, Name: "c", Start: 35, End: 45},
	}
	fillSelfTimes(spans)
	for i, want := range []int64{60, 30, 10, 10} {
		if spans[i].Self != want {
			t.Errorf("span %s self %d, want %d", spans[i].Name, spans[i].Self, want)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompareMarksAgainstTheBound(t *testing.T) {
	qps := endToEnd[0]
	base := []float64{100, 101, 99, 100, 100}
	if _, mark := verdict(qps, base, []float64{60, 61, 59, 60, 60}); mark != "WORSE" {
		t.Errorf("a 40%% throughput drop is marked %q", mark)
	}
	if _, mark := verdict(qps, base, []float64{99, 100, 98, 99, 99}); mark != "within" {
		t.Errorf("a 1%% throughput drop is marked %q", mark)
	}
	if _, mark := verdict(qps, base, []float64{50, 150, 80, 120, 100}); mark != "unresolved" {
		t.Errorf("a wide spread is marked %q", mark)
	}
	var out bytes.Buffer
	rec := record{Workload: "w", Metrics: map[string]metricValue{"throughput_qps": {Value: 10, Unit: "1/s"}}}
	line, _ := json.Marshal(rec)
	side, err := readRecords(strings.NewReader("noise\n" + string(line) + "\n{\"correct\":true}\n"))
	if err != nil {
		t.Fatal(err)
	}
	writeComparison(&out, side, side)
	if !strings.Contains(out.String(), "throughput_qps") || !strings.Contains(out.String(), "within") {
		t.Errorf("comparison output:\n%s", out.String())
	}
}

// TestBenchmarkFileMatchesDefinitions keeps BENCHMARK.json, which names the
// workloads and metrics for the harness, in step with this package.
func TestBenchmarkFileMatchesDefinitions(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metricDef                  `json:"end_to_end"`
		PerLayer  []metricDef                  `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file has %q %q, want %q %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: file has %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: file has %+v, want %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
}
