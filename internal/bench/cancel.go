package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"rankopt/internal/core"
	"rankopt/internal/engine"
	"rankopt/internal/exec"
	"rankopt/internal/workload"
)

// CancelConfig parameterizes the cancellation-under-load benchmark: many
// concurrent sessions each start a query whose full execution takes far
// longer than the run, get cancelled mid-flight, and the benchmark measures
// the cancel-to-return latency — how long a caller waits between asking for
// cancellation and getting its goroutine back.
type CancelConfig struct {
	// Rows, Selectivity, Seed shape the 2-table heavy workload; the defaults
	// make a full drain take seconds, so every cancellation lands mid-query.
	Rows        int     `json:"rows"`
	Selectivity float64 `json:"selectivity"`
	Seed        int64   `json:"seed"`
	// Sessions is how many cancelled queries to measure.
	Sessions int `json:"sessions"`
	// Workers bounds how many sessions run concurrently.
	Workers int `json:"workers"`
	// CancelAfter is how long each session runs before its context is
	// cancelled.
	CancelAfter time.Duration `json:"cancel_after_ns"`
}

// DefaultCancelConfig matches the robustness tests' heavy workload.
func DefaultCancelConfig() CancelConfig {
	return CancelConfig{
		Rows:        30000,
		Selectivity: 0.001,
		Seed:        23,
		Sessions:    32,
		Workers:     4,
		CancelAfter: 20 * time.Millisecond,
	}
}

// CancelReport is the BENCH_cancel.json artifact: the distribution of
// cancel-to-return latencies plus error-taxonomy accounting. Mistyped counts
// sessions that returned anything other than ErrQueryCancelled — it must be
// zero.
type CancelReport struct {
	Config CancelConfig `json:"config"`
	// MaxProcs and CPUs stamp the machine. At gomaxprocs=1 cancel latencies
	// include scheduler queuing behind the running query, not just polling
	// cadence, so tails are expected to stretch.
	MaxProcs    int     `json:"gomaxprocs"`
	CPUs        int     `json:"cpus"`
	Sessions    int     `json:"sessions"`
	Mistyped    int     `json:"mistyped_errors"`
	P50Millis   float64 `json:"p50_cancel_latency_ms"`
	P99Millis   float64 `json:"p99_cancel_latency_ms"`
	MaxMillis   float64 `json:"max_cancel_latency_ms"`
	MeanMillis  float64 `json:"mean_cancel_latency_ms"`
	TotalMillis float64 `json:"total_elapsed_ms"`
}

// Cancel runs the benchmark: Sessions heavy queries through Workers
// concurrent lanes, each cancelled after CancelAfter, each lane timing
// cancel() to RunCtx-return.
func Cancel(cfg CancelConfig) (*CancelReport, error) {
	if cfg.Sessions < 1 || cfg.Workers < 1 {
		return nil, fmt.Errorf("bench: cancel needs sessions and workers >= 1")
	}
	cat, _ := workload.RankedSet(2, workload.RankedConfig{
		N: cfg.Rows, Selectivity: cfg.Selectivity, Seed: cfg.Seed,
	})
	eng := engine.New(cat, core.Options{})
	// No LIMIT: the only exits from this query are full drain (seconds away)
	// or cancellation.
	sql := "SELECT * FROM T1, T2 WHERE T1.key = T2.key ORDER BY T1.score + T2.score DESC"
	// Warm the plan cache so measured sessions cancel inside execution, not
	// planning.
	if resp := eng.Run(engine.Request{SQL: sql, ExplainOnly: true}); resp.Err != nil {
		return nil, fmt.Errorf("bench: cancel warm-up: %w", resp.Err)
	}

	latencies := make([]time.Duration, cfg.Sessions)
	mistyped := make([]bool, cfg.Sessions)
	sem := make(chan struct{}, cfg.Workers)
	done := make(chan int)
	start := time.Now()
	for i := 0; i < cfg.Sessions; i++ {
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; done <- i }()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			resp := make(chan engine.Response, 1)
			go func() {
				resp <- eng.RunCtx(ctx, engine.Request{ID: fmt.Sprintf("c%03d", i), SQL: sql})
			}()
			time.Sleep(cfg.CancelAfter)
			t0 := time.Now()
			cancel()
			r := <-resp
			latencies[i] = time.Since(t0)
			// A session that finished before the cancel fired would return
			// nil; with this workload that means the config is too small.
			mistyped[i] = !errors.Is(r.Err, exec.ErrQueryCancelled)
		}(i)
	}
	for i := 0; i < cfg.Sessions; i++ {
		<-done
	}
	total := time.Since(start)

	rep := &CancelReport{
		Config: cfg, MaxProcs: runtime.GOMAXPROCS(0), CPUs: runtime.NumCPU(),
		Sessions: cfg.Sessions,
	}
	for _, m := range mistyped {
		if m {
			rep.Mistyped++
		}
	}
	sorted := append([]time.Duration(nil), latencies...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	quantile := func(q float64) time.Duration {
		idx := int(q * float64(len(sorted)-1))
		return sorted[idx]
	}
	rep.P50Millis = ms(quantile(0.50))
	rep.P99Millis = ms(quantile(0.99))
	rep.MaxMillis = ms(sorted[len(sorted)-1])
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	rep.MeanMillis = ms(sum) / float64(len(latencies))
	rep.TotalMillis = ms(total)
	return rep, nil
}

// JSON renders the artifact bytes.
func (r *CancelReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Table renders the report in the bench text format.
func (r *CancelReport) Table() *Table {
	t := &Table{
		Title: "Cancellation under load",
		Note: fmt.Sprintf("%d sessions x %d workers, cancelled after %v; mistyped errors: %d",
			r.Sessions, r.Config.Workers, r.Config.CancelAfter, r.Mistyped),
		Columns: []string{"p50_ms", "p99_ms", "max_ms", "mean_ms"},
	}
	t.AddRow(r.P50Millis, r.P99Millis, r.MaxMillis, r.MeanMillis)
	return t
}

// CheckTyped fails the run when any session returned a wrong error type —
// the CI gate for the robustness taxonomy.
func (r *CancelReport) CheckTyped() error {
	if r.Mistyped > 0 {
		return fmt.Errorf("bench: cancel: %d of %d sessions returned a non-cancellation error",
			r.Mistyped, r.Sessions)
	}
	return nil
}
