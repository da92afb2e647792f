package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"text/tabwriter"
)

// compareMain prints, for each workload and metric found in both result
// files, the two medians with their quartiles and the relative delta, marked
// against the metric's bound. A result file holds run output lines; the
// record lines are used and everything else is skipped.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.Usage = func() { fmt.Fprintln(fs.Output(), "usage: perfbench compare OLD NEW") }
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	var sides [2]map[string]map[string][]float64
	for i, path := range fs.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 1
		}
		sides[i], err = readRecords(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", path, err)
			return 1
		}
	}
	writeComparison(os.Stdout, sides[0], sides[1])
	return 0
}

// readRecords collects metric values by workload and metric name from the
// record lines of r.
func readRecords(r io.Reader) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var rec record
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Workload == "" {
			continue
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// verdict marks one metric's change against its bound: "unresolved" when
// either side's quartile spread exceeds the bound, "WORSE" or "better" when
// the medians moved by more than the bound, "within" otherwise. Per-layer
// metrics have no bound and are marked "-".
func verdict(def metricDef, old, new []float64) (delta float64, mark string) {
	om, nm := median(old), median(new)
	if om != 0 {
		delta = (nm - om) / math.Abs(om)
	}
	if def.Bound == 0 {
		return delta, "-"
	}
	if spread(old) > def.Bound || spread(new) > def.Bound {
		return delta, "unresolved"
	}
	worse := delta
	if def.Better == "higher" {
		worse = -delta
	}
	switch {
	case worse > def.Bound:
		return delta, "WORSE"
	case -worse > def.Bound:
		return delta, "better"
	}
	return delta, "within"
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method (Python's statistics.quantiles(xs, n=4) default).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		d := i*(n+1) - j*4
		j = max(1, min(j, n-1))
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return q(1), q(2), q(3)
}

func writeComparison(w io.Writer, old, new map[string]map[string][]float64) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median [q1, q3]\tnew median [q1, q3]\tdelta\tbound\tmark")
	var names []string
	for name := range old {
		if new[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, wl := range names {
		for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			o, n := old[wl][def.Name], new[wl][def.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			delta, mark := verdict(def, o, n)
			bound := "-"
			if def.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", def.Bound*100)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%+.1f%%\t%s\t%s\n", wl, def.Name,
				describe(o), describe(n), delta*100, bound, mark)
		}
	}
	tw.Flush()
}

// describe renders a side's median, quartiles and run count.
func describe(xs []float64) string {
	q1, m, q3 := quartiles(xs)
	return strings.TrimSpace(fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", m, q1, q3, len(xs)))
}
