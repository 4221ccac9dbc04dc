package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"text/tabwriter"
)

// -compare judges a new set of runs against a baseline, one row per workload
// and end-to-end metric. The rule is the one the choosing-metrics guide
// gives: the new median may be worse than the baseline's by at most the
// metric's bound; where the run-to-run spread is wider than the bound the
// metric is unresolved, not unchanged, unless every new run reads better
// than every baseline run.

// quartiles returns the first, second and third quartile of v the way
// Python's statistics.quantiles(v, n=4) does, so the spreads printed here are
// the ones the driver computes. A single value is its own quartiles.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), median(s), at(3)
}

// spread is the distance between the outer quartiles as a share of the
// median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return ratio(q3-q1, q2)
}

// byWorkload collects, per workload, every run's value of every name.
func (r resultFile) byWorkload() map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, run := range r.Runs {
		if out[run.Workload] == nil {
			out[run.Workload] = map[string][]float64{}
		}
		for name, v := range run.Values {
			out[run.Workload][name] = append(out[run.Workload][name], v.Value)
		}
	}
	return out
}

func readResult(path string) (resultFile, error) {
	var r resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// verdict judges one metric on one workload.
func verdict(d metricDef, base, cur []float64) string {
	if len(base) == 0 || len(cur) == 0 {
		return "missing"
	}
	sign := 1.0 // times (cur - base) is how much worse cur is
	if d.Better == "higher" {
		sign = -1
	}
	_, bm, _ := quartiles(base)
	_, cm, _ := quartiles(cur)
	worsening := ratio(sign*(cm-bm), bm)
	// Every new run better than every baseline run, or every one worse.
	allBetter := sign*(slices.Max(cur)-slices.Min(base)) < 0 && sign*(slices.Min(cur)-slices.Max(base)) < 0
	allWorse := sign*(slices.Max(cur)-slices.Min(base)) > 0 && sign*(slices.Min(cur)-slices.Max(base)) > 0
	switch wide := max(spread(base), spread(cur)) > d.Bound; {
	case allBetter:
		return "ok"
	case wide && !(allWorse && worsening > d.Bound):
		return "unresolved"
	case worsening > d.Bound:
		return "worse"
	}
	return "ok"
}

// compareFiles prints the comparison and returns the exit code: 1 if any row
// is worse or missing, or if more operations failed or more acked writes were
// lost than in the baseline.
func compareFiles(basePath, curPath string) int {
	base, err := readResult(basePath)
	if err != nil {
		fatal(2, "%v", err)
	}
	cur, err := readResult(curPath)
	if err != nil {
		fatal(2, "%v", err)
	}
	b, c := base.byWorkload(), cur.byWorkload()
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median\tnew median\tnew/base\tspread base\tspread new\tbound\tverdict")
	code := 0
	for _, w := range workloads(connections()) {
		for _, d := range endToEnd {
			bv, cv := b[w.name][d.Name], c[w.name][d.Name]
			v := verdict(d, bv, cv)
			if v == "worse" || v == "missing" {
				code = 1
			}
			_, bm, _ := quartiles(bv)
			_, cm, _ := quartiles(cv)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.3f\t%.1f%%\t%.1f%%\t%.0f%%\t%s\n",
				w.name, d.Name, d.Unit, bm, cm, ratio(cm, bm), 100*spread(bv), 100*spread(cv), 100*d.Bound, v)
		}
		// Shown, not judged: too unsteady on this host to carry a bound.
		for _, d := range watched {
			bv, cv := b[w.name][d.Name], c[w.name][d.Name]
			_, bm, _ := quartiles(bv)
			_, cm, _ := quartiles(cv)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.3f\t%.1f%%\t%.1f%%\t\twatch\n",
				w.name, d.Name, d.Unit, bm, cm, ratio(cm, bm), 100*spread(bv), 100*spread(cv))
		}
		// Correctness has no bound: any rise is a regression.
		for _, name := range []string{"failed_op_ratio", "lost_acked_writes"} {
			bv, cv := b[w.name][name], c[w.name][name]
			v := "ok"
			if len(bv) == 0 || len(cv) == 0 {
				v = "missing"
			} else if slices.Max(cv) > slices.Max(bv) {
				v = "worse"
			}
			if v != "ok" {
				code = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t\t%v\t%v\t\t\t\t0%%\t%s\n", w.name, name, maxOf(bv), maxOf(cv), v)
		}
	}
	tw.Flush()
	return code
}

func maxOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return slices.Max(v)
}

// printSpread summarises a -repeat run: each workload's end-to-end metrics
// as median and quartiles, with the spread -compare will hold them to.
func printSpread(r resultFile) {
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\truns\tq1\tmedian\tq3\tspread\tbound")
	by := r.byWorkload()
	defs := endToEnd
	if r.Trace == 1 {
		defs = perLayer
	}
	for _, w := range workloads(connections()) {
		for _, d := range defs {
			v := by[w.name][d.Name]
			q1, q2, q3 := quartiles(v)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.4g\t%.4g\t%.4g\t%.1f%%\t%.0f%%\n",
				w.name, d.Name, d.Unit, len(v), q1, q2, q3, 100*spread(v), 100*d.Bound)
		}
	}
	tw.Flush()
}
