package main

// Compare mode: two sets of --record results, the parent's first. For
// every workload and end-to-end metric it prints both sets' median and
// quartiles, the share of seed-paired runs the second set won, and a
// verdict:
//
//   - worse: the second median is worse than the parent's by more than
//     the metric's bound;
//   - improved: the second set won at least 9/10 of the pairs and its
//     median is better by more than the parent's quartile spread;
//   - unresolved: the parent's own quartile spread is wider than the
//     bound, and not every run of the second set beats every parent run;
//   - within bound: otherwise.
//
// Results from different machines are never compared.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

type boundSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func compareMain(args []string) error {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	boundsPath := fs.String("bounds", "BENCHMARK.json", "file declaring each end-to-end metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: perfbench compare [--bounds BENCHMARK.json] parent.jsonl change.jsonl")
	}
	var decl struct {
		EndToEnd []boundSpec `json:"end_to_end"`
	}
	data, err := os.ReadFile(*boundsPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		return fmt.Errorf("%s: %w", *boundsPath, err)
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readRecords(fs.Arg(1))
	if err != nil {
		return err
	}
	rows, err := compare(decl.EndToEnd, a, b)
	if err != nil {
		return err
	}
	printRows(os.Stdout, rows)
	return nil
}

func readRecords(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, r)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced results", path)
	}
	return out, nil
}

// summary is one set's runs of one metric: median and quartiles as
// Python's statistics.quantiles(values, n=4) computes them.
type summary struct {
	q1, median, q3 float64
	n              int
}

func summarize(xs []float64) summary {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return summary{s[0], s[0], s[0], n}
	}
	// The "exclusive" method: position i*(n+1)/4, linearly interpolated.
	q := func(i int) float64 {
		m := i * (n + 1)
		j := max(1, min(m/4, n-1))
		delta := m - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{q(1), q(2), q(3), n}
}

// row is one workload × metric comparison.
type row struct {
	workload, metric, unit string
	a, b                   summary
	won, pairs             int
	verdict                string
}

func compare(specs []boundSpec, a, b []runRecord) ([]row, error) {
	machine := a[0].Provenance.machine()
	for _, r := range append(slices.Clone(a), b...) {
		if m := r.Provenance.machine(); m != machine {
			return nil, fmt.Errorf("results come from different machines (%q vs %q): not comparable", machine, m)
		}
	}
	type key struct{ workload, metric string }
	values := func(rs []runRecord) map[key]map[uint64]float64 {
		out := map[key]map[uint64]float64{}
		for _, r := range rs {
			for _, m := range r.Metrics {
				k := key{r.Workload, m.Name}
				if out[k] == nil {
					out[k] = map[uint64]float64{}
				}
				out[k][r.Provenance.Seed] = m.Value
			}
		}
		return out
	}
	va, vb := values(a), values(b)
	var workloadsSeen []string
	for k := range va {
		if !slices.Contains(workloadsSeen, k.workload) {
			workloadsSeen = append(workloadsSeen, k.workload)
		}
	}
	sort.Strings(workloadsSeen)
	var rows []row
	for _, wl := range workloadsSeen {
		for _, spec := range specs {
			k := key{wl, spec.Name}
			if len(va[k]) == 0 || len(vb[k]) == 0 {
				continue
			}
			rows = append(rows, compareMetric(wl, spec, va[k], vb[k]))
		}
	}
	return rows, nil
}

func compareMetric(wl string, spec boundSpec, a, b map[uint64]float64) row {
	better := func(x, y float64) bool { // x better than y
		if spec.Better == "higher" {
			return x > y
		}
		return x < y
	}
	collect := func(m map[uint64]float64) []float64 {
		out := make([]float64, 0, len(m))
		for _, v := range m {
			out = append(out, v)
		}
		return out
	}
	xa, xb := collect(a), collect(b)
	r := row{workload: wl, metric: spec.Name, unit: spec.Unit, a: summarize(xa), b: summarize(xb)}
	for seed, va := range a {
		if vb, ok := b[seed]; ok {
			r.pairs++
			if better(vb, va) {
				r.won++
			}
		}
	}
	gap := r.b.median - r.a.median
	if spec.Better == "higher" {
		gap = -gap
	}
	// gap > 0: the second set is worse.
	spread := r.a.q3 - r.a.q1
	allBetter := slices.Max(xb) < slices.Min(xa)
	if spec.Better == "higher" {
		allBetter = slices.Min(xb) > slices.Max(xa)
	}
	switch {
	case gap > spec.Bound*math.Abs(r.a.median):
		r.verdict = "worse"
	case r.pairs > 0 && 10*r.won >= 9*r.pairs && -gap > spread:
		r.verdict = "improved"
	case spread > spec.Bound*math.Abs(r.a.median) && !allBetter:
		r.verdict = "unresolved"
	default:
		r.verdict = "within bound"
	}
	return r
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "%-15s %-17s %-34s %-34s %-7s %s\n", "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "won", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %-17s %-34s %-34s %-7s %s\n", r.workload, r.metric,
			fmt.Sprintf("%.4g/%.4g/%.4g %s (n=%d)", r.a.q1, r.a.median, r.a.q3, r.unit, r.a.n),
			fmt.Sprintf("%.4g/%.4g/%.4g %s (n=%d)", r.b.q1, r.b.median, r.b.q3, r.unit, r.b.n),
			fmt.Sprintf("%d/%d", r.won, r.pairs), r.verdict)
	}
}
