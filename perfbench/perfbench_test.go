package main

import (
	"fmt"
	"slices"
	"testing"

	"pll/internal/trace"
)

// render replays n requests of one stream as method, path and body.
func render(t *testing.T, w workload, seed uint64, n int) []string {
	t.Helper()
	g, err := makeGraph(w)
	if err != nil {
		t.Fatal(err)
	}
	p := makePools(w, g)
	s := newStream(w, p, seed, streamClient, 0)
	var req request
	out := make([]string, n)
	for i := range out {
		s.next(&req)
		if w.http {
			m, path, body := httpRequest(&req, nil)
			out[i] = m + " " + path + " " + string(body)
		} else {
			out[i] = fmt.Sprint(req.op, req.s, req.t, req.targets)
		}
	}
	return out
}

func TestSameSeedSameRequests(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := render(t, w, 7, 500), render(t, w, 7, 500)
			if !slices.Equal(a, b) {
				t.Fatal("seed 7 replayed a different request sequence")
			}
			if slices.Equal(a, render(t, w, 8, 500)) {
				t.Fatal("seeds 7 and 8 gave the same request sequence")
			}
			ops := map[string]bool{}
			for _, r := range a {
				ops[r[:4]] = true
			}
			if len(ops) < 2 && w.http {
				t.Fatalf("500 requests used only %v", ops)
			}
		})
	}
}

func TestQuantileReportsSampleCount(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	v, n, beyond := quantile(xs, 0.99)
	if v != 990 || n != 1000 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %v (n=%d, beyond=%d), want 990 (n=1000, beyond=10)", v, n, beyond)
	}
	v, n, beyond = quantile([]float64{3, 1, 2}, 0.5)
	if v != 2 || n != 3 || beyond != 1 {
		t.Fatalf("median of {1,2,3} = %v (n=%d, beyond=%d)", v, n, beyond)
	}
	if _, n, _ := quantile(nil, 0.5); n != 0 {
		t.Fatalf("empty sample reported n=%d", n)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"one", []interval{{120, 140}}, 80},
		{"overlapping legs", []interval{{110, 150}, {130, 170}}, 40},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"disjoint and overlapping", []interval{{105, 115}, {150, 160}, {155, 180}}, 60},
		{"sticking out", []interval{{50, 120}, {190, 250}}, 70},
		{"outside", []interval{{10, 20}, {300, 400}}, 100},
		{"unsorted", []interval{{160, 170}, {100, 110}, {165, 175}}, 75},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestJoinByTraceMatchesReplicaToCoordinator(t *testing.T) {
	id := func(b byte) trace.TraceID { return trace.TraceID{15: b} }
	c1 := &span{kind: spanFront, trace: id(1), start: 0, end: 100}
	c2 := &span{kind: spanFront, trace: id(2), start: 10, end: 90}
	anon := &span{kind: spanFront, start: 0, end: 50}
	r1a := &span{kind: spanReplica, node: 0, trace: id(1), start: 20, end: 60}
	r1b := &span{kind: spanReplica, node: 1, trace: id(1), start: 25, end: 80}
	r2 := &span{kind: spanReplica, node: 1, trace: id(2), start: 30, end: 50}
	stray := &span{kind: spanReplica, node: 0, trace: id(3), start: 30, end: 50}
	untraced := &span{kind: spanReplica, node: 0, start: 30, end: 50}
	got := joinByTrace([]*span{c1, c2, anon}, []*span{r2, r1a, stray, r1b, untraced})
	if len(got) != 2 {
		t.Fatalf("joined %d coordinator spans, want 2", len(got))
	}
	if !slices.Equal(got[c1], []*span{r1a, r1b}) || !slices.Equal(got[c2], []*span{r2}) {
		t.Fatalf("wrong join: c1=%v c2=%v", got[c1], got[c2])
	}
}

func TestAttachOracleByKeyAndContainment(t *testing.T) {
	h1 := &span{kind: spanFront, node: 0, start: 0, end: 100}
	h2 := &span{kind: spanFront, node: 0, start: 50, end: 150}
	h3 := &span{kind: spanFront, node: 1, start: 0, end: 100}
	keyOf := map[*span]uint64{h1: 7, h2: 7, h3: 7}
	inH1 := &span{kind: spanOracle, node: 0, key: 7, start: 10, end: 40}
	inH2 := &span{kind: spanOracle, node: 0, key: 7, start: 110, end: 140}
	otherNode := &span{kind: spanOracle, node: 1, key: 7, start: 20, end: 30}
	otherKey := &span{kind: spanOracle, node: 0, key: 8, start: 20, end: 30}
	got := attachOracle([]*span{h1, h2, h3}, keyOf, []*span{inH1, inH2, otherNode, otherKey})
	if !slices.Equal(got[h1], []*span{inH1}) || !slices.Equal(got[h2], []*span{inH2}) || !slices.Equal(got[h3], []*span{otherNode}) {
		t.Fatalf("wrong attachment: %v", got)
	}
}

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if s.q1 != 2.75 || s.median != 5.5 || s.q3 != 8.25 || s.n != 10 {
		t.Fatalf("quartiles %+v, want 2.75/5.5/8.25", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := boundSpec{Name: "x", Better: "lower", Bound: 0.1}
	base := map[uint64]float64{}
	for i := uint64(0); i < 10; i++ {
		base[i] = 100 + float64(i%3)
	}
	shift := func(d float64) map[uint64]float64 {
		out := map[uint64]float64{}
		for k, v := range base {
			out[k] = v + d
		}
		return out
	}
	for _, tc := range []struct {
		b    map[uint64]float64
		want string
	}{
		{shift(-20), "improved"},
		{shift(0), "within bound"},
		{shift(5), "within bound"},
		{shift(20), "worse"},
	} {
		if got := compareMetric("w", lower, base, tc.b).verdict; got != tc.want {
			t.Errorf("shift to median %v: verdict %q, want %q", tc.b[0], got, tc.want)
		}
	}
	noisy := map[uint64]float64{}
	for i := uint64(0); i < 10; i++ {
		noisy[i] = 60 + 80*float64(i%2)
	}
	if got := compareMetric("w", lower, noisy, noisy).verdict; got != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %q, want unresolved", got)
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	rec := func(cpu string) runRecord {
		return runRecord{Workload: "w", Provenance: provenanceInfo{CPU: cpu, NProc: 2, GoMaxProcs: 2},
			Metrics: []metric{{Name: "x", Value: 1}}}
	}
	if _, err := compare([]boundSpec{{Name: "x"}}, []runRecord{rec("a")}, []runRecord{rec("b")}); err == nil {
		t.Fatal("compared results from two machines")
	}
	if _, err := compare([]boundSpec{{Name: "x"}}, []runRecord{rec("a")}, []runRecord{rec("a")}); err != nil {
		t.Fatal(err)
	}
}
