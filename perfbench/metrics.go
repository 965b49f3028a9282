package main

// Metrics: the end-to-end figures a caller sees, the per-layer figures
// of the traced run, the report and the provenance stamp.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"pll/internal/trace"
)

// metric is one reported figure.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a percentile or ratio (0: not a
	// sampled figure).
	N    int64  `json:"n,omitempty"`
	Note string `json:"note,omitempty"`
	// Ungated metrics are reported and recorded but left out of the
	// result line, so no bound in BENCHMARK.json applies to them.
	Ungated bool `json:"ungated,omitempty"`
}

// quantile is the nearest-rank q-quantile of xs with its sample count
// and the number of samples beyond it. xs is sorted in place.
func quantile(xs []float64, q float64) (v float64, n, beyond int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(n))) - 1
	i = max(0, min(i, n-1))
	return xs[i], n, n - 1 - i
}

// provenance stamps where and from what a result was measured.
type provenanceInfo struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Seed       uint64 `json:"seed"`
}

func provenance(seed uint64) provenanceInfo {
	return provenanceInfo{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     gitCommit(),
		Source:     sourceDigest("."),
		Seed:       seed,
	}
}

// machine identifies the hardware a result is only comparable on.
func (p provenanceInfo) machine() string {
	return fmt.Sprintf("%s, nproc=%d, GOMAXPROCS=%d", p.CPU, p.NProc, p.GoMaxProcs)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit names the checked-out commit, or "none" outside a git
// work tree; the source digest identifies the code either way.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root,
// skipping hidden and build directories.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // unreadable entries are skipped
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// counters are the program's own /stats counters over one phase.
type counters struct {
	cacheHits, cacheMisses   int64
	resultHits, resultMisses int64
	updates                  int64
	hedges, hedgeWins        int64
	incomplete               int64
}

func (c counters) minus(o counters) counters {
	return counters{
		cacheHits: c.cacheHits - o.cacheHits, cacheMisses: c.cacheMisses - o.cacheMisses,
		resultHits: c.resultHits - o.resultHits, resultMisses: c.resultMisses - o.resultMisses,
		updates: c.updates - o.updates,
		hedges:  c.hedges - o.hedges, hedgeWins: c.hedgeWins - o.hedgeWins,
		incomplete: c.incomplete - o.incomplete,
	}
}

type nodeStats struct {
	Server struct {
		Updates int64 `json:"updates"`
	} `json:"server"`
	Cache struct {
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Results struct {
			KNN   struct{ Hits, Misses int64 } `json:"knn"`
			Query struct{ Hits, Misses int64 } `json:"query"`
		} `json:"results"`
	} `json:"cache"`
}

type coordStats struct {
	Coordinator struct {
		Hedges     int64 `json:"hedges"`
		HedgeWins  int64 `json:"hedge_wins"`
		Incomplete int64 `json:"scatters_incomplete"`
	} `json:"coordinator"`
}

func getJSON(url string, v any) error {
	resp, err := probeClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scrape reads the stack's /stats counters; a library stack has none.
// A node that fails to answer contributes nothing: the counters feed
// only per-layer ratios, which then read low instead of failing the run.
func scrape(st *stack) counters {
	var c counters
	var nodes []string
	for _, hs := range st.nodeLn {
		nodes = append(nodes, hs.base)
	}
	if len(nodes) == 0 && st.base != "" {
		nodes = []string{st.base}
	}
	for _, base := range nodes {
		var ns nodeStats
		if err := getJSON(base+"/stats", &ns); err != nil {
			continue
		}
		c.cacheHits += ns.Cache.Hits
		c.cacheMisses += ns.Cache.Misses
		c.resultHits += ns.Cache.Results.KNN.Hits + ns.Cache.Results.Query.Hits
		c.resultMisses += ns.Cache.Results.KNN.Misses + ns.Cache.Results.Query.Misses
		c.updates += ns.Server.Updates
	}
	if st.coord != nil {
		var cs coordStats
		if err := getJSON(st.base+"/stats", &cs); err == nil {
			c.hedges, c.hedgeWins, c.incomplete = cs.Coordinator.Hedges, cs.Coordinator.HedgeWins, cs.Coordinator.Incomplete
		}
	}
	return c
}

// profileKNN averages the hub-run items KNNProfiled scans over the
// search-cluster workload's sampled /knn sources.
func profileKNN(st *stack, w workload, p *pools, seed uint64) float64 {
	if len(st.flat) == 0 || p.srcZipf == nil {
		return 0
	}
	s := newStream(w, p, seed, streamVerify, 1)
	var req request
	var items, n int64
	for n < 256 {
		s.next(&req)
		if req.op != opKNN {
			continue
		}
		prof := &trace.QueryProfile{}
		if _, err := st.flat[0].KNNProfiled(req.s, searchK, prof); err != nil {
			return 0
		}
		items += prof.Snapshot().ScanItems
		n++
	}
	return float64(items) / float64(n)
}

// result is one run's outcome.
type result struct {
	cfg  config
	w    workload
	prov provenanceInfo

	setupS, indexMB, avgLabel, peakRSSMB float64
	loop, traced                         *loopResult
	counters                             counters
	mallocs                              uint64
	scanPerKNN                           float64
	traceRatio                           float64
	checks                               *checks
	probeDigest, tracedDigest            string
	layers                               []metric
	spanFile                             string

	Correct    bool
	Attempted  int64
	Failed     int64
	endToEnd   []metric
	firstWrong error
}

func (r *result) finish() {
	lp := r.loop
	r.Attempted = lp.attempted() + r.checks.checked
	r.Failed = r.checks.wrong
	for _, v := range lp.failed {
		r.Failed += v
	}
	if r.traced != nil {
		r.Attempted += r.traced.attempted()
		for _, v := range r.traced.failed {
			r.Failed += v
		}
	}
	r.firstWrong = r.checks.first
	if r.firstWrong == nil {
		r.firstWrong = lp.firstErr
	}
	if r.firstWrong == nil && r.traced != nil {
		r.firstWrong = r.traced.firstErr
	}
	identical := r.tracedDigest == "" || r.tracedDigest == r.probeDigest
	if !identical && r.firstWrong == nil {
		r.firstWrong = fmt.Errorf("traced answers differ from untraced: probe %s vs %s", r.tracedDigest, r.probeDigest)
	}
	r.Correct = r.Failed == 0 && identical

	// Whole-run figures: outside load on a shared host shifts speed for
	// tens of seconds at a time, so one long phase averages over more of
	// it than the median of shorter windows does.
	r.endToEnd = []metric{
		{Name: "setup_s", Value: r.setupS, Unit: "s", N: numSetups, Note: "median of set-ups"},
		{Name: "throughput_ops_s", Value: float64(lp.completed()) / lp.seconds, Unit: "1/s", N: lp.completed(),
			Note: fmt.Sprintf("completed over %.1f s", lp.seconds)},
		{Name: "peak_rss_mb", Value: r.peakRSSMB, Unit: "MiB"},
		{Name: "index_mb", Value: r.indexMB, Unit: "MiB"},
	}
	for i, op := range r.w.ops {
		lat := make([]float64, len(lp.lat[op]))
		for j, d := range lp.lat[op] {
			lat[j] = float64(d) / float64(time.Microsecond)
		}
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {"p99", 0.99}} {
			v, n, beyond := quantile(lat, q.q)
			r.endToEnd = append(r.endToEnd, metric{
				Name: fmt.Sprintf("op%d_%s_us", i+1, q.name), Value: v, Unit: "us", N: int64(n),
				Note: fmt.Sprintf("%s_%s_us; %d samples beyond", op, q.name, beyond),
				// A p99 moves 25-60% between identical runs on a shared
				// two-vCPU machine; a 25% bound would reject on noise.
				Ungated: q.name == "p99",
			})
		}
	}
}

// print writes the human-readable report and, last, the result line.
func (r *result) print(w io.Writer) {
	p := r.prov
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%d trace=%v\n", r.w.name, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	fmt.Fprintf(w, "# machine: %s; %s; commit %s; source %s\n", p.machine(), p.Go, p.Commit, p.Source)
	fmt.Fprintf(w, "# closed loop, %d clients; answers probe sha256 %s\n", numClients, r.probeDigest)
	for _, m := range r.endToEnd {
		printMetric(w, m)
	}
	errRate := float64(r.Failed) / float64(max(r.Attempted, 1))
	fmt.Fprintf(w, "%-34s %14.6g %-6s (%d failed or wrong of %d attempted; %d answers checked against BFS)\n",
		"error_rate", errRate, "ratio", r.Failed, r.Attempted, r.checks.checked)
	if r.cfg.trace {
		fmt.Fprintf(w, "# traced run: answers probe sha256 %s (identical: %v); spans in %s\n",
			r.tracedDigest, r.tracedDigest == r.probeDigest, r.spanFile)
		for _, m := range r.layers {
			printMetric(w, m)
		}
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]map[string]any{}}
	ms := r.endToEnd
	if r.cfg.trace {
		ms = r.layers
	}
	for _, m := range ms {
		if !m.Ungated {
			out.Metrics[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
	}
	line, _ := json.Marshal(out) //nolint:errcheck // plain maps of numbers and strings always marshal
	fmt.Fprintf(w, "%s\n", line)
}

func printMetric(w io.Writer, m metric) {
	extra := ""
	if m.N > 0 {
		extra = fmt.Sprintf("n=%d", m.N)
	}
	if m.Note != "" {
		extra = strings.TrimSpace(extra + " " + m.Note)
	}
	if m.Ungated {
		extra += " (not gated)"
	}
	fmt.Fprintf(w, "%-34s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, extra)
}

// runRecord is the --record line the compare mode reads.
type runRecord struct {
	Workload   string         `json:"workload"`
	Seconds    int            `json:"seconds"`
	Trace      bool           `json:"trace"`
	Provenance provenanceInfo `json:"provenance"`
	Correct    bool           `json:"correct"`
	Attempted  int64          `json:"attempted"`
	Failed     int64          `json:"failed"`
	Metrics    []metric       `json:"metrics"`
}

func (r *result) record() runRecord {
	ms := slices.Clone(r.endToEnd)
	ms = append(ms, r.layers...)
	return runRecord{
		Workload: r.w.name, Seconds: r.cfg.seconds, Trace: r.cfg.trace, Provenance: r.prov,
		Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: ms,
	}
}

// ---------------------------------------------------------------------
// Per-layer analysis of the traced run
// ---------------------------------------------------------------------

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// analyze derives the per-layer metrics from the recorded spans, the
// untraced slices' counters and the traced slices.
func analyze(rec *recorder, r *result, st *stack) []metric {
	setup := map[string][]float64{}
	var clients, fronts, replicas, oracles []*span
	for i := range rec.spans {
		s := &rec.spans[i]
		if s.kind == spanSetup {
			setup[s.name] = append(setup[s.name], float64(s.dur()))
			continue
		}
		if !rec.inPhase(s) {
			continue
		}
		switch s.kind {
		case spanClient:
			clients = append(clients, s)
		case spanFront:
			fronts = append(fronts, s)
		case spanReplica:
			replicas = append(replicas, s)
		case spanOracle:
			oracles = append(oracles, s)
		}
	}
	byTrace := make(map[trace.TraceID]*span, len(clients))
	for _, c := range clients {
		byTrace[c.trace] = c
	}
	handlers := fronts
	if st.coord != nil {
		handlers = replicas
	}
	keyOf := make(map[*span]uint64, len(handlers))
	for _, h := range handlers {
		if c, ok := byTrace[h.trace]; ok {
			keyOf[h] = c.key
		}
	}
	children := attachOracle(handlers, keyOf, oracles)
	rec.parents = make(map[*span]*span)
	for h, kids := range children {
		for _, o := range kids {
			rec.parents[o] = h
		}
	}

	// Oracle layer.
	var distNs, fromNs, knnUs, compUs []float64
	var compScanned, compMatches int64
	for _, o := range oracles {
		switch o.name {
		case "distance":
			distNs = append(distNs, float64(o.dur()))
		case "distancefrom":
			fromNs = append(fromNs, float64(o.dur())/float64(max(o.n, 1)))
		case "knn":
			knnUs = append(knnUs, float64(o.dur())/1e3)
		case "composite":
			compUs = append(compUs, float64(o.dur())/1e3)
			compScanned += o.scanned
			compMatches += o.n
		}
	}

	// Server layer: self time per endpoint, transport per request.
	self := map[string][]float64{}
	for _, h := range handlers {
		if _, ok := keyOf[h]; !ok {
			continue
		}
		var cs []interval
		for _, o := range children[h] {
			cs = append(cs, interval{o.start, o.end})
		}
		self[h.name] = append(self[h.name], float64(selfTime(interval{h.start, h.end}, cs))/1e3)
	}
	var transport, updateUs []float64
	frontOf := make(map[trace.TraceID]*span, len(fronts))
	for _, f := range fronts {
		frontOf[f.trace] = f
		if f.name == "update" {
			updateUs = append(updateUs, float64(f.dur())/1e3)
		}
	}
	for _, c := range clients {
		if f, ok := frontOf[c.trace]; ok && !c.trace.IsZero() {
			rec.parents[f] = c
			transport = append(transport, float64(c.dur()-f.dur())/1e3)
		}
	}

	// Cluster layer: hop and leg figures per coordinator request.
	var hops, spreads []float64
	var legs, joined int64
	if st.coord != nil {
		for f, rs := range joinByTrace(fronts, replicas) {
			joined++
			legs += int64(len(rs))
			lo, hi := rs[0].dur(), rs[0].dur()
			for _, x := range rs {
				rec.parents[x] = f
				lo, hi = min(lo, x.dur()), max(hi, x.dur())
			}
			hops = append(hops, float64(f.dur()-hi)/1e3)
			if len(rs) > 1 {
				spreads = append(spreads, float64(hi-lo)/1e3)
			}
		}
	}

	c := r.counters
	done := r.loop.completed()
	tputU := float64(done) / r.loop.seconds
	tputT := float64(r.traced.completed()) / r.traced.seconds
	sec := func(name string) float64 { return median(setup[name]) / 1e9 }
	return []metric{
		{Name: "core.build_s", Value: sec("core.build"), Unit: "s", N: int64(len(setup["core.build"]))},
		{Name: "core.flat_write_s", Value: sec("core.flat_write"), Unit: "s", N: int64(len(setup["core.flat_write"]))},
		{Name: "core.open_ms", Value: sec("core.open") * 1e3, Unit: "ms", N: int64(len(setup["core.open"]))},
		{Name: "core.avg_label_entries", Value: r.avgLabel, Unit: "count"},
		{Name: "core.distance_ns", Value: median(distNs), Unit: "ns", N: int64(len(distNs))},
		{Name: "core.distancefrom_ns_per_target", Value: median(fromNs), Unit: "ns", N: int64(len(fromNs))},
		{Name: "hubsearch.knn_us", Value: median(knnUs), Unit: "us", N: int64(len(knnUs))},
		{Name: "hubsearch.scanned_per_knn", Value: r.scanPerKNN, Unit: "count", Note: "KNNProfiled over 256 sampled sources"},
		{Name: "hubsearch.inversion_s", Value: sec("hubsearch.inversion"), Unit: "s", N: int64(len(setup["hubsearch.inversion"]))},
		{Name: "runquery.composite_us", Value: median(compUs), Unit: "us", N: int64(len(compUs))},
		{Name: "runquery.scanned_per_match", Value: ratio(compScanned, compMatches), Unit: "count", N: compMatches},
		{Name: "server.handler_us.distance", Value: median(self["distance"]), Unit: "us", N: int64(len(self["distance"])), Note: "self time"},
		{Name: "server.handler_us.batch", Value: median(self["batch"]), Unit: "us", N: int64(len(self["batch"])), Note: "self time"},
		{Name: "server.handler_us.knn", Value: median(self["knn"]), Unit: "us", N: int64(len(self["knn"])), Note: "self time"},
		{Name: "server.handler_us.query", Value: median(self["query"]), Unit: "us", N: int64(len(self["query"])), Note: "self time"},
		{Name: "server.transport_us", Value: median(transport), Unit: "us", N: int64(len(transport)), Note: "client round trip minus front ServeHTTP"},
		{Name: "server.allocs_per_op", Value: ratio(int64(r.mallocs), done), Unit: "count", N: done, Note: "process-wide, untraced"},
		{Name: "server.cache_hit_ratio", Value: ratio(c.cacheHits, c.cacheHits+c.cacheMisses), Unit: "ratio", N: c.cacheHits + c.cacheMisses},
		{Name: "server.result_cache_hit_ratio", Value: ratio(c.resultHits, c.resultHits+c.resultMisses), Unit: "ratio", N: c.resultHits + c.resultMisses},
		{Name: "server.update_us", Value: median(updateUs), Unit: "us", N: int64(len(updateUs))},
		{Name: "server.purges", Value: float64(c.updates), Unit: "count", Note: "untraced slices"},
		{Name: "server.shed", Value: float64(r.loop.shed + r.traced.shed), Unit: "count"},
		{Name: "cluster.hop_us", Value: median(hops), Unit: "us", N: int64(len(hops))},
		{Name: "cluster.legs_per_op", Value: ratio(legs, joined), Unit: "count", N: joined},
		{Name: "cluster.leg_spread_us", Value: median(spreads), Unit: "us", N: int64(len(spreads))},
		{Name: "cluster.hedges_per_op", Value: ratio(c.hedges, done), Unit: "ratio", N: done},
		{Name: "cluster.hedge_win_ratio", Value: ratio(c.hedgeWins, c.hedges), Unit: "ratio", N: c.hedges},
		{Name: "cluster.incomplete", Value: float64(c.incomplete), Unit: "count"},
		{Name: "trace.throughput_ratio", Value: r.traceRatio, Unit: "ratio", N: traceSlices,
			Note: fmt.Sprintf("median over slice pairs; overall traced %.0f/s vs untraced %.0f/s", tputT, tputU)},
		{Name: "trace.spans", Value: float64(len(rec.spans)), Unit: "count"},
	}
}
