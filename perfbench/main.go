// Command perfbench is the repository benchmark: it generates one
// workload's graph and request stream from a seed, builds and serves
// the index in process, replays the requests in a closed loop with two
// clients, checks the answers against BFS ground truth and prints every
// metric by name and unit. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload point-http --seed 1 --seconds 8 --trace 0
//	perfbench --workload point-http --seed 1 --seconds 8 --trace 1
//	perfbench compare [--bounds BENCHMARK.json] parent.jsonl change.jsonl
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload and seed untraced and then traced, and reports the
// per-layer metrics and the tracing overhead. --record FILE appends the
// full result, with its provenance, to FILE for the compare mode.
// README.md in this directory documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(2)
		}
		return
	}
	os.Exit(runMain(os.Args[1:]))
}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	record   string
	outDir   string
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for the graph and the request stream")
	fs.IntVar(&cfg.seconds, "seconds", 40, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.StringVar(&cfg.record, "record", "", "append the full result as one JSON line to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	cfg.outDir = os.Getenv("PERFBENCH_DIR")
	if cfg.outDir == "" {
		cfg.outDir = ".bench_build"
	}
	if cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print(os.Stdout)
	if cfg.record != "" {
		if err := res.appendRecord(cfg.record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: record:", err)
			return 1
		}
	}
	if !res.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: wrong answers:", res.firstWrong)
		return 1
	}
	return 0
}

const numSetups = 3

// run executes one benchmark run.
func run(cfg config) (res *result, err error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(cfg.outDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	base, err := makeGraph(w)
	if err != nil {
		return nil, err
	}
	p := makePools(w, base)
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}

	// Set up numSetups times and report the median. The untraced run
	// keeps the last stack; the traced run keeps the last two, serving
	// the last one traced and the one before untraced.
	var stacks []*stack
	defer func() {
		for _, st := range stacks {
			if cerr := st.close(); cerr != nil && err == nil {
				err = fmt.Errorf("teardown: %w", cerr)
			}
		}
	}()
	var setups []float64
	for i := 0; i < numSetups; i++ {
		var r *recorder
		if cfg.trace && i == numSetups-1 {
			r = rec
		}
		st, tm, err := newStack(w, base, tmp, i, r)
		if err != nil {
			return nil, err
		}
		rec.setup("core.build", tm.build)
		rec.setup("core.flat_write", tm.write)
		rec.setup("core.open", tm.open)
		rec.setup("hubsearch.inversion", tm.inversion)
		setups = append(setups, st.setupS)
		if i == numSetups-1 || (cfg.trace && i == numSetups-2) {
			stacks = append(stacks, st)
			continue
		}
		if err := st.close(); err != nil {
			return nil, fmt.Errorf("teardown: %w", err)
		}
		debug.FreeOSMemory()
	}

	res = &result{cfg: cfg, w: w, prov: provenance(cfg.seed)}
	res.setupS = median(setups)
	untraced := stacks[0]
	res.indexMB, res.avgLabel = untraced.indexMB, untraced.avgLbl

	// The identity probe runs first, on pristine stacks.
	var inserted [2][][2]int32
	res.probeDigest, inserted[0], err = probe(untraced, w, p, cfg.seed, false)
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		res.tracedDigest, inserted[1], err = probe(stacks[1], w, p, cfg.seed, true)
		if err != nil {
			return nil, err
		}
	}

	measured := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		measured /= 2
	}
	const warmCap = 20 * time.Second

	warmUp := func(st *stack) ([][2]int32, error) {
		if err := prefill(st, p); err != nil {
			return nil, err
		}
		lr := runLoop(st, w, p, cfg.seed, streamClient+100, warmCap, w.warm, nil)
		return lr.inserted, lr.firstErr
	}
	warmed, err := warmUp(untraced)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	inserted[0] = append(inserted[0], warmed...)
	stacksChecked := stacks[:1]
	if !cfg.trace {
		before := scrape(untraced)
		// Start the timed phase with the set-ups' garbage collected and
		// returned, so neither the collector's backlog nor the memory the
		// builds left behind depends on when the last cycle happened.
		debug.FreeOSMemory()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		stopRSS := sampleRSS()
		res.loop = runLoop(untraced, w, p, cfg.seed, streamClient, measured, 0, nil)
		res.peakRSSMB = stopRSS()
		runtime.ReadMemStats(&ms1)
		res.counters = scrape(untraced).minus(before)
		res.mallocs = ms1.Mallocs - ms0.Mallocs
		inserted[0] = append(inserted[0], res.loop.inserted...)
	} else {
		st := stacks[1]
		warmed, err := warmUp(st)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		inserted[1] = append(inserted[1], warmed...)
		before := scrape(untraced)
		debug.FreeOSMemory()
		stopRSS := sampleRSS()
		rec.phase.start = rec.now()
		alternate(res, untraced, st, w, p, cfg.seed, measured, rec)
		rec.phase.end = rec.now()
		res.peakRSSMB = stopRSS()
		res.counters = scrape(untraced).minus(before)
		inserted[0] = append(inserted[0], res.loop.inserted...)
		inserted[1] = append(inserted[1], res.traced.inserted...)
		res.scanPerKNN = profileKNN(st, w, p, cfg.seed)
		stacksChecked = stacks
	}

	res.checks = &checks{}
	for i, st := range stacksChecked {
		chk, err := verify(st, w, p, base, inserted[i], cfg.seed)
		if err != nil {
			return nil, err
		}
		res.checks.checked += chk.checked
		res.checks.wrong += chk.wrong
		if res.checks.first == nil {
			res.checks.first = chk.first
		}
	}
	if cfg.trace {
		res.layers = analyze(rec, res, stacks[1])
		path := filepath.Join(cfg.outDir, "spans-"+w.name+".jsonl")
		if err := rec.writeSpans(path); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		res.spanFile = path
	}
	res.finish()
	return res, nil
}

// traceSlices is how many untraced/traced slice pairs the traced run
// alternates through. Outside load on the reference machine shifts
// speed for many seconds at a time, so two back-to-back phases would
// compare different regimes; adjacent short slices see the same one,
// and the overhead is the median of the slice pairs' ratios.
const traceSlices = 6

// alternate measures the untraced stack u and the traced stack t in
// traceSlices adjacent slice pairs of equal length, each pair replaying
// the same request streams on both, and fills the result's untraced
// and traced loops, malloc count and tracing overhead.
func alternate(res *result, u, t *stack, w workload, p *pools, seed uint64, measured time.Duration, rec *recorder) {
	res.loop, res.traced = &loopResult{}, &loopResult{}
	slice := measured / traceSlices
	var ratios []float64
	for i := uint64(0); i < traceSlices; i++ {
		kind := streamClient<<8 | i
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		lu := runLoop(u, w, p, seed, kind, slice, 0, nil)
		runtime.ReadMemStats(&ms1)
		res.mallocs += ms1.Mallocs - ms0.Mallocs
		lt := runLoop(t, w, p, seed, kind, slice, 0, rec)
		ratios = append(ratios, (float64(lt.completed())/lt.seconds)/(float64(lu.completed())/lu.seconds))
		res.loop.appendPhase(lu)
		res.traced.appendPhase(lt)
	}
	res.traceRatio = median(ratios)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// sampleRSS samples the process's resident set every 50ms until the
// returned function is called, which stops the sampler, waits for it
// and returns the largest sample in MiB. Sampling the timed phase, not
// the kernel's lifetime high-water mark, keeps the set-up's transient
// build allocations (whose peak depends on when the collector ran) out
// of the figure: it is the memory the serving stack holds under load.
func sampleRSS() func() float64 {
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		peak := rssMB()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, rssMB())
			case <-stop:
				done <- max(peak, rssMB())
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		return <-done
	}
}

func rssMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		var kb float64
		if _, err := fmt.Sscanf(line, "VmRSS: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// appendRecord appends the full result as one JSON line.
func (r *result) appendRecord(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r.record())
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
