package main

// Setting up and tearing down one serving stack per workload: build the
// index, write and map the container where the workload serves one,
// start the loopback servers, wait until the front end answers. Every
// stack is torn down in dependency order — front end drained before
// the replicas, replicas drained before their mapping is unmapped — so
// no reader ever touches an unmapped page.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pll/internal/cluster"
	"pll/internal/graph"
	"pll/internal/server"
	"pll/pll"
)

// servedIndex is every capability the server and the coordinator's
// replicas probe for; *pll.Index and *pll.FlatIndex implement all of
// them, so a wrapper that forwards each keeps the server on the same
// code paths.
type servedIndex interface {
	pll.Oracle
	pll.Batcher
	pll.Searcher
	pll.CompositeSearcher
	pll.ProfiledOracle
	pll.SearchProfiler
}

// libIndex is what the library-web clients call.
type libIndex interface {
	Distance(s, t int32) int64
	DistanceFrom(s int32, targets []int32, dst []int64) []int64
}

// httpServer is one loopback listener serving a handler.
type httpServer struct {
	srv  *http.Server
	base string
	done chan struct{}
}

func serve(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	hs := &httpServer{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(hs.done)
		hs.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on Shutdown
	}()
	return hs, nil
}

// shutdown stops accepting, waits for open connections to go idle and
// for the serve goroutine to exit.
func (hs *httpServer) shutdown(ctx context.Context) error {
	err := hs.srv.Shutdown(ctx)
	if err != nil {
		hs.srv.Close()
	}
	<-hs.done
	return err
}

// stack is one set-up serving stack.
type stack struct {
	w       workload
	lib     libIndex // library-web: the oracle the clients call
	base    string   // HTTP workloads: the front end's base URL
	front   *server.Server
	nodes   []*server.Server
	dyn     *pll.DynamicIndex
	flat    []*pll.FlatIndex
	coord   *cluster.Coordinator
	frontLn *httpServer   // the listener clients talk to
	nodeLn  []*httpServer // search-cluster: the replicas' listeners
	files   []string
	setupS  float64
	indexMB float64
	avgLbl  float64
}

// setupTimes are the library calls a set-up made, for the traced run.
type setupTimes struct {
	build, write, open, inversion time.Duration
}

// newStack builds and starts the workload's serving stack over g. With
// rec non-nil the oracle and every handler are wrapped to record spans
// into it; rec never changes what the stack answers.
func newStack(w workload, g *graph.Graph, dir string, id int, rec *recorder) (*stack, setupTimes, error) {
	var tm setupTimes
	pg, err := pll.NewGraph(g.NumVertices(), g.Edges())
	if err != nil {
		return nil, tm, err
	}
	st := &stack{w: w}
	start := time.Now()
	if err := st.start(pg, dir, id, rec, &tm); err != nil {
		st.close()
		return nil, tm, fmt.Errorf("%s setup: %w", w.name, err)
	}
	st.setupS = time.Since(start).Seconds()
	return st, tm, nil
}

func timed(d *time.Duration, f func() error) error {
	t := time.Now()
	err := f()
	*d = time.Since(t)
	return err
}

func (st *stack) start(pg *pll.Graph, dir string, id int, rec *recorder, tm *setupTimes) error {
	switch st.w.name {
	case "point-http":
		var o pll.Oracle
		if err := timed(&tm.build, func() (err error) {
			o, err = pll.Build(pg, pll.WithBitParallel(16))
			return err
		}); err != nil {
			return err
		}
		stats := o.Stats()
		st.indexMB = float64(stats.IndexBytes) / (1 << 20)
		st.avgLbl = stats.AvgLabelSize
		ix, ok := o.(servedIndex)
		if !ok {
			return fmt.Errorf("built %T lacks a serving capability", o)
		}
		st.front = server.New(pll.NewConcurrentOracle(rec.wrapOracle(ix, -1)), server.Config{})
		return st.serveFront(rec.wrapHandler(spanFront, -1, st.front.Handler()))

	case "update-mix":
		if err := timed(&tm.build, func() (err error) {
			st.dyn, err = pll.BuildDynamic(pg)
			return err
		}); err != nil {
			return err
		}
		stats := st.dyn.Stats()
		st.indexMB = float64(stats.IndexBytes) / (1 << 20)
		st.avgLbl = stats.AvgLabelSize
		// The dynamic index is served unwrapped: ConcurrentOracle picks
		// its update lock and its Update path from the concrete
		// *pll.DynamicIndex type, so a wrapper would turn /update into
		// 409 and drop the read lock. Only the handler is traced here.
		st.front = server.New(pll.NewConcurrentOracle(st.dyn), server.Config{CacheSize: cacheEntries})
		return st.serveFront(rec.wrapHandler(spanFront, -1, st.front.Handler()))

	case "library-web":
		var o pll.Oracle
		if err := timed(&tm.build, func() (err error) {
			o, err = pll.Build(pg, pll.WithBitParallel(16), pll.WithWorkers(runtime.NumCPU()))
			return err
		}); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("library-web-%d.pllbox", id))
		st.files = append(st.files, path)
		if err := timed(&tm.write, func() error { return pll.WriteFlatFile(path, o) }); err != nil {
			return err
		}
		o = nil
		fi, err := st.open(path, tm)
		if err != nil {
			return err
		}
		st.lib = rec.wrapOracle(fi, -1)
		return nil

	case "search-cluster":
		var o pll.Oracle
		if err := timed(&tm.build, func() (err error) {
			o, err = pll.Build(pg, pll.WithBitParallel(16))
			return err
		}); err != nil {
			return err
		}
		sr, ok := o.(pll.Searcher)
		if !ok {
			return fmt.Errorf("built %T cannot search", o)
		}
		// The first search query inverts the labels; the container
		// writer below reuses that inversion, so the two costs show
		// separately.
		if err := timed(&tm.inversion, func() error {
			_, err := sr.KNN(0, 1)
			return err
		}); err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("search-cluster-%d.pllbox", id))
		st.files = append(st.files, path)
		if err := timed(&tm.write, func() error { return pll.WriteFlatFile(path, o, pll.FlatSearch()) }); err != nil {
			return err
		}
		o, sr = nil, nil
		var backends []string
		for i := 0; i < 2; i++ {
			fi, err := st.open(path, tm)
			if err != nil {
				return err
			}
			node := server.New(pll.NewConcurrentOracle(rec.wrapOracle(fi, i)), server.Config{CacheSize: cacheEntries})
			st.nodes = append(st.nodes, node)
			hs, err := serve(rec.wrapHandler(spanReplica, i, node.Handler()))
			if err != nil {
				return err
			}
			st.nodeLn = append(st.nodeLn, hs)
			backends = append(backends, hs.base)
		}
		coord, err := cluster.New(cluster.Config{Backends: backends})
		if err != nil {
			return err
		}
		st.coord = coord
		if coord.Healthy() != len(backends) {
			return fmt.Errorf("coordinator sees %d of %d replicas healthy", coord.Healthy(), len(backends))
		}
		return st.serveFront(rec.wrapHandler(spanFront, -1, coord.Handler()))
	}
	return fmt.Errorf("no stack for workload %q", st.w.name)
}

func (st *stack) open(path string, tm *setupTimes) (*pll.FlatIndex, error) {
	var fi *pll.FlatIndex
	var d time.Duration
	err := timed(&d, func() (err error) {
		fi, err = pll.Open(path)
		return err
	})
	tm.open += d
	if err != nil {
		return nil, err
	}
	st.flat = append(st.flat, fi)
	st.indexMB = float64(fi.MappedBytes()) / (1 << 20)
	st.avgLbl = fi.Stats().AvgLabelSize
	return fi, nil
}

func (st *stack) serveFront(h http.Handler) error {
	hs, err := serve(h)
	if err != nil {
		return err
	}
	st.frontLn = hs
	st.base = hs.base
	return waitReady(st.base)
}

// probeClient opens a fresh connection per request, so readiness and
// stats probes never hold a keep-alive connection beside the clients'.
var probeClient = &http.Client{
	Transport: &http.Transport{DisableKeepAlives: true},
	Timeout:   10 * time.Second,
}

// waitReady polls /healthz until the front end answers 200.
func waitReady(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := probeClient.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not ready: %v", base, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// close tears the stack down: the front listener shut down and
// drained first, then the coordinator's health loop, then each replica
// listener, and only once every request has finished are the mappings
// closed and the container files removed.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	drain := func(d interface{ Drain(context.Context) error }) {
		if err := d.Drain(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	if st.frontLn != nil {
		errs = append(errs, st.frontLn.shutdown(ctx))
	}
	if st.front != nil {
		drain(st.front)
	}
	if st.coord != nil {
		drain(st.coord)
		st.coord.Close()
	}
	for i, hs := range st.nodeLn {
		errs = append(errs, hs.shutdown(ctx))
		drain(st.nodes[i])
	}
	// A failed drain leaves a reader on the mapping: keep it mapped
	// (the process exits soon) rather than unmap under the reader.
	if errors.Join(errs...) == nil {
		for _, fi := range st.flat {
			errs = append(errs, fi.Close())
		}
	}
	for _, f := range st.files {
		if err := os.Remove(f); err != nil && !errors.Is(err, os.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	st.frontLn, st.nodeLn, st.flat, st.files = nil, nil, nil, nil
	return errors.Join(errs...)
}
