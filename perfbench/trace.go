package main

// Benchmark-side tracing. Spans are recorded only in this package,
// around calls into the modules' public functions: the library set-up
// calls, an oracle wrapper under server.New, and wrappers around
// Server.Handler and Coordinator.Handler. The program's own tracer
// stays at sample rate 0; the client sends an unsampled traceparent,
// which the coordinator forwards to the replicas, so each replica span
// joins its coordinator span by trace ID. Spans are kept in memory and
// written out when the run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"pll/internal/trace"
	"pll/pll"
)

type spanKind uint8

const (
	spanClient  spanKind = iota // client round trip
	spanFront                   // ServeHTTP at the tier the clients call
	spanReplica                 // ServeHTTP at a replica behind the coordinator
	spanOracle                  // one call into the oracle wrapper
	spanSetup                   // one library set-up call
)

var spanKindNames = [...]string{"client", "front", "replica", "oracle", "setup"}

// span is one recorded interval. Times are nanoseconds since the
// recorder's epoch.
type span struct {
	id      int // position in the recorder
	kind    spanKind
	name    string // endpoint, oracle method or set-up call
	node    int    // replica index; -1 for the front tier or a single node
	trace   trace.TraceID
	key     uint64 // request arguments (see opKey)
	start   int64
	end     int64
	n       int64 // batch targets, or returned matches / neighbors
	scanned int64 // label entries a composite query scanned
}

func (s *span) dur() int64 { return s.end - s.start }

// recorder collects spans. A nil recorder records nothing and its
// wrappers return what they were given, so the untraced stack runs no
// benchmark code between the server and the index.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span

	// phase is the traced timed phase; request spans starting outside
	// it (probe, warm-up, verification) are written out but not
	// analysed.
	phase interval
	// parents links spans to the span that caused them, filled by the
	// analysis and written out with the spans.
	parents map[*span]*span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	s.id = len(r.spans)
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// setup records one set-up call that ran for d, ending now.
func (r *recorder) setup(name string, d time.Duration) {
	if r == nil || d == 0 {
		return
	}
	end := r.now()
	r.add(span{kind: spanSetup, name: name, node: -1, start: end - int64(d), end: end})
}

// wrapHandler records a span per request around h.ServeHTTP, keyed by
// the trace ID of the request's traceparent.
func (r *recorder) wrapHandler(kind spanKind, node int, h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := r.now()
		h.ServeHTTP(w, req)
		end := r.now()
		tid, _, _, _ := trace.ParseTraceparent(req.Header.Get("traceparent"))
		r.add(span{kind: kind, name: strings.TrimPrefix(req.URL.Path, "/"), node: node, trace: tid, start: start, end: end})
	})
}

// wrapOracle returns ix wrapped so every query call records a span.
func (r *recorder) wrapOracle(ix servedIndex, node int) servedIndex {
	if r == nil {
		return ix
	}
	return &tracedOracle{servedIndex: ix, rec: r, node: node}
}

// tracedOracle forwards every capability of the wrapped index and
// records the query calls. Path, Range, NearestIn, NewVertexSet,
// NumVertices, Stats and WriteTo pass through the embedded interface.
type tracedOracle struct {
	servedIndex
	rec  *recorder
	node int
}

func (o *tracedOracle) record(name string, key uint64, start int64, n, scanned int64) {
	o.rec.add(span{kind: spanOracle, name: name, node: o.node, key: key, start: start, end: o.rec.now(), n: n, scanned: scanned})
}

func (o *tracedOracle) Distance(s, t int32) int64 {
	start := o.rec.now()
	d := o.servedIndex.Distance(s, t)
	o.record("distance", argKey(opDistance, s, t), start, 1, 0)
	return d
}

func (o *tracedOracle) DistanceProfiled(s, t int32, p *pll.QueryProfile) int64 {
	start := o.rec.now()
	d := o.servedIndex.DistanceProfiled(s, t, p)
	o.record("distance", argKey(opDistance, s, t), start, 1, 0)
	return d
}

func (o *tracedOracle) DistanceFrom(s int32, targets []int32, dst []int64) []int64 {
	start := o.rec.now()
	dst = o.servedIndex.DistanceFrom(s, targets, dst)
	o.record("distancefrom", argKey(opBatch, s, int32(len(targets))), start, int64(len(targets)), 0)
	return dst
}

func (o *tracedOracle) DistanceFromProfiled(s int32, targets []int32, dst []int64, p *pll.QueryProfile) []int64 {
	start := o.rec.now()
	dst = o.servedIndex.DistanceFromProfiled(s, targets, dst, p)
	o.record("distancefrom", argKey(opBatch, s, int32(len(targets))), start, int64(len(targets)), 0)
	return dst
}

func (o *tracedOracle) KNN(s int32, k int) ([]pll.Neighbor, error) {
	start := o.rec.now()
	res, err := o.servedIndex.KNN(s, k)
	o.record("knn", argKey(opKNN, s, int32(k)), start, int64(len(res)), 0)
	return res, err
}

func (o *tracedOracle) KNNProfiled(s int32, k int, p *pll.QueryProfile) ([]pll.Neighbor, error) {
	start := o.rec.now()
	res, err := o.servedIndex.KNNProfiled(s, k, p)
	o.record("knn", argKey(opKNN, s, int32(k)), start, int64(len(res)), 0)
	return res, err
}

func (o *tracedOracle) Composite(req *pll.CompositeRequest) (*pll.CompositeResult, error) {
	start := o.rec.now()
	res, err := o.servedIndex.Composite(req)
	var n, scanned int64
	if res != nil {
		n, scanned = int64(len(res.Matches)), res.Scanned
	}
	o.record("composite", compositeKey(req), start, n, scanned)
	return res, err
}

// compositeKey keys a composite request by its first two near sources,
// the two the benchmark's /query requests carry.
func compositeKey(req *pll.CompositeRequest) uint64 {
	if req == nil || req.Where == nil || len(req.Where.And) != 2 {
		return 0
	}
	a, b := req.Where.And[0].Near, req.Where.And[1].Near
	if a == nil || b == nil {
		return 0
	}
	return argKey(opQuery, a.Source, b.Source)
}

// ---------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is the part of parent not covered by any child interval.
// Children may overlap each other (scatter legs) and may stick out of
// the parent; only their union inside the parent is subtracted.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := int64(0)
	curS, curE := int64(0), int64(-1)
	for _, c := range cs {
		if c.start > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c.start, c.end
			continue
		}
		curE = max(curE, c.end)
	}
	if curE > curS {
		covered += curE - curS
	}
	return parent.end - parent.start - covered
}

// joinByTrace groups replica spans under the front span of the same
// trace ID. Spans without a trace ID, and replica spans whose trace
// has no front span, are left out.
func joinByTrace(fronts, replicas []*span) map[*span][]*span {
	byID := make(map[trace.TraceID]*span, len(fronts))
	for _, f := range fronts {
		if !f.trace.IsZero() {
			byID[f.trace] = f
		}
	}
	out := make(map[*span][]*span, len(fronts))
	for _, r := range replicas {
		if f, ok := byID[r.trace]; ok && !r.trace.IsZero() {
			out[f] = append(out[f], r)
		}
	}
	return out
}

// attachOracle finds, for each oracle span, the handler span on the same
// node with the same request key whose interval contains it. The key
// of a handler span comes from the client span of its trace.
func attachOracle(handlers []*span, keyOf map[*span]uint64, oracles []*span) map[*span][]*span {
	type nk struct {
		node int
		key  uint64
	}
	idx := make(map[nk][]*span)
	for _, h := range handlers {
		if k, ok := keyOf[h]; ok {
			idx[nk{h.node, k}] = append(idx[nk{h.node, k}], h)
		}
	}
	out := make(map[*span][]*span)
	for _, o := range oracles {
		for _, h := range idx[nk{o.node, o.key}] {
			if h.start <= o.start && o.end <= h.end {
				out[h] = append(out[h], o)
				break
			}
		}
	}
	return out
}

// inPhase reports whether a request span belongs to the traced phase.
func (r *recorder) inPhase(s *span) bool {
	return s.start >= r.phase.start && s.start < r.phase.end
}

// writeSpans dumps every span as one JSON object per line; "id" is the
// span's line number and "parent" the id of the span that caused it.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		s := &r.spans[i]
		rec := map[string]any{
			"id":       s.id,
			"kind":     spanKindNames[s.kind],
			"name":     s.name,
			"node":     s.node,
			"start_ns": s.start,
			"end_ns":   s.end,
		}
		if p, ok := r.parents[s]; ok {
			rec["parent"] = p.id
		}
		if !s.trace.IsZero() {
			rec["trace_id"] = s.trace.String()
		}
		if s.key != 0 {
			rec["key"] = fmt.Sprintf("%016x", s.key)
		}
		if s.n != 0 {
			rec["n"] = s.n
		}
		if s.scanned != 0 {
			rec["scanned"] = s.scanned
		}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
