package main

// The closed loop: each client sends its next request only after the
// previous answer arrived, because the callers this system serves are
// backends that block on each answer. Two clients share at most two
// keep-alive connections to the front tier.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"pll/internal/trace"
)

const numClients = 2

// caller performs one request and reports the HTTP status (200 for a
// library call). body receives the answer bytes when non-nil.
type caller interface {
	call(req *request, tid trace.TraceID, body *bytes.Buffer) (int, error)
}

// httpCaller drives an HTTP front end.
type httpCaller struct {
	base   string
	client *http.Client
	buf    []byte
}

// newTransport returns the clients' shared transport: at most
// numClients connections to the front tier, all kept alive.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxConnsPerHost:     numClients,
		MaxIdleConnsPerHost: numClients,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
}

func (c *httpCaller) call(req *request, tid trace.TraceID, body *bytes.Buffer) (int, error) {
	method, path, payload := httpRequest(req, c.buf)
	c.buf = payload
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	hr, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	if payload != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	if !tid.IsZero() {
		// Unsampled: the program's tracer records nothing, the trace ID
		// only lets the benchmark join its own spans across tiers.
		hr.Header.Set("traceparent", trace.FormatTraceparent(tid, trace.SpanID{1}, 0))
	}
	resp, err := c.client.Do(hr)
	if err != nil {
		return 0, err
	}
	if body != nil {
		_, err = body.ReadFrom(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	resp.Body.Close()
	return resp.StatusCode, err
}

// libCaller calls the library directly (library-web).
type libCaller struct {
	ix  libIndex
	dst []int64
}

func (c *libCaller) call(req *request, _ trace.TraceID, body *bytes.Buffer) (int, error) {
	switch req.op {
	case opDistance:
		d := c.ix.Distance(req.s, req.t)
		if body != nil {
			fmt.Fprintf(body, "%d\n", d)
		}
	case opBatch:
		c.dst = c.ix.DistanceFrom(req.s, req.targets, c.dst[:0])
		if body != nil {
			fmt.Fprintln(body, c.dst)
		}
	default:
		return 0, fmt.Errorf("library workload cannot issue %v", req.op)
	}
	return http.StatusOK, nil
}

func newCaller(st *stack, tr *http.Transport) caller {
	if st.lib != nil {
		return &libCaller{ix: st.lib}
	}
	return &httpCaller{base: st.base, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

// loopResult is what one timed phase measured.
type loopResult struct {
	seconds  float64
	lat      [numOps][]time.Duration // per completed request
	ok       [numOps]int64
	failed   [numOps]int64
	shed     int64
	inserted [][2]int32 // /update edges answered 200, in completion order
	firstErr error
}

func (lr *loopResult) completed() int64 {
	var n int64
	for _, v := range lr.ok {
		n += v
	}
	return n
}

func (lr *loopResult) attempted() int64 {
	n := lr.completed()
	for _, v := range lr.failed {
		n += v
	}
	return n
}

// appendPhase adds a later phase's results.
func (lr *loopResult) appendPhase(o *loopResult) {
	lr.merge(o)
	lr.seconds += o.seconds
}

func (lr *loopResult) merge(o *loopResult) {
	for k := range lr.lat {
		lr.lat[k] = append(lr.lat[k], o.lat[k]...)
		lr.ok[k] += o.ok[k]
		lr.failed[k] += o.failed[k]
	}
	lr.shed += o.shed
	lr.inserted = append(lr.inserted, o.inserted...)
	if lr.firstErr == nil {
		lr.firstErr = o.firstErr
	}
}

// runLoop drives numClients closed-loop clients for d, or until each
// client has sent limit requests when limit > 0. Client i draws its
// requests from the seeded stream (kind, i). With rec non-nil each
// request carries a fresh trace ID and records a client span.
func runLoop(st *stack, w workload, p *pools, seed, kind uint64, d time.Duration, limit int, rec *recorder) *loopResult {
	tr := newTransport()
	defer tr.CloseIdleConnections()
	results := make([]*loopResult, numClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = clientLoop(newCaller(st, tr), newStream(w, p, seed, kind, uint64(i)), deadline, limit, rec, subSeed(seed, streamTrace, kind), uint64(i))
		}(i)
	}
	wg.Wait()
	out := &loopResult{seconds: time.Since(start).Seconds()}
	for _, r := range results {
		out.merge(r)
	}
	return out
}

func clientLoop(c caller, s *stream, deadline time.Time, limit int, rec *recorder, traceSeed, client uint64) *loopResult {
	res := &loopResult{}
	var req request
	var seq uint64
	for now, sent := time.Now(), 0; now.Before(deadline) && (limit == 0 || sent < limit); sent++ {
		s.next(&req)
		var tid trace.TraceID
		if rec != nil {
			seq++
			tid = traceID(traceSeed, client, seq)
		}
		t0 := time.Now()
		status, err := c.call(&req, tid, nil)
		now = time.Now()
		lat := now.Sub(t0)
		if rec != nil {
			rec.add(span{kind: spanClient, name: req.op.String(), node: -1, trace: tid, key: opKey(&req),
				start: int64(t0.Sub(rec.epoch)), end: int64(now.Sub(rec.epoch))})
		}
		switch {
		case err == nil && status == http.StatusOK:
			res.ok[req.op]++
			res.lat[req.op] = append(res.lat[req.op], lat)
			if req.op == opUpdate {
				res.inserted = append(res.inserted, req.edge)
			}
		default:
			res.failed[req.op]++
			if status == http.StatusTooManyRequests {
				res.shed++
			}
			if res.firstErr == nil {
				res.firstErr = fmt.Errorf("%v: status %d: %v", req.op, status, err)
			}
		}
	}
	return res
}

// traceID derives a request's trace ID from a seed unique to the
// phase, the client and the request's sequence number (from 1, so the
// ID is never zero), so a traced run is replayable too.
func traceID(seed, client, seq uint64) trace.TraceID {
	var id trace.TraceID
	binary.BigEndian.PutUint64(id[:8], subSeed(seed, streamTrace, client))
	binary.BigEndian.PutUint64(id[8:], seq)
	return id
}

// prefill sends every hot source's requests once, coldest first and
// split over the clients, so the result caches enter the timed phase
// holding the whole hot set.
func prefill(st *stack, p *pools) error {
	if p.sourceOf == nil {
		return nil
	}
	tr := newTransport()
	defer tr.CloseIdleConnections()
	errs := make([]error, numClients)
	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := newCaller(st, tr)
			for rank := hotSources - 1 - i; rank >= 0; rank -= numClients {
				s := p.sourceOf[rank]
				for _, op := range []opKind{opKNN, opQuery} {
					req := request{op: op, s: s, s2: p.partnerOf[s]}
					status, err := c.call(&req, trace.TraceID{}, nil)
					if err == nil && status != http.StatusOK {
						err = fmt.Errorf("prefill %v: status %d", op, status)
					}
					if err != nil {
						errs[i] = err
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}
