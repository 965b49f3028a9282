package main

// Correctness, checked after timing stops: a seeded sample of every
// operation type the workload issues is replayed serially through the
// same front end and compared with internal/bfs ground truth (for
// update-mix, on the base graph plus every edge the run inserted), and
// every search-cluster answer is byte-compared with the answer of one
// replica asked directly. The identity probe replays one seeded
// sequence through the untraced and the traced stack and hashes the
// answers, so the two can be compared byte for byte.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"

	"pll/internal/bfs"
	"pll/internal/graph"
	"pll/internal/trace"
	"pll/pll"
)

const (
	probeRequests  = 200
	verifyRequests = 96
)

// checks tallies verified answers.
type checks struct {
	checked, wrong int64
	first          error
}

func (c *checks) expect(ok bool, format string, args ...any) {
	c.checked++
	if !ok {
		c.wrong++
		if c.first == nil {
			c.first = fmt.Errorf(format, args...)
		}
	}
}

// serialCaller returns a caller for one-at-a-time requests.
func serialCaller(st *stack) (caller, func()) {
	tr := newTransport()
	return newCaller(st, tr), tr.CloseIdleConnections
}

// probe replays probeRequests seeded requests serially and returns the
// SHA-256 over every (status, answer) pair, plus the /update edges it
// inserted. With traced set the requests carry trace IDs, exercising
// every tracing path the traced run takes.
func probe(st *stack, w workload, p *pools, seed uint64, traced bool) (string, [][2]int32, error) {
	c, done := serialCaller(st)
	defer done()
	s := newStream(w, p, seed, streamProbe, 0)
	h := sha256.New()
	var body bytes.Buffer
	var req request
	var inserted [][2]int32
	for i := 0; i < probeRequests; i++ {
		s.next(&req)
		var tid trace.TraceID
		if traced {
			tid = traceID(seed, 1<<32, uint64(i)+1)
		}
		body.Reset()
		status, err := c.call(&req, tid, &body)
		if err != nil {
			return "", nil, fmt.Errorf("probe %v: %w", req.op, err)
		}
		if req.op == opUpdate && status == http.StatusOK {
			inserted = append(inserted, req.edge)
		}
		fmt.Fprintf(h, "%d %d\n", status, body.Len())
		h.Write(body.Bytes())
	}
	return hex.EncodeToString(h.Sum(nil)), inserted, nil
}

// groundTruth memoizes BFS distance arrays per source.
type groundTruth struct {
	g    *graph.Graph
	dist map[int32][]int32
}

func (gt *groundTruth) from(s int32) []int32 {
	if d, ok := gt.dist[s]; ok {
		return d
	}
	d := bfs.AllDistances(gt.g, s)
	gt.dist[s] = d
	return d
}

// expectedKNN is the exact top-k by (distance, vertex), source excluded.
func expectedKNN(dist []int32, s int32, k int) []pll.Neighbor {
	var all []pll.Neighbor
	for v, d := range dist {
		if d >= 0 && int32(v) != s {
			all = append(all, pll.Neighbor{Vertex: int32(v), Distance: int64(d)})
		}
	}
	slices.SortFunc(all, func(a, b pll.Neighbor) int {
		if a.Distance != b.Distance {
			return int(a.Distance - b.Distance)
		}
		return int(a.Vertex - b.Vertex)
	})
	return all[:min(k, len(all))]
}

// verify checks verifyRequests seeded requests of the workload's mix.
// base is the generated graph and inserted every edge the stack's
// /update calls answered 200 for.
func verify(st *stack, w workload, p *pools, base *graph.Graph, inserted [][2]int32, seed uint64) (*checks, error) {
	g := base
	if len(inserted) > 0 {
		edges := base.Edges()
		for _, e := range inserted {
			edges = append(edges, graph.Edge{U: e[0], V: e[1]})
		}
		var err error
		if g, err = graph.NewGraph(base.NumVertices(), edges); err != nil {
			return nil, err
		}
	}
	gt := &groundTruth{g: g, dist: make(map[int32][]int32)}
	c, done := serialCaller(st)
	defer done()
	directTr := newTransport()
	defer directTr.CloseIdleConnections()
	direct := &httpCaller{client: &http.Client{Transport: directTr, Timeout: 30 * time.Second}}
	if len(st.nodeLn) > 0 {
		direct.base = st.nodeLn[0].base
	}
	s := newStream(w, p, seed, streamVerify, 0)
	chk := &checks{}
	var body, want bytes.Buffer
	var req request
	for i := 0; i < verifyRequests; i++ {
		s.next(&req)
		if req.op == opUpdate {
			continue // the reads check the inserted edges
		}
		body.Reset()
		status, err := c.call(&req, trace.TraceID{}, &body)
		if err != nil || status != http.StatusOK {
			chk.expect(false, "%v: status %d: %v: %s", req.op, status, err, strings.TrimSpace(body.String()))
			continue
		}
		switch req.op {
		case opDistance:
			checkDistance(chk, w, &req, body.Bytes(), gt.from(req.s)[req.t])
		case opBatch:
			checkBatch(chk, w, &req, body.Bytes(), gt.from(req.s))
		case opKNN:
			var got struct {
				Neighbors []pll.Neighbor `json:"neighbors"`
			}
			err := json.Unmarshal(body.Bytes(), &got)
			wantN := expectedKNN(gt.from(req.s), req.s, searchK)
			chk.expect(err == nil && slices.Equal(got.Neighbors, wantN), "knn s=%d: got %s, want %v", req.s, body.Bytes(), wantN)
		}
		if direct.base != "" {
			want.Reset()
			status, err := direct.call(&req, trace.TraceID{}, &want)
			chk.expect(err == nil && status == http.StatusOK && bytes.Equal(body.Bytes(), want.Bytes()),
				"%v s=%d: coordinator answered %q, replica %q", req.op, req.s, body.Bytes(), want.Bytes())
		}
	}
	return chk, nil
}

func checkDistance(chk *checks, w workload, req *request, body []byte, want int32) {
	if !w.http {
		var got int64
		_, err := fmt.Sscan(string(body), &got)
		chk.expect(err == nil && got == int64(want), "Distance(%d,%d) = %s, want %d", req.s, req.t, body, want)
		return
	}
	var got struct {
		Distance  int64 `json:"distance"`
		Reachable bool  `json:"reachable"`
	}
	err := json.Unmarshal(body, &got)
	chk.expect(err == nil && got.Distance == int64(want) && got.Reachable == (want >= 0),
		"/distance s=%d t=%d: got %s, want %d", req.s, req.t, body, want)
}

func checkBatch(chk *checks, w workload, req *request, body []byte, dist []int32) {
	want := make([]int64, len(req.targets))
	for i, t := range req.targets {
		want[i] = int64(dist[t])
	}
	var got []int64
	var err error
	if w.http {
		var resp struct {
			Distances []int64 `json:"distances"`
		}
		err = json.Unmarshal(body, &resp)
		got = resp.Distances
	} else {
		got, err = parseInts(string(body))
	}
	chk.expect(err == nil && slices.Equal(got, want), "batch s=%d: %d of %d targets wrong or unparsed (%v)",
		req.s, countDiff(got, want), len(want), err)
}

// parseInts reads the library caller's "[d1 d2 ...]" rendering.
func parseInts(s string) ([]int64, error) {
	fields := strings.Fields(strings.Trim(strings.TrimSpace(s), "[]"))
	out := make([]int64, len(fields))
	for i, f := range fields {
		if _, err := fmt.Sscan(f, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func countDiff(a, b []int64) int {
	if len(a) != len(b) {
		return len(b)
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}
