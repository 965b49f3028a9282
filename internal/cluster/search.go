package cluster

// Search and batch endpoints. /knn, /range, /nearest and /query are
// validated here with the replicas' exact messages and fan-out caps,
// so an oversized or malformed request is rejected at the coordinator
// byte-identically to a replica, then routed to one replica in a
// canonical form: parameter order and body whitespace or field order
// do not change the routing key, so equivalent requests share one
// replica's result cache. /batch instead splits its pair list into
// contiguous chunks across the pool — the answer is positional, so the
// reduction is concatenation — which is what turns N replicas into N×
// batch throughput.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"pll/pll"
)

func (c *Coordinator) handleKNN(w http.ResponseWriter, r *http.Request) {
	sv, err := queryInt32(r, "s")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	k, err := queryInt32(r, "k")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !c.checkFanout(w, "k", int(k)) {
		return
	}
	c.route(w, r, http.MethodGet, fmt.Sprintf("/knn?s=%d&k=%d", sv, k), nil)
}

func (c *Coordinator) handleRange(w http.ResponseWriter, r *http.Request) {
	sv, err := queryInt32(r, "s")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	radius, err := queryInt64(r, "r")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if radius < 0 {
		writeError(w, http.StatusBadRequest, "r=%d must be non-negative", radius)
		return
	}
	limit := c.cfg.MaxBatch
	if raw := r.URL.Query().Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad limit %q", raw)
			return
		}
		if !c.checkFanout(w, "limit", v) {
			return
		}
		limit = v
	}
	// The limit is forwarded explicitly: the replicas' default is their
	// own MaxBatch, which the deployment contract keeps equal to the
	// coordinator's, but an explicit value never depends on it.
	c.route(w, r, http.MethodGet, fmt.Sprintf("/range?s=%d&r=%d&limit=%d", sv, radius, limit), nil)
}

// nearestRequest mirrors the replicas' POST /nearest body shape.
type nearestRequest struct {
	Source int32   `json:"source"`
	Set    []int32 `json:"set"`
	K      int     `json:"k"`
}

func (c *Coordinator) handleNearest(w http.ResponseWriter, r *http.Request) {
	var req nearestRequest
	if !c.decodeBody(w, r, &req) {
		return
	}
	if len(req.Set) == 0 {
		writeError(w, http.StatusBadRequest, `nearest body needs a non-empty "set"`)
		return
	}
	if !c.checkFanout(w, "set size", len(req.Set)) || !c.checkFanout(w, "k", req.K) {
		return
	}
	fwd, err := json.Marshal(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.route(w, r, http.MethodPost, "/nearest", fwd)
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req pll.CompositeRequest
	if !c.decodeBody(w, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req.Normalize()
	if !c.checkFanout(w, "constraint fan-out", req.Fanout()) {
		return
	}
	if req.K > c.cfg.MaxBatch {
		writeError(w, http.StatusBadRequest, "k=%d outside [0,%d]", req.K, c.cfg.MaxBatch)
		return
	}
	canon, err := json.Marshal(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	c.route(w, r, http.MethodPost, "/query", canon)
}

// batchRequest mirrors the replicas' POST /batch body shape.
type batchRequest struct {
	Pairs   [][2]int32 `json:"pairs,omitempty"`
	Source  *int32     `json:"source,omitempty"`
	Targets []int32    `json:"targets,omitempty"`
}

// handleBatch splits the (validated, capped) pair list into contiguous
// chunks, one per usable backend, and reassembles the distances in
// order — the response is byte-identical to a single node's while each
// replica scans only 1/N of the pairs. A chunk whose backend fails
// retries on the rest of the pool; the batch only fails when a chunk
// exhausts every backend (positional answers cannot be served
// partially).
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !c.decodeBody(w, r, &req) {
		return
	}
	switch {
	case req.Source != nil && len(req.Targets) > 0 && len(req.Pairs) == 0:
	case req.Source == nil && len(req.Targets) == 0 && len(req.Pairs) > 0:
	default:
		writeError(w, http.StatusBadRequest, `batch body needs either "pairs" or "source"+"targets"`)
		return
	}
	n := len(req.Pairs) + len(req.Targets)
	if n > c.cfg.MaxBatch {
		writeError(w, http.StatusRequestEntityTooLarge, "batch of %d pairs exceeds the %d limit", n, c.cfg.MaxBatch)
		return
	}
	usable := c.usable()
	if len(usable) == 0 {
		writeError(w, http.StatusServiceUnavailable, "no usable backends (%d configured)", len(c.backends))
		return
	}

	chunks := min(len(usable), n)
	type chunkResult struct {
		distances []int64
		fail      *proxyResult
	}
	results := make([]chunkResult, chunks)
	var wg sync.WaitGroup
	for i := 0; i < chunks; i++ {
		lo, hi := i*n/chunks, (i+1)*n/chunks
		var sub any
		if req.Source != nil {
			sub = map[string]any{"source": *req.Source, "targets": req.Targets[lo:hi]}
		} else {
			sub = map[string]any{"pairs": req.Pairs[lo:hi]}
		}
		body, err := json.Marshal(sub)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		wg.Add(1)
		go func(i int, body []byte) {
			defer wg.Done()
			results[i] = chunkResult{}
			pr := c.batchChunk(r, usable, i, body)
			if pr.err != nil || pr.status != http.StatusOK {
				results[i].fail = pr
				return
			}
			var sr struct {
				Distances []int64 `json:"distances"`
			}
			if err := json.Unmarshal(pr.body, &sr); err != nil {
				results[i].fail = &proxyResult{b: pr.b, err: fmt.Errorf("bad response: %w", err)}
				return
			}
			results[i].distances = sr.Distances
		}(i, body)
	}
	wg.Wait()

	distances := make([]int64, 0, n)
	for i := range results {
		if pr := results[i].fail; pr != nil {
			if pr.err != nil {
				writeError(w, http.StatusBadGateway, "backend %s: %v", pr.b.host, pr.err)
			} else {
				relay(w, pr)
			}
			return
		}
		distances = append(distances, results[i].distances...)
	}
	body, err := marshalResponse(map[string]any{"count": n, "distances": distances})
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSONBytes(w, http.StatusOK, body)
}

// batchChunk posts one chunk, starting at the backend the chunk was
// assigned to and failing over through the rest of the usable pool
// under route's rule: an answered response is final (200 to merge, 4xx
// to relay); transport errors, 5xxs and 429s keep walking, and a 429
// is what the chunk reports when any backend shed.
func (c *Coordinator) batchChunk(in *http.Request, usable []*backend, first int, body []byte) *proxyResult {
	var shed, last *proxyResult
	for j := range usable {
		if j > 0 {
			c.failovers.Add(1)
		}
		b := usable[(first+j)%len(usable)]
		pr := func() *proxyResult {
			ctx, cancel := context.WithTimeout(in.Context(), c.cfg.RequestTimeout)
			defer cancel()
			return c.fetch(ctx, b, in, http.MethodPost, "/batch", body, false)
		}()
		if pr.answered() {
			return pr
		}
		if pr.shed() {
			shed = pr
		}
		last = pr
	}
	if shed != nil {
		return shed
	}
	return last
}
