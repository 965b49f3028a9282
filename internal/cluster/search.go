package cluster

// Search and batch endpoints. /knn, /range, /nearest and /query are
// parsed and validated by internal/wire, the contract the replicas
// share, so an oversized or malformed request is rejected at the
// coordinator byte-identically to a replica. A valid one is routed to
// one replica by its canonical form: parameter order and body
// whitespace or field order do not change the routing key, so
// equivalent requests share one replica's result cache. /batch instead
// splits its pair list into contiguous chunks across the pool — the
// answer is positional, so the reduction is concatenation — which is
// what turns N replicas into N× batch throughput.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"pll/internal/wire"
	"pll/pll"
)

func (c *Coordinator) handleKNN(w http.ResponseWriter, r *http.Request) {
	req, err := wire.ParseKNN(r.URL.Query(), c.cfg.MaxBatch)
	if err != nil {
		wire.Reject(w, err)
		return
	}
	c.route(w, r, http.MethodGet, req.Path(), nil, nil)
}

// handleRange forwards the limit explicitly: the replicas' default is
// their own MaxBatch, which the deployment contract keeps equal to the
// coordinator's, but an explicit value never depends on it.
func (c *Coordinator) handleRange(w http.ResponseWriter, r *http.Request) {
	req, err := wire.ParseRange(r.URL.Query(), c.cfg.MaxBatch)
	if err != nil {
		wire.Reject(w, err)
		return
	}
	c.route(w, r, http.MethodGet, req.Path(), nil, nil)
}

func (c *Coordinator) handleNearest(w http.ResponseWriter, r *http.Request) {
	var req wire.NearestRequest
	body, ok := c.decodeBody(w, r, &req)
	if !ok {
		return
	}
	if err := req.Validate(c.cfg.MaxBatch); err != nil {
		wire.Reject(w, err)
		return
	}
	canon, err := json.Marshal(&req)
	if err != nil {
		wire.Reject(w, err)
		return
	}
	c.route(w, r, http.MethodPost, "/nearest", canon, body)
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req pll.CompositeRequest
	body, ok := c.decodeBody(w, r, &req)
	if !ok {
		return
	}
	canon, err := wire.Query(&req, c.cfg.MaxBatch)
	if err != nil {
		wire.Reject(w, err)
		return
	}
	c.route(w, r, http.MethodPost, "/query", canon, body)
}

// handleBatch splits the (validated, capped) pair list into contiguous
// chunks, one per usable backend, and reassembles the distances in
// order — the response is byte-identical to a single node's while each
// replica scans only 1/N of the pairs. A chunk whose backend fails
// retries on the rest of the pool; the batch only fails when a chunk
// exhausts every backend (positional answers cannot be served
// partially).
func (c *Coordinator) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req wire.BatchRequest
	if _, ok := c.decodeBody(w, r, &req); !ok {
		return
	}
	if err := req.Validate(c.cfg.MaxBatch); err != nil {
		wire.Reject(w, err)
		return
	}
	n := req.Len()
	usable := c.usable()
	if len(usable) == 0 {
		wire.Reject(w, wire.Errorf(http.StatusServiceUnavailable, "no usable backends (%d configured)", len(c.backends)))
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
		sub := wire.BatchRequest{Source: req.Source}
		if req.Source != nil {
			sub.Targets = req.Targets[lo:hi]
		} else {
			sub.Pairs = req.Pairs[lo:hi]
		}
		body, err := json.Marshal(&sub)
		if err != nil {
			wire.Reject(w, wire.Errorf(http.StatusInternalServerError, "%v", err))
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
			var sr wire.BatchResponse
			if err := json.Unmarshal(pr.body, &sr); err != nil {
				results[i].fail = &proxyResult{b: pr.b, err: fmt.Errorf("bad response: %w", err)}
				return
			}
			if len(sr.Distances) != hi-lo {
				results[i].fail = &proxyResult{b: pr.b, err: fmt.Errorf("bad response: %d distances for %d pairs", len(sr.Distances), hi-lo)}
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
				wire.Reject(w, wire.Errorf(http.StatusBadGateway, "backend %s: %v", pr.b.host, pr.err))
			} else {
				relay(w, pr)
			}
			return
		}
		distances = append(distances, results[i].distances...)
	}
	wire.WriteBatch(w, distances)
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
