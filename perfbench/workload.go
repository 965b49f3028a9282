package main

// Workloads and their seeded request streams. The per-client request
// sequences and the update edges are drawn with the --seed flag, so one
// seed always replays the same run; the graph and the hot sets are
// fixed per workload (see graphSeed). The program under test only ever
// sees the generated requests.

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"pll/internal/datasets"
	"pll/internal/gen"
	"pll/internal/graph"
	"pll/internal/rng"
)

// opKind is one operation type a workload issues.
type opKind int

const (
	opDistance opKind = iota // GET /distance, or Distance on the library
	opBatch                  // POST /batch single-source, or DistanceFrom
	opKNN                    // GET /knn
	opQuery                  // POST /query
	opUpdate                 // POST /update
	numOps
)

// opNames name the operations in the report's per-operation
// percentiles (distance_p50_us, ...).
var opNames = [numOps]string{"distance", "batch", "knn", "query", "update"}

func (k opKind) String() string { return opNames[k] }

const (
	batchTargetsHTTP    = 256  // targets per point-http /batch
	batchTargetsLibrary = 1024 // targets per library-web DistanceFrom
	searchK             = 10   // k of /knn and of the /query top-k
	cacheEntries        = 4096 // result / distance cache capacity
	updateHotPairs      = 4 * cacheEntries
	zipfExponent        = 1.1
	// search-cluster draws hotShare of its sources Zipf-skewed from
	// hotSources fixed vertices, whose /knn and /query keys (2048) fit
	// each replica's result cache, and the rest uniformly from every
	// vertex, which almost always misses. The split keeps the miss
	// rate steady from the first timed request: with Zipf over the
	// whole graph the LRU cache kept converging for tens of seconds,
	// and the measured phase caught a different point of that
	// transient on every run. A cold /knn costs about 1.2 ms of
	// memory-bound hub scanning on each replica; at a 20% cold share
	// those scans took two thirds of the CPU and their sensitivity to
	// other tenants' memory traffic doubled the run-to-run spread.
	hotSources   = 1024
	hotShare     = 0.9
	queryRadius1 = 2 // near(s1, 2) AND near(s2, 1)
	queryRadius2 = 1
)

// workload describes one benchmark workload: its operation mix and
// which front end serves it. BENCHMARK.json and README.md give the
// reason for each.
type workload struct {
	name string
	// ops lists the two operation types, the first the majority one;
	// share1 is the first one's share of requests.
	ops    [2]opKind
	share1 float64
	http   bool // false: the clients call the library directly
	// warm is the number of requests each client sends before timing
	// starts, counted rather than timed so every run starts the timed
	// phase with its caches in the same state.
	warm int
}

var workloads = []workload{
	{
		name:   "point-http",
		ops:    [2]opKind{opDistance, opBatch},
		share1: 0.9,
		http:   true,
		warm:   1000,
	},
	{
		name:   "search-cluster",
		ops:    [2]opKind{opKNN, opQuery},
		share1: 0.5,
		http:   true,
		warm:   2500,
	},
	{
		name:   "library-web",
		ops:    [2]opKind{opDistance, opBatch},
		share1: 0.9,
		warm:   2000,
	},
	{
		name:   "update-mix",
		ops:    [2]opKind{opDistance, opUpdate},
		share1: 0.95,
		http:   true,
		warm:   1000,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Seed streams: each consumer of randomness gets its own generator so
// adding a draw in one place never shifts another's sequence.
const (
	streamGraph uint64 = iota + 1
	streamPool
	streamClient
	streamProbe
	streamVerify
	streamTrace
)

func subSeed(seed, stream, index uint64) uint64 {
	return seed*0x9e3779b97f4a7c15 ^ stream<<48 ^ index*0xbf58476d1ce4e5b9
}

// graphSeed fixes each workload's graph and hot sets: they are part of
// the workload's definition, like a named dataset, while --seed draws
// the request sequences and update edges from them. Seeding the graph
// too would let label-size differences between graphs of one recipe
// (about 10% in index size) swamp the run-to-run comparison, and
// seeding the hot sets would change which sources are hot and so how
// costly a cache miss is.
const graphSeed = 1

// makeGraph generates the workload's input graph.
func makeGraph(w workload) (*graph.Graph, error) {
	gs := subSeed(graphSeed, streamGraph, 0)
	switch w.name {
	case "point-http", "search-cluster":
		return gen.BarabasiAlbert(30000, 4, gs), nil
	case "update-mix":
		return gen.BarabasiAlbert(20000, 4, gs), nil
	case "library-web":
		r, err := datasets.ByName("NotreDame")
		if err != nil {
			return nil, err
		}
		return r.Generate(4, gs), nil
	}
	return nil, fmt.Errorf("no graph recipe for %q", w.name)
}

// zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s, by binary search over the cumulative weights.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) sample(r *rng.RNG) int {
	i := sort.SearchFloat64s(z.cdf, r.Float64())
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// pools holds the seeded hot sets shared by both clients.
type pools struct {
	n int32
	// search-cluster: hot rank -> source vertex, and each source's
	// /query partner (a vertex two random steps away), so a query's
	// cache key depends on its source alone.
	sourceOf  []int32
	partnerOf []int32
	srcZipf   *zipf
	// update-mix: the hot read pairs, Zipf over their rank, and the
	// base graph the update edges are drawn from.
	pairs    [][2]int32
	pairZipf *zipf
	g        *graph.Graph
}

func makePools(w workload, g *graph.Graph) *pools {
	const seed = graphSeed
	n := int32(g.NumVertices())
	p := &pools{n: n}
	r := rng.New(subSeed(seed, streamPool, 0))
	switch w.name {
	case "search-cluster":
		p.sourceOf = r.Perm(int(n))
		p.partnerOf = make([]int32, n)
		for v := int32(0); v < n; v++ {
			p.partnerOf[v] = randomWalk(g, v, 2, rng.New(subSeed(seed, streamPool, uint64(v)+1)))
		}
		p.srcZipf = newZipf(hotSources, zipfExponent)
	case "update-mix":
		p.pairs = make([][2]int32, updateHotPairs)
		for i := range p.pairs {
			p.pairs[i] = [2]int32{r.Int31n(n), r.Int31n(n)}
		}
		p.pairZipf = newZipf(len(p.pairs), zipfExponent)
		p.g = g
	}
	return p
}

// randomWalk takes up to steps uniform random steps from v.
func randomWalk(g *graph.Graph, v int32, steps int, r *rng.RNG) int32 {
	for i := 0; i < steps; i++ {
		nb := g.Neighbors(v)
		if len(nb) == 0 {
			break
		}
		v = nb[r.Intn(len(nb))]
	}
	return v
}

// request is one generated operation.
type request struct {
	op      opKind
	s, t    int32    // distance pair; s is also the batch / knn source
	targets []int32  // batch targets
	s2      int32    // /query partner source
	edge    [2]int32 // /update edge
}

// stream generates one client's request sequence.
type stream struct {
	w  workload
	p  *pools
	r  *rng.RNG
	nt int // batch targets per request
}

func newStream(w workload, p *pools, seed, kind, index uint64) *stream {
	nt := batchTargetsHTTP
	if !w.http {
		nt = batchTargetsLibrary
	}
	return &stream{w: w, p: p, r: rng.New(subSeed(seed, kind, index)), nt: nt}
}

// next returns the next request. The targets slice is reused by the
// following call.
func (st *stream) next(req *request) {
	r, p := st.r, st.p
	op := st.w.ops[1]
	if r.Float64() < st.w.share1 {
		op = st.w.ops[0]
	}
	req.op = op
	switch op {
	case opDistance:
		if p.pairs != nil {
			pr := p.pairs[p.pairZipf.sample(r)]
			req.s, req.t = pr[0], pr[1]
		} else {
			req.s, req.t = r.Int31n(p.n), r.Int31n(p.n)
		}
	case opBatch:
		req.s = r.Int31n(p.n)
		req.targets = req.targets[:0]
		for i := 0; i < st.nt; i++ {
			req.targets = append(req.targets, r.Int31n(p.n))
		}
	case opKNN, opQuery:
		if r.Float64() < hotShare {
			req.s = p.sourceOf[p.srcZipf.sample(r)]
		} else {
			req.s = r.Int31n(p.n)
		}
		req.s2 = p.partnerOf[req.s]
	case opUpdate:
		// Triadic closure: link a vertex to a friend of a friend, the
		// way social graphs grow. Such an edge shortens few distances,
		// so the index does not drift far from the base graph during a
		// run; an edge between uniform endpoints may repair a large
		// share of the labels, and a handful of those would decide the
		// whole run's update latency.
		v := r.Int31n(p.n)
		req.edge = [2]int32{v, randomWalk(p.g, v, 2, r)}
	}
}

// httpRequest renders a request for the HTTP front end: method, path
// with query, and body (nil for GET). buf is reused for the body.
func httpRequest(req *request, buf []byte) (method, path string, body []byte) {
	switch req.op {
	case opDistance:
		return "GET", "/distance?s=" + itoa(req.s) + "&t=" + itoa(req.t), nil
	case opKNN:
		return "GET", "/knn?s=" + itoa(req.s) + "&k=" + strconv.Itoa(searchK), nil
	case opBatch:
		buf = append(buf[:0], `{"source":`...)
		buf = strconv.AppendInt(buf, int64(req.s), 10)
		buf = append(buf, `,"targets":[`...)
		for i, t := range req.targets {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(t), 10)
		}
		return "POST", "/batch", append(buf, "]}"...)
	case opQuery:
		buf = fmt.Appendf(buf[:0], `{"where":{"and":[{"near":{"source":%d,"max_dist":%d}},{"near":{"source":%d,"max_dist":%d}}]},"k":%d}`,
			req.s, queryRadius1, req.s2, queryRadius2, searchK)
		return "POST", "/query", buf
	case opUpdate:
		buf = fmt.Appendf(buf[:0], `{"edges":[[%d,%d]]}`, req.edge[0], req.edge[1])
		return "POST", "/update", buf
	}
	panic("unknown op")
}

func itoa(v int32) string { return strconv.FormatInt(int64(v), 10) }

// opKey identifies a request's arguments as the oracle sees them, so
// an oracle span can be matched to the handler span that caused it.
func opKey(req *request) uint64 {
	switch req.op {
	case opDistance:
		return argKey(opDistance, req.s, req.t)
	case opBatch:
		return argKey(opBatch, req.s, int32(len(req.targets)))
	case opKNN:
		return argKey(opKNN, req.s, searchK)
	case opQuery:
		return argKey(opQuery, req.s, req.s2)
	}
	return argKey(req.op, req.edge[0], req.edge[1])
}

func argKey(op opKind, a, b int32) uint64 {
	return uint64(op)<<60 ^ uint64(uint32(a))<<30 ^ uint64(uint32(b))
}
