package cluster

// Routing tests: rendezvous ranking is stable under pool changes, the
// search endpoints route on their canonical form (so equivalent
// requests share one replica's result cache), and distinct requests
// spread over the whole pool.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"pll/internal/gen"
	"pll/internal/server"
	"pll/pll"
)

func TestRendezvousRankStability(t *testing.T) {
	cfg := Config{Backends: []string{"http://a:1", "http://b:1", "http://c:1"}}
	bs := []*backend{
		newBackend("http://a:1", "a:1", cfg),
		newBackend("http://b:1", "b:1", cfg),
		newBackend("http://c:1", "c:1", cfg),
	}
	for _, b := range bs {
		b.healthy.Store(true)
	}
	c := &Coordinator{backends: bs}
	// Removing one backend must not remap keys it did not own: every
	// key ranked (x, y, ...) keeps x as its primary when a different
	// backend drops out.
	moved := 0
	const keys = 500
	for i := 0; i < keys; i++ {
		key := hashName(string(rune('k')) + string(rune(i)))
		full := c.rank(key)
		loser := full[len(full)-1]
		loser.healthy.Store(false)
		reduced := c.rank(key)
		loser.healthy.Store(true)
		if reduced[0] != full[0] {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d/%d keys changed primary when a non-primary backend dropped", moved, keys)
	}
}

// replicaStats is the slice of a replica's /stats the routing tests
// read: how many searches it served and its result-cache hits.
type replicaStats struct {
	Server struct {
		Searches   int64 `json:"searches"`
		Composites int64 `json:"composites"`
	} `json:"server"`
	Cache struct {
		Results struct {
			KNN   struct{ Hits int64 } `json:"knn"`
			Query struct{ Hits int64 } `json:"query"`
		} `json:"results"`
	} `json:"cache"`
}

func readReplicaStats(t *testing.T, urls []string) []replicaStats {
	t.Helper()
	out := make([]replicaStats, len(urls))
	for i, u := range urls {
		st, _, body := do(t, http.MethodGet, u+"/stats", "")
		if st != http.StatusOK {
			t.Fatalf("%s/stats: status %d", u, st)
		}
		if err := json.Unmarshal([]byte(body), &out[i]); err != nil {
			t.Fatalf("%s/stats: %v", u, err)
		}
	}
	return out
}

// TestRouteAffinityAndSpread pins the routing contract of the search
// endpoints. Two spellings of one request — swapped query parameters,
// or /query bodies differing only in whitespace and field order — reach
// the same replica, whose result cache answers the second; the other
// replicas see no search at all. And 64 distinct sources over 3
// replicas give every replica some of the work.
func TestRouteAffinityAndSpread(t *testing.T) {
	const n = 128
	gg := gen.ErdosRenyi(n, 320, 5)
	pg, err := pll.NewGraph(n, gg.Edges())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pll.Build(pg, pll.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	urls, _ := startReplicas(t, ix, 3, server.Config{CacheSize: 256})
	_, coord := startCoordinator(t, urls, func(c *Config) {
		// No hedge: a duplicate attempt would count as a search on a
		// second replica.
		c.HedgeAfter = time.Hour
	})

	for _, tc := range []struct {
		name    string
		method  string
		a, b    string // two spellings of one request: path or body
		knnSide bool
	}{
		{"knn-swapped-params", http.MethodGet, "/knn?s=5&k=3", "/knn?k=3&s=5", true},
		{"query-respelled-body", http.MethodPost,
			`{"where":{"near":{"source":0,"max_dist":2}},"k":5}`,
			` { "k" : 5, "where" : { "near" : { "max_dist" : 2, "source" : 0 } } }`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := readReplicaStats(t, urls)
			var bodies [2]string
			for i, spelling := range []string{tc.a, tc.b} {
				var st int
				if tc.knnSide {
					st, _, bodies[i] = do(t, tc.method, coord.URL+spelling, "")
				} else {
					st, _, bodies[i] = do(t, tc.method, coord.URL+"/query", spelling)
				}
				if st != http.StatusOK {
					t.Fatalf("spelling %d: status %d (%s)", i, st, bodies[i])
				}
			}
			if bodies[0] != bodies[1] {
				t.Fatalf("the two spellings answered differently:\n%q\n%q", bodies[0], bodies[1])
			}
			after := readReplicaStats(t, urls)
			serving := -1
			for i := range urls {
				searches := after[i].Server.Searches - before[i].Server.Searches
				hits := after[i].Cache.Results.KNN.Hits - before[i].Cache.Results.KNN.Hits
				if !tc.knnSide {
					searches = after[i].Server.Composites - before[i].Server.Composites
					hits = after[i].Cache.Results.Query.Hits - before[i].Cache.Results.Query.Hits
				}
				if searches == 0 {
					continue
				}
				if searches != 2 || serving >= 0 {
					t.Fatalf("replica %d served %d of the 2 spellings; they must share one replica and no other", i, searches)
				}
				if hits != 1 {
					t.Fatalf("replica %d served both spellings with %d result-cache hits, want 1", i, hits)
				}
				serving = i
			}
			if serving < 0 {
				t.Fatal("no replica served both spellings")
			}
		})
	}

	before := readReplicaStats(t, urls)
	for s := 0; s < 64; s++ {
		if st, _, body := do(t, http.MethodGet, fmt.Sprintf("%s/knn?s=%d&k=4", coord.URL, s), ""); st != http.StatusOK {
			t.Fatalf("knn s=%d: status %d (%s)", s, st, body)
		}
	}
	after := readReplicaStats(t, urls)
	total := int64(0)
	for i := range urls {
		served := after[i].Server.Searches - before[i].Server.Searches
		if served == 0 {
			t.Fatalf("replica %d served none of 64 distinct sources: routing does not spread", i)
		}
		total += served
	}
	if total != 64 {
		t.Fatalf("replicas served %d searches for 64 requests, want exactly one replica per request", total)
	}
}

// BenchmarkCoordinatorKNN is the L4 ladder row: /knn through an
// in-process coordinator over 2 loopback replicas with result caches,
// cycling over the 48 sources of the test graph, so every timed
// request is a replica cache hit. ns/op and allocs/op cover the whole
// process: the client, the coordinator and the replicas.
func BenchmarkCoordinatorKNN(b *testing.B) {
	o := buildOracle(b, "undirected")
	urls, _ := startReplicas(b, o, 2, server.Config{CacheSize: 4096})
	_, coord := startCoordinator(b, urls, nil)
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}}
	b.Cleanup(client.CloseIdleConnections)
	paths := make([]string, 48)
	for i := range paths {
		paths[i] = fmt.Sprintf("%s/knn?s=%d&k=10", coord.URL, i)
	}
	get := func(url string) {
		resp, err := client.Get(url)
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained for keep-alive only
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("%s: status %d", url, resp.StatusCode)
		}
	}
	for _, p := range paths {
		get(p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get(paths[i%len(paths)])
	}
}
