package cluster

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// fuzzEndpoints are the endpoints both tiers serve, indexed by the
// fuzzer's first input.
var fuzzEndpoints = []struct{ method, path string }{
	{http.MethodGet, "/distance"},
	{http.MethodGet, "/path"},
	{http.MethodPost, "/batch"},
	{http.MethodGet, "/knn"},
	{http.MethodGet, "/range"},
	{http.MethodPost, "/nearest"},
	{http.MethodPost, "/query"},
}

// addFuzzSeed adds one table request as an (endpoint, query, body)
// seed.
func addFuzzSeed(f *testing.F, method, target, body string) {
	path, query, _ := strings.Cut(target, "?")
	for i, ep := range fuzzEndpoints {
		if ep.method == method && ep.path == path {
			f.Add(uint8(i), query, body)
			return
		}
	}
	f.Fatalf("no fuzz endpoint for %s %s", method, path)
}

// FuzzHandlers sends arbitrary query strings and bodies to every
// endpoint of a capped pool and asserts the coordinator answers
// exactly as a replica does: same status, same body, and never a 5xx
// or a panic.
func FuzzHandlers(f *testing.F) {
	for _, req := range conformanceRequests {
		addFuzzSeed(f, req.method, req.path, req.body)
	}
	for _, req := range fanoutCapRequests {
		addFuzzSeed(f, req.method, req.path, req.body)
	}
	urls, coord := startCappedPool(f)
	f.Fuzz(func(t *testing.T, ep uint8, query, body string) {
		e := fuzzEndpoints[int(ep)%len(fuzzEndpoints)]
		target := e.path
		if query != "" {
			target += "?" + query
		}
		if e.method == http.MethodGet {
			body = ""
		}
		send := func(base string) (int, string, bool) {
			req, err := http.NewRequest(e.method, base+target, strings.NewReader(body))
			if err != nil {
				return 0, "", false // a URL no client can send
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("%s %s: %v", e.method, base+target, err)
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp.StatusCode, string(data), true
		}
		ds, dbody, ok := send(urls[0])
		if !ok {
			return
		}
		cs, cbody, _ := send(coord.URL)
		if ds >= 500 || cs >= 500 {
			t.Fatalf("%s %s %q: 5xx (direct %d %q, coord %d %q)", e.method, target, body, ds, dbody, cs, cbody)
		}
		if cs != ds || cbody != dbody {
			t.Fatalf("%s %s %q: coordinator differs from direct:\n coord: %d %q\ndirect: %d %q", e.method, target, body, cs, cbody, ds, dbody)
		}
	})
}
