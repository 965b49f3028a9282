package pll_test

// Native fuzz target for the container parser behind pll.Load. The
// contract under test: any input either loads successfully or fails
// with an error wrapping ErrBadIndexFile — never a panic, never an
// unbounded allocation (see allocChunk in internal/core/container.go).
// The seed corpus holds a container of every variant, with and without
// the search sections, plus files in the retired formats, so mutations
// explore both the flat parser and the rejection path.
//
// CI runs a short coverage-guided session (-fuzz=FuzzLoad -fuzztime=30s,
// see .github/workflows/ci.yml); plain `go test` replays the corpus.

import (
	"bytes"
	"errors"
	"testing"

	"pll/pll"
)

// fuzzCorpus serializes one index per variant and search option, each
// also without its 16-byte container header (which Load must reject),
// and appends a version-1 header on every variant plus the retired
// formats of TestOpenRejectsNonFlat.
func fuzzCorpus(f *testing.F) [][]byte {
	f.Helper()
	edges := []pll.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}, {U: 1, V: 4}, {U: 4, V: 5}}
	g, err := pll.NewGraph(7, edges) // vertex 6 isolated: exercises empty labels
	if err != nil {
		f.Fatal(err)
	}
	dg, err := pll.NewDigraph(6, edges)
	if err != nil {
		f.Fatal(err)
	}
	wedges := make([]pll.WeightedEdge, len(edges))
	for i, e := range edges {
		wedges[i] = pll.WeightedEdge{U: e.U, V: e.V, Weight: uint32(i%3 + 1)}
	}
	wg, err := pll.NewWeightedGraph(6, wedges)
	if err != nil {
		f.Fatal(err)
	}
	var oracles []pll.Oracle
	add := func(o pll.Oracle, err error) {
		if err != nil {
			f.Fatal(err)
		}
		oracles = append(oracles, o)
	}
	add(pll.BuildIndex(g, pll.WithBitParallel(2)))
	add(pll.BuildIndex(g, pll.WithBitParallel(0)))
	add(pll.BuildIndex(g, pll.WithPaths()))
	add(pll.BuildDirected(dg))
	add(pll.BuildWeighted(wg))
	add(pll.BuildDynamic(g))

	var out, v1 [][]byte
	for _, opts := range [][]pll.FlatOption{nil, {pll.FlatSearch()}} {
		for _, o := range oracles {
			var buf bytes.Buffer
			if _, err := pll.WriteFlat(&buf, o, opts...); err != nil {
				f.Fatal(err)
			}
			b := buf.Bytes()
			out = append(out, b, b[16:])
			if opts == nil {
				old := append([]byte(nil), b...)
				old[8] = 1 // container version 1
				v1 = append(v1, old)
			}
		}
	}
	out = append(out, v1...)
	for _, tc := range retiredFormats {
		out = append(out, retiredFormatBytes(f, tc.hex))
	}
	return out
}

func FuzzLoad(f *testing.F) {
	for _, b := range fuzzCorpus(f) {
		f.Add(b)
		// A few deterministic malformations as extra seeds: truncations
		// and single-byte corruption in the header region.
		if len(b) > 20 {
			f.Add(b[:len(b)/2])
			f.Add(b[:17])
			mut := append([]byte(nil), b...)
			mut[9] ^= 0xff // container version / payload header byte
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add([]byte("PLLBOX\x00\x00"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		o, err := pll.Load(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, pll.ErrBadIndexFile) {
				t.Fatalf("Load error does not wrap ErrBadIndexFile: %v", err)
			}
			return
		}
		if o == nil {
			t.Fatal("Load returned nil oracle without error")
		}
		// A successful load must yield a structurally usable oracle:
		// stats and a couple of queries must not panic. (Bound n so a
		// fuzzer-grown giant header cannot make the check itself slow.)
		n := o.NumVertices()
		if n < 0 {
			t.Fatalf("negative vertex count %d", n)
		}
		if n > 0 && n <= 1<<12 {
			_ = o.Stats()
			_ = o.Distance(0, int32(n-1))
			var buf bytes.Buffer
			if _, err := o.WriteTo(&buf); err != nil {
				// Round-tripping a loaded index may only fail for
				// unserializable features, never crash; directed and
				// weighted paths cannot be loaded, so no error is
				// acceptable here.
				t.Fatalf("re-serializing a loaded index failed: %v", err)
			}
		}
	})
}
