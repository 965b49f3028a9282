package pll_test

// Container-format tests: every variant's WriteTo must round-trip
// through the single pll.Load entry point, the header must be honest
// about the variant, and malformed headers must be rejected with
// ErrBadIndexFile rather than a panic or a misparse.

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"pll/internal/gen"
	"pll/internal/rng"
	"pll/pll"
)

// testGraph is a small scale-free stand-in shared by the round-trip
// tests; deterministic seed so failures reproduce.
func testGraph(t *testing.T) *pll.Graph {
	t.Helper()
	raw := gen.BarabasiAlbert(300, 3, 42)
	g, err := pll.NewGraph(raw.NumVertices(), raw.Edges())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// roundTrip serializes o, loads it back through the unified Load, and
// checks the loaded oracle agrees with the original on random pairs.
func roundTrip(t *testing.T, o pll.Oracle, wantVariant pll.Variant) pll.Oracle {
	t.Helper()
	var buf bytes.Buffer
	n, err := o.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	loaded, err := pll.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.NumVertices() != o.NumVertices() {
		t.Fatalf("loaded n=%d, want %d", loaded.NumVertices(), o.NumVertices())
	}
	r := rng.New(7)
	nv := int32(o.NumVertices())
	for i := 0; i < 200; i++ {
		s, u := r.Int31n(nv), r.Int31n(nv)
		if got, want := loaded.Distance(s, u), o.Distance(s, u); got != want {
			t.Fatalf("distance mismatch after round trip at (%d,%d): %d vs %d", s, u, got, want)
		}
	}
	if v := loaded.Stats().Variant; wantVariant != 0 && v != wantVariant {
		t.Fatalf("loaded variant = %s, want %s", v, wantVariant)
	}
	return loaded
}

func TestContainerRoundTripPlain(t *testing.T) {
	ix, err := pll.BuildIndex(testGraph(t), pll.WithBitParallel(4), pll.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, ix, pll.VariantUndirected)
}

func TestContainerRoundTripPaths(t *testing.T) {
	ix, err := pll.BuildIndex(testGraph(t), pll.WithPaths(), pll.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	loaded := roundTrip(t, ix, pll.VariantUndirected)
	if !loaded.Stats().HasParentPointers {
		t.Fatal("parent pointers lost in round trip")
	}
	p, err := loaded.Path(0, int32(ix.NumVertices()-1))
	if err != nil {
		t.Fatal(err)
	}
	if len(p) == 0 {
		t.Fatal("loaded path-reconstructing index returned empty path")
	}
}

func TestContainerRoundTripDirected(t *testing.T) {
	raw := gen.BarabasiAlbert(300, 3, 9)
	g, err := pll.NewDigraph(raw.NumVertices(), raw.Edges())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pll.BuildDirected(g, pll.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, ix, pll.VariantDirected)
}

func TestContainerRoundTripWeighted(t *testing.T) {
	raw := gen.BarabasiAlbert(300, 3, 11)
	r := rng.New(5)
	var wedges []pll.WeightedEdge
	for _, e := range raw.Edges() {
		wedges = append(wedges, pll.WeightedEdge{U: e.U, V: e.V, Weight: uint32(r.Intn(20) + 1)})
	}
	g, err := pll.NewWeightedGraph(raw.NumVertices(), wedges)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pll.BuildWeighted(g, pll.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	roundTrip(t, ix, pll.VariantWeighted)
}

func TestContainerRoundTripDynamicFrozen(t *testing.T) {
	g := testGraph(t)
	di, err := pll.BuildDynamic(g, pll.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(13)
	n := int32(g.NumVertices())
	for i := 0; i < 30; i++ {
		if _, err := di.InsertEdge(r.Int31n(n), r.Int31n(n)); err != nil {
			t.Fatal(err)
		}
	}
	// A dynamic container loads back as a static snapshot answering the
	// same distances; Stats keep the dynamic provenance tag.
	loaded := roundTrip(t, di, pll.VariantDynamic)
	if _, ok := loaded.(*pll.Index); !ok {
		t.Fatalf("frozen dynamic index loaded as %T, want *pll.Index", loaded)
	}
	// Freezing explicitly keeps the tag too.
	roundTrip(t, di.Freeze(), pll.VariantDynamic)
}

// Every written file must load through LoadFile too, and the typed
// LoadIndexFile must reject another variant's file.
func TestContainerFileRoundTripAndVariantMismatch(t *testing.T) {
	g := testGraph(t)
	ix, err := pll.BuildIndex(g, pll.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ix.pllbox")
	if err := pll.WriteFlatFile(path, ix); err != nil {
		t.Fatal(err)
	}
	o, err := pll.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if o.Distance(0, 5) != ix.Distance(0, 5) {
		t.Fatal("file round trip mismatch")
	}
	dg, err := pll.NewDigraph(3, []pll.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	dix, err := pll.BuildDirected(dg)
	if err != nil {
		t.Fatal(err)
	}
	dpath := filepath.Join(dir, "directed.pllbox")
	if err := pll.WriteFlatFile(dpath, dix); err != nil {
		t.Fatal(err)
	}
	if _, err := pll.LoadIndexFile(dpath); err == nil || !strings.Contains(err.Error(), "directed") {
		t.Fatalf("LoadIndexFile(directed container): got %v, want an error naming the variant", err)
	}
}

// A WriteTo that cannot serialize (parent pointers on variants whose
// payload lacks them) must fail before emitting any bytes, so a failed
// save never leaves a partial header on the destination.
func TestContainerWriteToFailsBeforeWriting(t *testing.T) {
	dg, err := pll.NewDigraph(3, []pll.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	dix, err := pll.BuildDirected(dg, pll.WithPaths())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if n, err := dix.WriteTo(&buf); err == nil || n != 0 || buf.Len() != 0 {
		t.Fatalf("directed WithPaths WriteTo: n=%d len=%d err=%v, want 0 bytes and an error", n, buf.Len(), err)
	}
	wg, err := pll.NewWeightedGraph(3, []pll.WeightedEdge{{U: 0, V: 1, Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	wix, err := pll.BuildWeighted(wg, pll.WithPaths())
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if n, err := wix.WriteTo(&buf); err == nil || n != 0 || buf.Len() != 0 {
		t.Fatalf("weighted WithPaths WriteTo: n=%d len=%d err=%v, want 0 bytes and an error", n, buf.Len(), err)
	}
}

func TestContainerRejectsCorruptHeaders(t *testing.T) {
	ix, err := pll.BuildIndex(testGraph(t), pll.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(name string, mutate func(b []byte) []byte) {
		b := append([]byte(nil), good...)
		b = mutate(b)
		if _, err := pll.Load(bytes.NewReader(b)); !errors.Is(err, pll.ErrBadIndexFile) {
			t.Errorf("%s: got %v, want ErrBadIndexFile", name, err)
		}
	}
	corrupt("empty input", func(b []byte) []byte { return nil })
	corrupt("truncated header", func(b []byte) []byte { return b[:10] })
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("unknown version", func(b []byte) []byte { b[8], b[9] = 0xFF, 0xFF; return b })
	corrupt("unknown variant", func(b []byte) []byte { b[10] = 99; return b })
	corrupt("unknown flags", func(b []byte) []byte { b[11] |= 0x80; return b })
	corrupt("retired compressed flag", func(b []byte) []byte { b[11] |= 0x01; return b })
	corrupt("truncated payload", func(b []byte) []byte { return b[:len(b)-5] })
	corrupt("variant/payload mismatch", func(b []byte) []byte { b[10] = 3; return b }) // weighted tag, plain payload
}
