package core

// Container round trips and load-time rejection: every variant's
// WriteTo must heap-load back through LoadAny with identical answers,
// and malformed input must fail with ErrBadIndexFile, never a panic.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"pll/internal/gen"
)

// loadAs heap-loads a container and checks the oracle's type.
func loadAs[T any](t *testing.T, data []byte) T {
	t.Helper()
	o, err := LoadAny(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("LoadAny: %v", err)
	}
	ix, ok := o.(T)
	if !ok {
		t.Fatalf("LoadAny returned %T", o)
	}
	return ix
}

// writeContainerFile writes an index's container to a fresh file.
func writeContainerFile(t *testing.T, wt io.WriterTo) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ix.pllbox")
	if err := os.WriteFile(path, containerBytes(t, wt), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// expectBadIndex asserts that LoadAny rejects data with ErrBadIndexFile.
func expectBadIndex(t *testing.T, what string, data []byte) {
	t.Helper()
	if _, err := LoadAny(bytes.NewReader(data)); !errors.Is(err, ErrBadIndexFile) {
		t.Fatalf("%s: err = %v, want ErrBadIndexFile", what, err)
	}
}

// permOffset locates the first section payload (the permutation).
func permOffset(data []byte) int {
	nsec := int(binary.LittleEndian.Uint32(data[24:28]))
	return (containerHeaderSize + flatHeaderSize + flatSectionSize*nsec + 7) &^ 7
}

func TestSaveLoadRoundTrip(t *testing.T) {
	g := gen.BarabasiAlbert(150, 3, 7)
	ix := buildOrFail(t, g, Options{NumBitParallel: 4, Seed: 2})
	loaded := loadAs[*Index](t, containerBytes(t, ix))
	if loaded.NumVertices() != 150 || loaded.NumBitParallelRoots() != 4 {
		t.Fatalf("loaded header wrong: n=%d bp=%d", loaded.NumVertices(), loaded.NumBitParallelRoots())
	}
	for _, p := range randPairs(150, 400, 5) {
		if ix.Query(p[0], p[1]) != loaded.Query(p[0], p[1]) {
			t.Fatalf("query mismatch after round trip at (%d,%d)", p[0], p[1])
		}
	}
	if loaded.ComputeStats() != ix.ComputeStats() {
		t.Fatal("stats changed through round trip")
	}
}

func TestSaveLoadWithParents(t *testing.T) {
	g := gen.BarabasiAlbert(80, 2, 9)
	ix := buildOrFail(t, g, Options{StorePaths: true, Seed: 1})
	loaded := loadAs[*Index](t, containerBytes(t, ix))
	if !loaded.HasPaths() {
		t.Fatal("parent pointers lost in round trip")
	}
	for _, p := range randPairs(80, 60, 3) {
		want, err1 := ix.QueryPath(p[0], p[1])
		got, err2 := loaded.QueryPath(p[0], p[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("path errors: %v %v", err1, err2)
		}
		if len(want) != len(got) {
			t.Fatalf("path length changed: %d vs %d", len(want), len(got))
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	ix := buildOrFail(t, gen.Path(20), Options{})
	o, err := LoadAnyFile(writeContainerFile(t, ix))
	if err != nil {
		t.Fatal(err)
	}
	if o.(*Index).Query(0, 19) != 19 {
		t.Fatal("loaded index answers wrong")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadAnyFile(filepath.Join(t.TempDir(), "missing.pll")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	expectBadIndex(t, "bad magic", []byte("NOTANIDX0000000000000000000000000000"))
}

func TestLoadRejectsEmpty(t *testing.T) {
	expectBadIndex(t, "empty input", nil)
}

func TestLoadRejectsTruncationEverywhere(t *testing.T) {
	// Chop a valid container at many byte offsets; every prefix must be
	// rejected with ErrBadIndexFile (and must not panic).
	g := gen.BarabasiAlbert(40, 2, 3)
	full := containerBytes(t, buildOrFail(t, g, Options{NumBitParallel: 2}))
	for cut := 0; cut < len(full)-1; cut += 97 {
		expectBadIndex(t, "truncated container", full[:cut])
	}
}

func TestLoadRejectsCorruptPermutation(t *testing.T) {
	data := containerBytes(t, buildOrFail(t, gen.Path(10), Options{}))
	copy(data[permOffset(data):], []byte{0xff, 0xff, 0xff, 0x7f}) // out of range
	expectBadIndex(t, "corrupt permutation", data)
}

func TestLoadRejectsUnknownFlags(t *testing.T) {
	good := containerBytes(t, buildOrFail(t, gen.Path(5), Options{}))
	// Bit 0 marked the retired compressed payload; it is unassigned now.
	for _, bit := range []uint8{0x01, 0x80} {
		data := append([]byte(nil), good...)
		data[11] |= bit
		expectBadIndex(t, "unknown container flag", data)
	}
}

func TestLoadRejectsImplausibleSizes(t *testing.T) {
	// A flat header claiming n = 2^40 vertices (or a huge section table)
	// must be rejected before any allocation is attempted.
	hdr := ContainerHeader{Version: ContainerVersion, Variant: VariantUndirected}.encode()
	flat := make([]byte, flatHeaderSize)
	binary.LittleEndian.PutUint64(flat[0:8], 1<<40)
	expectBadIndex(t, "n = 2^40", append(hdr[:], flat...))
	binary.LittleEndian.PutUint64(flat[0:8], 1)
	binary.LittleEndian.PutUint32(flat[8:12], 1<<20)
	expectBadIndex(t, "2^20 sections", append(hdr[:], flat...))
	// Implausible bit-parallel root count on an otherwise valid file.
	data := containerBytes(t, buildOrFail(t, gen.Path(5), Options{NumBitParallel: 1}))
	binary.LittleEndian.PutUint32(data[12:16], 1<<17)
	expectBadIndex(t, "numBP = 2^17", data)
}

func TestWeightedSaveLoadRoundTrip(t *testing.T) {
	wg := randomWeightedGraph(3, 80, 15)
	ix, err := BuildWeighted(wg, WeightedOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	loaded := loadAs[*WeightedIndex](t, containerBytes(t, ix))
	for _, p := range randPairs(wg.NumVertices(), 300, 9) {
		if ix.Query(p[0], p[1]) != loaded.Query(p[0], p[1]) {
			t.Fatalf("weighted round trip mismatch at (%d,%d)", p[0], p[1])
		}
	}
}

func TestWeightedSaveLoadFile(t *testing.T) {
	wg := randomWeightedGraph(5, 40, 9)
	ix, err := BuildWeighted(wg, WeightedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o, err := LoadAnyFile(writeContainerFile(t, ix))
	if err != nil {
		t.Fatal(err)
	}
	if o.(*WeightedIndex).NumVertices() != wg.NumVertices() {
		t.Fatal("vertex count lost")
	}
}

func TestWeightedLoadRejectsCorruption(t *testing.T) {
	ix, err := BuildWeighted(randomWeightedGraph(7, 40, 9), WeightedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full := containerBytes(t, ix)
	bad := append([]byte(nil), full...)
	bad[3] = 'X'
	expectBadIndex(t, "bad magic", bad)
	for cut := 0; cut < len(full)-1; cut += 71 {
		expectBadIndex(t, "truncated container", full[:cut])
	}
}

func TestDirectedSaveLoadRoundTrip(t *testing.T) {
	g := gen.RandomDigraph(70, 300, 3)
	ix, err := BuildDirected(g, DirectedOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	loaded := loadAs[*DirectedIndex](t, containerBytes(t, ix))
	for _, p := range randPairs(70, 300, 11) {
		if ix.Query(p[0], p[1]) != loaded.Query(p[0], p[1]) {
			t.Fatalf("directed round trip mismatch at (%d,%d)", p[0], p[1])
		}
	}
}

func TestDirectedSaveLoadFile(t *testing.T) {
	ix, err := BuildDirected(gen.RandomDigraph(30, 100, 5), DirectedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o, err := LoadAnyFile(writeContainerFile(t, ix))
	if err != nil {
		t.Fatal(err)
	}
	if o.(*DirectedIndex).NumVertices() != 30 {
		t.Fatal("vertex count lost")
	}
}

func TestDirectedLoadRejectsCorruption(t *testing.T) {
	ix, err := BuildDirected(gen.RandomDigraph(40, 150, 7), DirectedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full := containerBytes(t, ix)
	bad := append([]byte(nil), full...)
	bad[7] = '9'
	expectBadIndex(t, "bad magic", bad)
	for cut := 0; cut < len(full)-1; cut += 83 {
		expectBadIndex(t, "truncated container", full[:cut])
	}
}

func TestFormatsRejectCrossLoading(t *testing.T) {
	// A weighted container re-tagged as another variant must not load:
	// the sections it carries do not match the tag.
	wix, err := BuildWeighted(randomWeightedGraph(9, 30, 5), WeightedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	good := containerBytes(t, wix)
	for _, v := range []Variant{VariantUndirected, VariantDirected, VariantDynamic} {
		data := append([]byte(nil), good...)
		data[10] = uint8(v)
		expectBadIndex(t, "weighted container tagged "+v.String(), data)
	}
}
