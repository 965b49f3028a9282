package core

import (
	"testing"

	"pll/internal/gen"
	"pll/internal/trace"
)

// TestProfiledEquivalence checks that the profiled entry points return
// byte-identical answers to the unprofiled ones — with and without a
// profile — and that a profile actually accumulates merge and scan
// counters.
func TestProfiledEquivalence(t *testing.T) {
	g := randomGraph(77, 60)
	ix := buildOrFail(t, g, Options{Seed: 77, NumBitParallel: 2})
	n := int32(g.NumVertices())

	p := &trace.QueryProfile{}
	targets := make([]int32, 0, n)
	for v := int32(0); v < n; v++ {
		targets = append(targets, v)
	}
	for s := int32(0); s < n; s++ {
		for u := int32(0); u < n; u++ {
			want := ix.Query(s, u)
			if got := ix.DistanceProfiled(s, u, nil); got != want {
				t.Fatalf("DistanceProfiled(%d,%d,nil) = %d, want %d", s, u, got, want)
			}
			if got := ix.DistanceProfiled(s, u, p); got != want {
				t.Fatalf("DistanceProfiled(%d,%d,p) = %d, want %d", s, u, got, want)
			}
		}
		plain := ix.DistanceFrom(s, targets, nil)
		prof := ix.DistanceFromProfiled(s, targets, nil, p)
		for i := range plain {
			if plain[i] != prof[i] {
				t.Fatalf("DistanceFromProfiled(%d)[%d] = %d, want %d", s, i, prof[i], plain[i])
			}
		}
		wantKNN := ix.KNN(s, 5)
		gotKNN := ix.KNNProfiled(s, 5, p)
		if len(wantKNN) != len(gotKNN) {
			t.Fatalf("KNNProfiled(%d) returned %d results, want %d", s, len(gotKNN), len(wantKNN))
		}
		for i := range wantKNN {
			if wantKNN[i] != gotKNN[i] {
				t.Fatalf("KNNProfiled(%d)[%d] = %v, want %v", s, i, gotKNN[i], wantKNN[i])
			}
		}
	}
	snap := p.Snapshot()
	if snap.MergeCalls == 0 || snap.MergeEntries == 0 {
		t.Fatalf("profile recorded no merges: %+v", snap)
	}
	if snap.ScanRuns == 0 || snap.ScanItems == 0 {
		t.Fatalf("profile recorded no scans: %+v", snap)
	}
}

// TestProfiledDynamic exercises the dynamic variant's profiled methods.
func TestProfiledDynamic(t *testing.T) {
	g := randomGraph(5, 40)
	di, err := BuildDynamic(g, Options{Seed: 5})
	if err != nil {
		t.Fatalf("BuildDynamic: %v", err)
	}
	n := int32(g.NumVertices())
	p := &trace.QueryProfile{}
	targets := []int32{0, n - 1, n / 2}
	for s := int32(0); s < n; s++ {
		for u := int32(0); u < n; u++ {
			if got, want := di.DistanceProfiled(s, u, p), di.Query(s, u); got != want {
				t.Fatalf("dynamic DistanceProfiled(%d,%d) = %d, want %d", s, u, got, want)
			}
		}
		plain := di.DistanceFrom(s, targets, nil)
		prof := di.DistanceFromProfiled(s, targets, nil, p)
		for i := range plain {
			if plain[i] != prof[i] {
				t.Fatalf("dynamic DistanceFromProfiled(%d)[%d] = %d, want %d", s, i, prof[i], plain[i])
			}
		}
	}
	if snap := p.Snapshot(); snap.MergeCalls == 0 {
		t.Fatalf("dynamic profile recorded no merges: %+v", snap)
	}
}

// TestDistanceFromProfiledEntries pins the merged-entry count of a
// profiled batch to what the kernel reads: |L(s)| + Σ|L(t)| plus one
// bit-parallel row for the source and one per target.
func TestDistanceFromProfiledEntries(t *testing.T) {
	g := gen.Path(6)
	ix := buildOrFail(t, g, Options{NumBitParallel: 2})
	if ix.NumBitParallelRoots() != 2 {
		t.Fatalf("built %d bit-parallel roots, want 2", ix.NumBitParallelRoots())
	}
	s, targets := int32(1), []int32{0, 3, 5, 5}
	want := int64(ix.LabelSize(s) + (len(targets)+1)*2)
	for _, v := range targets {
		want += int64(ix.LabelSize(v))
	}
	p := &trace.QueryProfile{}
	ix.DistanceFromProfiled(s, targets, nil, p)
	snap := p.Snapshot()
	if snap.MergeCalls != 1 || snap.MergeEntries != want {
		t.Fatalf("profile = %d calls, %d entries; want 1 call, %d entries", snap.MergeCalls, snap.MergeEntries, want)
	}
}
