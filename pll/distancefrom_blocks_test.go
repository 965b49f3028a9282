package pll_test

// Block-boundary conformance for DistanceFrom: the undirected kernel
// stages targets in fixed blocks, so batches just below, at and above
// a block multiple must answer exactly like per-pair Distance and like
// BFS, with repeated targets, the source itself among the targets, and
// pairs in different components.

import (
	"fmt"
	"path/filepath"
	"testing"

	"pll/internal/bfs"
	"pll/internal/gen"
	"pll/internal/graph"
	"pll/internal/rng"
	"pll/pll"
)

// twoComponents returns BarabasiAlbert(400, 3) on vertices [0,400) and
// BarabasiAlbert(200, 2) on [400,600), with no edge between them.
func twoComponents(t *testing.T) *graph.Graph {
	t.Helper()
	a, b := gen.BarabasiAlbert(400, 3, 11), gen.BarabasiAlbert(200, 2, 12)
	edges := a.Edges()
	off := int32(a.NumVertices())
	for _, e := range b.Edges() {
		edges = append(edges, graph.Edge{U: e.U + off, V: e.V + off})
	}
	g, err := graph.NewGraph(a.NumVertices()+b.NumVertices(), edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDistanceFromBlocks(t *testing.T) {
	g := twoComponents(t)
	n := int32(g.NumVertices())
	pg, err := pll.NewGraph(g.NumVertices(), g.Edges())
	if err != nil {
		t.Fatal(err)
	}
	sources := []int32{0, 7, 399, 400, n - 1}
	truth := make(map[int32][]int32, len(sources))
	for _, s := range sources {
		truth[s] = bfs.AllDistances(g, s)
	}
	for _, bp := range []int{0, 16} {
		ix, err := pll.Build(pg, pll.WithBitParallel(bp))
		if err != nil {
			t.Fatal(err)
		}
		if got := ix.Stats().NumBitParallel; got != bp {
			t.Fatalf("built %d bit-parallel roots, want %d", got, bp)
		}
		path := filepath.Join(t.TempDir(), fmt.Sprintf("blocks-bp%d.pllbox", bp))
		if err := pll.WriteFlatFile(path, ix); err != nil {
			t.Fatal(err)
		}
		fi, err := pll.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fi.Close() })
		for _, tc := range []flatCase{
			{"heap", ix},
			{"flat", fi},
			{"concurrent", pll.NewConcurrentOracle(ix)},
		} {
			t.Run(fmt.Sprintf("bp%d/%s", bp, tc.name), func(t *testing.T) {
				b := tc.oracle.(pll.Batcher)
				var dst []int64
				for _, count := range []int{0, 1, 63, 64, 65, 128, 129, 1000} {
					for _, s := range sources {
						targets := blockTargets(s, count, n, uint64(count)*1009+uint64(s))
						dst = b.DistanceFrom(s, targets, dst)
						if len(dst) != count {
							t.Fatalf("DistanceFrom(%d, %d targets) returned %d distances", s, count, len(dst))
						}
						for i, tv := range targets {
							want := int64(truth[s][tv])
							if truth[s][tv] == bfs.Unreachable {
								want = pll.Unreachable
							}
							if dst[i] != want {
								t.Fatalf("%d targets: DistanceFrom(%d)[%d] (target %d) = %d, BFS %d", count, s, i, tv, dst[i], want)
							}
							if d := tc.oracle.Distance(s, tv); d != want {
								t.Fatalf("Distance(%d,%d) = %d, BFS %d", s, tv, d, want)
							}
						}
					}
				}
			})
		}
	}
}

// blockTargets draws count targets uniformly over [0,n), so a third
// of them lie in the other component, then plants the source at a
// seeded position and at the last one, and repeats an earlier target.
func blockTargets(s int32, count int, n int32, seed uint64) []int32 {
	r := rng.New(seed)
	targets := make([]int32, count)
	for i := range targets {
		targets[i] = r.Int31n(n)
	}
	if count == 0 {
		return targets
	}
	targets[r.Intn(count)] = s
	if count > 1 {
		i := r.Intn(count-1) + 1
		targets[i] = targets[r.Intn(i)]
	}
	targets[count-1] = s
	return targets
}
