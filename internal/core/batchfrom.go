package core

// Single-source batch distance engines: DistanceFrom(s, targets, dst)
// answers |targets| queries sharing the source s with the source-side
// label expanded into a rank-indexed array once (the §4.5 "Querying"
// technique the paper uses during construction), so each target costs
// one scan of its own label instead of a full merge join — the §4
// merge-join amortization for the paper's one-to-many workloads
// (socially-sensitive search, context-aware ranking).
//
// Every variant implements the same contract:
//
//   - dst is reused when its capacity suffices, and the returned slice
//     has len(targets), dst[i] = d(s, targets[i]).
//   - Distances follow the Oracle convention: int64, Unreachable (-1)
//     for disconnected pairs.
//   - Out-of-range vertices panic, mirroring Query; validate first.
//
// Scratch arrays (O(n) each) are recycled through per-index sync.Pools,
// so concurrent batches on immutable variants are safe and allocation-
// free in steady state.
//
// The undirected engine stages its targets in blocks of batchBlock.
// Once the source label is pinned the scan itself is cheap; what costs
// is memory latency (EXPERIMENTS.md, "Batch throughput"). Each target
// walks a dependent chain rank[t] -> labelOff[rt] -> its label and
// bit-parallel rows, and the scan's data-dependent branches keep the
// next target's loads from issuing until the current scan ends. So each
// block is taken in three passes: load every target's rank, then touch
// the first word of every target's label and bit-parallel rows
// (independent loads the CPU overlaps), then run the unchanged
// BatchSource.Query per target, which now finds its lines in cache.
// Answers are Query's by construction.

import "sync"

// ensureI64 returns dst resized to n entries, reusing its capacity.
func ensureI64(dst []int64, n int) []int64 {
	if cap(dst) < n {
		return make([]int64, n)
	}
	return dst[:n]
}

// DistanceFrom answers a single-source batch: dst[i] = d(s, targets[i])
// with the Oracle convention (-1 unreachable). The source's normal and
// bit-parallel labels are pinned once; each target then costs one label
// scan. Safe for concurrent use.
func (ix *Index) DistanceFrom(s int32, targets []int32, dst []int64) []int64 {
	dst = ensureI64(dst, len(targets))
	if len(targets) == 0 {
		return dst
	}
	bs, _ := ix.batchPool.Get().(*BatchSource)
	if bs == nil {
		bs = ix.NewBatchSource(s)
	} else {
		bs.Reset(s)
	}
	var ranks [batchBlock]int32
	for lo := 0; lo < len(targets); lo += batchBlock {
		block := targets[lo:min(lo+batchBlock, len(targets))]
		for i, t := range block {
			ranks[i] = ix.rank[t]
		}
		bs.touch(ranks[:len(block)])
		for i, t := range block {
			dst[lo+i] = int64(bs.Query(t))
		}
	}
	ix.batchPool.Put(bs)
	return dst
}

// batchBlock is how many targets DistanceFrom stages at a time: enough
// independent misses to keep the memory system busy, few enough that
// the touched lines are still in cache when Query reaches them.
const batchBlock = 64

// touch loads the first word of each ranked vertex's label and
// bit-parallel rows, so the misses of a whole block overlap instead of
// being paid one Query at a time. The loaded values are folded into
// b.sink so the compiler cannot drop the loads.
func (b *BatchSource) touch(ranks []int32) {
	ix := b.ix
	var acc uint64
	for _, rt := range ranks {
		off := ix.labelOff[rt]
		acc += uint64(ix.labelVertex[off]) + uint64(ix.labelDist[off])
		if ix.numBP > 0 {
			ob := int(rt) * ix.numBP
			acc += uint64(ix.bpDist[ob]) + ix.bpS1[ob] + ix.bpS0[ob]
		}
	}
	b.sink += acc
}

// rankScratch8 is the pooled T array of one 8-bit-distance batch:
// t[w] = distance from the source to hub rank w, InfDist if absent.
type rankScratch8 struct {
	t      []uint8
	loaded []int32
}

func getScratch8(pool *sync.Pool, n int) *rankScratch8 {
	sc, _ := pool.Get().(*rankScratch8)
	if sc == nil {
		sc = &rankScratch8{t: make([]uint8, n+1)}
		for i := range sc.t {
			sc.t[i] = InfDist
		}
	}
	return sc
}

func (sc *rankScratch8) release(pool *sync.Pool) {
	for _, w := range sc.loaded {
		sc.t[w] = InfDist
	}
	sc.loaded = sc.loaded[:0]
	pool.Put(sc)
}

// DistanceFrom answers a single-source directed batch:
// dst[i] = d(s, targets[i]) (directed, -1 unreachable). L_OUT(s) is
// expanded once; each target costs one scan of L_IN(target). Safe for
// concurrent use.
func (ix *DirectedIndex) DistanceFrom(s int32, targets []int32, dst []int64) []int64 {
	dst = ensureI64(dst, len(targets))
	if len(targets) == 0 {
		return dst
	}
	rs := ix.rank[s]
	sc := getScratch8(&ix.batchPool, ix.n)
	lo, hi := ix.outOff[rs], ix.outOff[rs+1]-1
	for i := lo; i < hi; i++ {
		w := ix.outVertex[i]
		sc.t[w] = ix.outDist[i]
		sc.loaded = append(sc.loaded, w)
	}
	for k, tv := range targets {
		if tv == s {
			dst[k] = 0
			continue
		}
		rt := ix.rank[tv]
		best := infQuery
		jlo, jhi := ix.inOff[rt], ix.inOff[rt+1]-1
		for j := jlo; j < jhi; j++ {
			if tw := sc.t[ix.inVertex[j]]; tw != InfDist {
				if d := int(tw) + int(ix.inDist[j]); d < best {
					best = d
				}
			}
		}
		if best >= infQuery {
			dst[k] = Unreachable
		} else {
			dst[k] = int64(best)
		}
	}
	sc.release(&ix.batchPool)
	return dst
}

// rankScratch32 is the 32-bit-distance T array of one weighted batch.
type rankScratch32 struct {
	t      []uint32
	loaded []int32
}

// DistanceFrom answers a single-source weighted batch:
// dst[i] = d(s, targets[i]) as summed edge weights, -1 unreachable.
// Safe for concurrent use.
func (ix *WeightedIndex) DistanceFrom(s int32, targets []int32, dst []int64) []int64 {
	dst = ensureI64(dst, len(targets))
	if len(targets) == 0 {
		return dst
	}
	rs := ix.rank[s]
	sc, _ := ix.batchPool.Get().(*rankScratch32)
	if sc == nil {
		sc = &rankScratch32{t: make([]uint32, ix.n+1)}
		for i := range sc.t {
			sc.t[i] = InfWeight32
		}
	}
	lo, hi := ix.labelOff[rs], ix.labelOff[rs+1]-1
	for i := lo; i < hi; i++ {
		w := ix.labelVertex[i]
		sc.t[w] = ix.labelDist[i]
		sc.loaded = append(sc.loaded, w)
	}
	for k, tv := range targets {
		if tv == s {
			dst[k] = 0
			continue
		}
		rt := ix.rank[tv]
		best := UnreachableW
		jlo, jhi := ix.labelOff[rt], ix.labelOff[rt+1]-1
		for j := jlo; j < jhi; j++ {
			if tw := sc.t[ix.labelVertex[j]]; tw != InfWeight32 {
				if d := uint64(tw) + uint64(ix.labelDist[j]); d < best {
					best = d
				}
			}
		}
		if best == UnreachableW {
			dst[k] = Unreachable
		} else {
			dst[k] = int64(best)
		}
	}
	for _, w := range sc.loaded {
		sc.t[w] = InfWeight32
	}
	sc.loaded = sc.loaded[:0]
	ix.batchPool.Put(sc)
	return dst
}

// DistanceFrom answers a single-source batch over the current labels
// (-1 unreachable). Like every DynamicIndex read it may run under a
// ConcurrentOracle read lock concurrently with other reads, so the
// scratch is pooled rather than owned.
func (di *DynamicIndex) DistanceFrom(s int32, targets []int32, dst []int64) []int64 {
	dst = ensureI64(dst, len(targets))
	if len(targets) == 0 {
		return dst
	}
	rs := di.rank[s]
	sc := getScratch8(&di.batchPool, di.n)
	sv, sd := di.labV[rs], di.labD[rs]
	for i, w := range sv {
		sc.t[w] = sd[i]
		sc.loaded = append(sc.loaded, w)
	}
	for k, tv := range targets {
		if tv == s {
			dst[k] = 0
			continue
		}
		rt := di.rank[tv]
		best := infQuery
		bv, bd := di.labV[rt], di.labD[rt]
		for j, w := range bv {
			if tw := sc.t[w]; tw != InfDist {
				if d := int(tw) + int(bd[j]); d < best {
					best = d
				}
			}
		}
		if best >= infQuery {
			dst[k] = Unreachable
		} else {
			dst[k] = int64(best)
		}
	}
	sc.release(&di.batchPool)
	return dst
}
