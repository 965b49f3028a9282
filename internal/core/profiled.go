package core

// Profiled query entry points: each variant's Distance / DistanceFrom /
// KNN with a per-query profile threaded through. The profiled methods
// time the label-merge or hub-scan work and record how much of the
// index it touched (merged label entries, runs seeded, entries
// advanced); a nil profile falls straight through to the unprofiled
// method, so the untraced path pays one branch and nothing else.

import (
	"time"

	"pll/internal/trace"
)

// labelEntries returns the sentinel-free label length of rank r in a
// flattened (off, …) label family.
func labelEntries(off []int64, r int32) int64 {
	return off[r+1] - off[r] - 1
}

// mergeEntries counts the label entries Query merges for an s-t pair:
// both normal labels plus both sides' bit-parallel rows.
func (ix *Index) mergeEntries(s, t int32) int64 {
	rs, rt := ix.rank[s], ix.rank[t]
	return labelEntries(ix.labelOff, rs) + labelEntries(ix.labelOff, rt) + int64(2*ix.numBP)
}

// DistanceProfiled is Query with merge profiling.
func (ix *Index) DistanceProfiled(s, t int32, p *trace.QueryProfile) int {
	if p == nil {
		return ix.Query(s, t)
	}
	start := time.Now()
	d := ix.Query(s, t)
	p.AddMerge(ix.mergeEntries(s, t), time.Since(start))
	return d
}

// DistanceFromProfiled is DistanceFrom with merge profiling: one merge
// record covering the whole batch, counting what the kernel reads — the
// source's label and every target's, plus one bit-parallel row for the
// source and one per target.
func (ix *Index) DistanceFromProfiled(s int32, targets []int32, dst []int64, p *trace.QueryProfile) []int64 {
	if p == nil {
		return ix.DistanceFrom(s, targets, dst)
	}
	start := time.Now()
	dst = ix.DistanceFrom(s, targets, dst)
	entries := labelEntries(ix.labelOff, ix.rank[s]) + int64((len(targets)+1)*ix.numBP)
	for _, t := range targets {
		entries += labelEntries(ix.labelOff, ix.rank[t])
	}
	p.AddMerge(entries, time.Since(start))
	return dst
}

// KNNProfiled is KNN with hub-scan profiling.
func (ix *Index) KNNProfiled(s int32, k int, p *trace.QueryProfile) []Neighbor {
	if p == nil {
		return ix.KNN(s, k)
	}
	start := time.Now()
	inv := ix.EnsureSearch()
	rs := ix.rank[s]
	runs, s1, s0 := ix.searchSource(rs)
	sc := ix.search.getScratch(ix.n)
	res := inv.KNN(runs, rs, s1, s0, k, sc)
	// Read the counters before the scratch returns to the pool: another
	// goroutine may start a query on it immediately.
	p.AddScan(int64(sc.Runs), sc.Scanned, time.Since(start))
	ix.search.pool.Put(sc)
	return finishNeighbors(ix.perm, res, k)
}

func (ix *DirectedIndex) mergeEntries(s, t int32) int64 {
	rs, rt := ix.rank[s], ix.rank[t]
	return labelEntries(ix.outOff, rs) + labelEntries(ix.inOff, rt)
}

// DistanceProfiled is Query with merge profiling.
func (ix *DirectedIndex) DistanceProfiled(s, t int32, p *trace.QueryProfile) int {
	if p == nil {
		return ix.Query(s, t)
	}
	start := time.Now()
	d := ix.Query(s, t)
	p.AddMerge(ix.mergeEntries(s, t), time.Since(start))
	return d
}

// DistanceFromProfiled is DistanceFrom with merge profiling.
func (ix *DirectedIndex) DistanceFromProfiled(s int32, targets []int32, dst []int64, p *trace.QueryProfile) []int64 {
	if p == nil {
		return ix.DistanceFrom(s, targets, dst)
	}
	start := time.Now()
	dst = ix.DistanceFrom(s, targets, dst)
	entries := labelEntries(ix.outOff, ix.rank[s])
	for _, t := range targets {
		entries += labelEntries(ix.inOff, ix.rank[t])
	}
	p.AddMerge(entries, time.Since(start))
	return dst
}

// KNNProfiled is KNN with hub-scan profiling.
func (ix *DirectedIndex) KNNProfiled(s int32, k int, p *trace.QueryProfile) []Neighbor {
	if p == nil {
		return ix.KNN(s, k)
	}
	start := time.Now()
	inv := ix.EnsureSearch()
	rs := ix.rank[s]
	sc := ix.search.getScratch(ix.n)
	res := inv.KNN(ix.searchSource(rs), rs, nil, nil, k, sc)
	p.AddScan(int64(sc.Runs), sc.Scanned, time.Since(start))
	ix.search.pool.Put(sc)
	return finishNeighbors(ix.perm, res, k)
}

func (ix *WeightedIndex) mergeEntries(s, t int32) int64 {
	rs, rt := ix.rank[s], ix.rank[t]
	return labelEntries(ix.labelOff, rs) + labelEntries(ix.labelOff, rt)
}

// DistanceProfiled is Query with merge profiling.
func (ix *WeightedIndex) DistanceProfiled(s, t int32, p *trace.QueryProfile) uint64 {
	if p == nil {
		return ix.Query(s, t)
	}
	start := time.Now()
	d := ix.Query(s, t)
	p.AddMerge(ix.mergeEntries(s, t), time.Since(start))
	return d
}

// DistanceFromProfiled is DistanceFrom with merge profiling.
func (ix *WeightedIndex) DistanceFromProfiled(s int32, targets []int32, dst []int64, p *trace.QueryProfile) []int64 {
	if p == nil {
		return ix.DistanceFrom(s, targets, dst)
	}
	start := time.Now()
	dst = ix.DistanceFrom(s, targets, dst)
	entries := labelEntries(ix.labelOff, ix.rank[s])
	for _, t := range targets {
		entries += labelEntries(ix.labelOff, ix.rank[t])
	}
	p.AddMerge(entries, time.Since(start))
	return dst
}

// KNNProfiled is KNN with hub-scan profiling.
func (ix *WeightedIndex) KNNProfiled(s int32, k int, p *trace.QueryProfile) []Neighbor {
	if p == nil {
		return ix.KNN(s, k)
	}
	start := time.Now()
	inv := ix.EnsureSearch()
	rs := ix.rank[s]
	sc := ix.search.getScratch(ix.n)
	res := inv.KNN(ix.searchSource(rs), rs, nil, nil, k, sc)
	p.AddScan(int64(sc.Runs), sc.Scanned, time.Since(start))
	ix.search.pool.Put(sc)
	return finishNeighbors(ix.perm, res, k)
}

func (di *DynamicIndex) mergeEntries(s, t int32) int64 {
	rs, rt := di.rank[s], di.rank[t]
	return int64(len(di.labV[rs]) + len(di.labV[rt]))
}

// DistanceProfiled is Query with merge profiling.
func (di *DynamicIndex) DistanceProfiled(s, t int32, p *trace.QueryProfile) int {
	if p == nil {
		return di.Query(s, t)
	}
	start := time.Now()
	d := di.Query(s, t)
	p.AddMerge(di.mergeEntries(s, t), time.Since(start))
	return d
}

// DistanceFromProfiled is DistanceFrom with merge profiling.
func (di *DynamicIndex) DistanceFromProfiled(s int32, targets []int32, dst []int64, p *trace.QueryProfile) []int64 {
	if p == nil {
		return di.DistanceFrom(s, targets, dst)
	}
	start := time.Now()
	dst = di.DistanceFrom(s, targets, dst)
	entries := int64(len(di.labV[di.rank[s]]))
	for _, t := range targets {
		entries += int64(len(di.labV[di.rank[t]]))
	}
	p.AddMerge(entries, time.Since(start))
	return dst
}
