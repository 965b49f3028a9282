package server

import (
	"sync"
	"sync/atomic"
)

// resultCache is a sharded fixed-capacity LRU mapping canonicalized
// search requests to their marshaled JSON responses. It closes the gap
// the pair cache leaves open: /knn and /query answers cost a full merge
// or constraint scan, so repeating a hot request used to repeat the
// work while /distance hits stayed free. Keys are the canonical forms
// internal/wire defines ("/knn?s=3&k=8", the canonical /query JSON,
// which cannot collide), values are the exact response bytes, and the
// same epoch protocol as pairCache keeps a slow request from
// depositing a pre-mutation answer after an /update or /reload purge. Hits and misses are tracked per endpoint so /stats
// can show which surface the cache is actually earning on.
type resultCache struct {
	shards [numShards]resultShard
	epoch  atomic.Uint64
	knn    endpointCounters
	query  endpointCounters
}

// endpointCounters is one endpoint's hit/miss tally.
type endpointCounters struct {
	hits   atomic.Int64
	misses atomic.Int64
}

type resultShard struct {
	mu      sync.Mutex
	entries map[string]int // key -> slot in slab
	slab    []resultEntry
	free    []int
	head    int
	tail    int
	cap     int
}

type resultEntry struct {
	key        string
	body       []byte
	prev, next int
}

// newResultCache returns a cache holding about capacity responses, or
// nil when capacity <= 0 (caching disabled). It shares Config.CacheSize
// with the pair cache: one knob bounds both.
func newResultCache(capacity int) *resultCache {
	if capacity <= 0 {
		return nil
	}
	perShard := (capacity + numShards - 1) / numShards
	c := &resultCache{}
	for i := range c.shards {
		s := &c.shards[i]
		s.cap = perShard
		s.entries = make(map[string]int, perShard)
		s.head, s.tail = -1, -1
	}
	return c
}

// counters returns the tally for one endpoint name; unknown endpoints
// fall back to the query tally (there are only two cached endpoints).
func (c *resultCache) endpoint(name string) *endpointCounters {
	if name == "knn" {
		return &c.knn
	}
	return &c.query
}

// shardOf picks a shard by FNV-1a over the key.
func (c *resultCache) shardOf(key string) *resultShard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return &c.shards[h&(numShards-1)]
}

// get returns the cached response bytes for key, updating the
// endpoint's hit/miss counters and recency. The returned slice is
// shared — callers must only write it to the wire, never mutate it.
func (c *resultCache) get(endpoint, key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	sh := c.shardOf(key)
	sh.mu.Lock()
	slot, ok := sh.entries[key]
	if !ok {
		sh.mu.Unlock()
		c.endpoint(endpoint).misses.Add(1)
		return nil, false
	}
	sh.moveToFront(slot)
	b := sh.slab[slot].body
	sh.mu.Unlock()
	c.endpoint(endpoint).hits.Add(1)
	return b, true
}

// currentEpoch returns the value to pass to put; capture it before
// running the query the cached response describes.
func (c *resultCache) currentEpoch() uint64 {
	if c == nil {
		return 0
	}
	return c.epoch.Load()
}

// put records the response computed while epoch was current; a put a
// purge has since invalidated is dropped (see pairCache.put).
func (c *resultCache) put(epoch uint64, key string, body []byte) {
	if c == nil {
		return
	}
	sh := c.shardOf(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if c.epoch.Load() != epoch {
		return
	}
	if slot, ok := sh.entries[key]; ok {
		sh.slab[slot].body = body
		sh.moveToFront(slot)
		return
	}
	var slot int
	switch {
	case len(sh.free) > 0:
		slot = sh.free[len(sh.free)-1]
		sh.free = sh.free[:len(sh.free)-1]
	case len(sh.slab) < sh.cap:
		sh.slab = append(sh.slab, resultEntry{})
		slot = len(sh.slab) - 1
	default:
		slot = sh.tail
		sh.unlink(slot)
		delete(sh.entries, sh.slab[slot].key)
	}
	sh.slab[slot] = resultEntry{key: key, body: body, prev: -1, next: -1}
	sh.pushFront(slot)
	sh.entries[key] = slot
}

// purge empties the cache on index mutation; epoch first, so in-flight
// puts against the old index are rejected (see pairCache.purge).
func (c *resultCache) purge() {
	if c == nil {
		return
	}
	c.epoch.Add(1)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[string]int, sh.cap)
		sh.slab = sh.slab[:0]
		sh.free = sh.free[:0]
		sh.head, sh.tail = -1, -1
		sh.mu.Unlock()
	}
}

// len reports the number of cached responses across all shards.
func (c *resultCache) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// capacity reports the effective response bound (configured size
// rounded up to whole shards, like pairCache.capacity).
func (c *resultCache) capacity() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		n += c.shards[i].cap
	}
	return n
}

// hitCount and missCount read one endpoint's tallies for /metrics.
func (c *resultCache) hitCount(endpoint string) int64 {
	if c == nil {
		return 0
	}
	return c.endpoint(endpoint).hits.Load()
}

func (c *resultCache) missCount(endpoint string) int64 {
	if c == nil {
		return 0
	}
	return c.endpoint(endpoint).misses.Load()
}

// stats returns the per-endpoint tallies as a JSON-ready map.
func (c *resultCache) stats() map[string]any {
	if c == nil {
		return map[string]any{
			"entries":  0,
			"capacity": 0,
			"knn":      map[string]int64{"hits": 0, "misses": 0},
			"query":    map[string]int64{"hits": 0, "misses": 0},
		}
	}
	return map[string]any{
		"entries":  c.len(),
		"capacity": c.capacity(),
		"knn":      map[string]int64{"hits": c.knn.hits.Load(), "misses": c.knn.misses.Load()},
		"query":    map[string]int64{"hits": c.query.hits.Load(), "misses": c.query.misses.Load()},
	}
}

func (sh *resultShard) unlink(slot int) {
	e := &sh.slab[slot]
	if e.prev >= 0 {
		sh.slab[e.prev].next = e.next
	} else {
		sh.head = e.next
	}
	if e.next >= 0 {
		sh.slab[e.next].prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = -1, -1
}

func (sh *resultShard) pushFront(slot int) {
	e := &sh.slab[slot]
	e.prev, e.next = -1, sh.head
	if sh.head >= 0 {
		sh.slab[sh.head].prev = slot
	}
	sh.head = slot
	if sh.tail < 0 {
		sh.tail = slot
	}
}

func (sh *resultShard) moveToFront(slot int) {
	if sh.head == slot {
		return
	}
	sh.unlink(slot)
	sh.pushFront(slot)
}
