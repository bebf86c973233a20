package gw

import (
	"container/list"
	"sync"
)

// The gateway response cache: the front tier's own memo layer for
// idempotent hot keys. A backend already caches its solved curves, but
// every repeat of a hot single-point request still costs a proxied
// round trip; caching the finished response bytes at the gateway
// answers those without touching the fleet at all. Entries are keyed by
// the request's canonical cache key (path, scheme identity, canonical
// params, procs, point shape) PLUS the answering backend's model
// fingerprint (advertised on its /readyz), so a response computed by
// one model build can never be served on behalf of another. The whole
// cache is dropped on a backend-set reload: the fleet behind the cached
// bytes changed, so the cheap, always-correct move is to refill.

// respEntry is one cached response.
type respEntry struct {
	key         uint64
	fp          string // model fingerprint of the backend that produced it
	contentType string
	backend     string // backend URL, echoed in the response header
	body        []byte
}

// respCache is a bounded LRU of finished responses. All methods are
// safe for concurrent use.
type respCache struct {
	mu      sync.Mutex
	cap     int
	order   *list.List               // front = most recently used
	entries map[uint64]*list.Element // key -> element holding *respEntry

	hits, misses, invalidations int64 // guarded by mu
}

// newRespCache returns an empty cache bounded to capacity entries.
func newRespCache(capacity int) *respCache {
	return &respCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[uint64]*list.Element, capacity),
	}
}

// lookup returns the entry cached under (key, fp), if any, promoting it
// to most recently used. An entry stored under the same key but a
// different model fingerprint is a miss: the fleet no longer runs the
// build that produced it.
func (c *respCache) lookup(key uint64, fp string) (*respEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok || el.Value.(*respEntry).fp != fp {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*respEntry), true
}

// store caches one finished response under (key, fp), replacing any
// entry for the key and evicting the least recently used entry past
// capacity.
func (c *respCache) store(key uint64, fp, contentType, backend string, body []byte) {
	e := &respEntry{key: key, fp: fp, contentType: contentType, backend: backend, body: body}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(e)
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*respEntry).key)
	}
}

// invalidate drops every entry — called when the backend set changes.
func (c *respCache) invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	clear(c.entries)
	c.invalidations++
}

// stats snapshots the cache's size and counters for the metrics page.
func (c *respCache) stats() (entries int, hits, misses, invalidations int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.hits, c.misses, c.invalidations
}
