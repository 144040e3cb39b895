package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"sync/atomic"
)

// verdictKey is the SHA-256 digest of a check's identity: the spec
// fingerprint (model configuration, objective, stable-only bit, batched
// routing) followed by the exact labeled sparse6 of the graph. Worker
// counts are deliberately excluded: verdicts and witnesses are
// bit-identical for every worker count. Witness violations name concrete
// vertex labels, so the key is the labeled graph itself, never a
// canonical form: a relabeling of a cached graph is a different check.
type verdictKey [sha256.Size]byte

// checkKey digests a check request's spec and its exact labeled sparse6.
// Computing it is linear in the request, so it runs before the request
// deadline and the session pool without bounding either.
func checkKey(req CheckRequest, exact string) verdictKey {
	return sha256.Sum256([]byte(fmt.Sprintf("%s|%s|so=%t|b=%t\x00%s",
		req.Model.cacheKey(), objectiveName(req.Objective), req.StableOnly, req.Batched, exact)))
}

// verdictTable is the in-memory side of /v1/check: the bounded LRU of
// certified verdicts and the table of in-flight certifications, both
// keyed by verdictKey and guarded by one mutex. A lookup that misses the
// LRU joins or registers a flight under the same lock, and the leader
// publishes its verdict and retires its flight under it too, so a request
// sees either the flight or the published verdict: concurrent identical
// requests share one certification and one session slot.
//
// Each LRU entry and flight keeps the exact labeled sparse6 it stands
// for, and a lookup hits or joins only on an exact match; the cache can
// under-hit, it can never serve a verdict for a different labeled graph.
//
// Followers honor their own deadlines: a follower whose context expires
// before the leader finishes gets its own context error (504 on the wire)
// without disturbing the flight. A leader's failure propagates to every
// follower of that flight; the next request for the key starts a fresh
// flight.
type verdictTable struct {
	mu      sync.Mutex
	cap     int        // LRU capacity; <= 0 caches nothing but still coalesces
	ll      *list.List // front = most recent; values are *cacheEntry
	items   map[verdictKey]*list.Element
	flights map[verdictKey]*flight
	// waiting counts currently parked followers (test observability: the
	// storm test holds the leader until every follower is parked).
	waiting atomic.Int64
	// lookupHook and resolveHook, when set, run before getOrLead and
	// resolve take the lock: test seams that let a regression interleave
	// a second request around the leader's publish.
	lookupHook, resolveHook func()
}

type cacheEntry struct {
	key     verdictKey
	exact   string // exact labeled sparse6 of the certified graph
	verdict VerdictDTO
}

// flight is one in-progress certification. done is closed after resp/err
// are set and the flight is retired, so late arrivals hit the published
// verdict or start a fresh flight rather than joining a completed one.
type flight struct {
	exact string
	done  chan struct{}
	resp  *CheckResponse
	err   error
}

func newVerdictTable(capacity int) *verdictTable {
	return &verdictTable{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[verdictKey]*list.Element, max(capacity, 0)),
		flights: make(map[verdictKey]*flight),
	}
}

// getOrLead returns the cached verdict for (key, exact) with f == nil on
// a hit. On a miss it returns the flight to follow (lead == false) or a
// newly registered flight the caller must lead and finish with resolve.
func (t *verdictTable) getOrLead(key verdictKey, exact string) (v VerdictDTO, f *flight, lead bool) {
	if hook := t.lookupHook; hook != nil {
		hook()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.items[key]; ok {
		if ent := el.Value.(*cacheEntry); ent.exact == exact {
			t.ll.MoveToFront(el)
			return ent.verdict, nil, false
		}
	}
	if f, ok := t.flights[key]; ok && f.exact == exact {
		return VerdictDTO{}, f, false
	}
	f = &flight{exact: exact, done: make(chan struct{})}
	t.flights[key] = f
	return VerdictDTO{}, f, true
}

// resolve finishes a led flight: a successful verdict is published to the
// LRU and the flight retired in one critical section, then its followers
// are released with the result.
func (t *verdictTable) resolve(key verdictKey, f *flight, resp *CheckResponse, err error) {
	if hook := t.resolveHook; hook != nil {
		hook()
	}
	f.resp, f.err = resp, err
	t.mu.Lock()
	if err == nil {
		t.putLocked(key, f.exact, resp.VerdictDTO)
	}
	if t.flights[key] == f {
		delete(t.flights, key)
	}
	t.mu.Unlock()
	close(f.done)
}

// wait parks a follower on f until the leader resolves it or ctx expires,
// and returns a copy of the leader's response.
func (t *verdictTable) wait(ctx context.Context, f *flight) (*CheckResponse, error) {
	t.waiting.Add(1)
	defer t.waiting.Add(-1)
	select {
	case <-f.done:
		if f.err != nil {
			return nil, f.err
		}
		cp := *f.resp
		return &cp, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// putLocked records a verdict, evicting the least recently used entry
// when full.
func (t *verdictTable) putLocked(key verdictKey, exact string, v VerdictDTO) {
	if t.cap <= 0 {
		return
	}
	if el, ok := t.items[key]; ok {
		el.Value = &cacheEntry{key: key, exact: exact, verdict: v}
		t.ll.MoveToFront(el)
		return
	}
	for t.ll.Len() >= t.cap {
		oldest := t.ll.Back()
		t.ll.Remove(oldest)
		delete(t.items, oldest.Value.(*cacheEntry).key)
	}
	t.items[key] = t.ll.PushFront(&cacheEntry{key: key, exact: exact, verdict: v})
}

// len returns the number of cached verdicts.
func (t *verdictTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ll.Len()
}
