package tenant

import (
	"errors"
	"sync"
)

// ErrFull rejects an enqueue because the scheduler's global capacity is
// exhausted (or the scheduler is closed) — the caller sheds load (503).
var ErrFull = errors.New("tenant: queue full")

// ErrTenantFull rejects an enqueue because the tenant's own queue-slot
// quota is exhausted while global capacity remains — the caller throttles
// the tenant (429) instead of shedding.
var ErrTenantFull = errors.New("tenant: tenant queue slots exhausted")

// Scheduler is a weighted deficit-round-robin work queue: items enqueue
// into per-tenant FIFO queues and dequeue one at a time in
// weight-proportional rotation across the tenants that currently have
// backlog. With one active tenant it degrades to a plain FIFO.
//
// Fairness invariant: while tenants A (weight a) and B (weight b) both
// have backlog, any window of dequeues contains items from both in ratio
// a:b (±one quantum), so the queueing delay of an item from A is bounded
// by its own backlog plus a weight-proportional share of everyone
// else's — never by the absolute length of another tenant's queue. An
// item enqueued for a tenant with no backlog is dequeued after at most one
// quantum of each other active tenant.
type Scheduler[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	cap    int
	size   int
	closed bool
	queues map[string]*schedQueue[T]
	// active rotates over queues with backlog; cur is the rotation index.
	active []*schedQueue[T]
	cur    int
}

// schedQueue is one tenant's FIFO plus its DRR accounting. The items
// slice is head-compacted so a long-lived queue does not leak its
// drained prefix.
type schedQueue[T any] struct {
	id      string
	weight  int
	slots   int
	items   []T
	head    int
	deficit int
	active  bool
}

func (q *schedQueue[T]) len() int { return len(q.items) - q.head }

func (q *schedQueue[T]) push(item T) {
	if q.head > 0 && q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	q.items = append(q.items, item)
}

func (q *schedQueue[T]) pop() T {
	item := q.items[q.head]
	var zero T
	q.items[q.head] = zero // drop the reference for the GC
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 > len(q.items) {
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = zero
		}
		q.items = q.items[:n]
		q.head = 0
	}
	return item
}

// NewScheduler builds a scheduler with the given global capacity (total
// queued items across all tenants; minimum 1).
func NewScheduler[T any](capacity int) *Scheduler[T] {
	if capacity < 1 {
		capacity = 1
	}
	s := &Scheduler[T]{cap: capacity, queues: make(map[string]*schedQueue[T])}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Enqueue admits one item for the named tenant. weight is the tenant's
// DRR share (minimum 1); slots caps the tenant's queued items (0 = only
// the global capacity applies). The per-tenant quota is checked before
// the global one, so a tenant at its own cap is throttled (ErrTenantFull)
// rather than reported as server shedding — unless the whole queue really
// is full, which wins (ErrFull).
func (s *Scheduler[T]) Enqueue(id string, weight, slots int, item T) error {
	if weight < 1 {
		weight = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.size >= s.cap {
		return ErrFull
	}
	q := s.queues[id]
	if q == nil {
		q = &schedQueue[T]{id: id}
		s.queues[id] = q
	}
	// Weight and slots ride along on every enqueue so a registry reload
	// (future work) or differing callers converge on the latest values.
	q.weight, q.slots = weight, slots
	if slots > 0 && q.len() >= slots {
		return ErrTenantFull
	}
	q.push(item)
	s.size++
	if !q.active {
		q.active = true
		s.active = append(s.active, q)
	}
	s.cond.Signal()
	return nil
}

// Dequeue blocks until an item is available, then removes and returns
// the next one in DRR order. It returns false once the scheduler is closed
// and drained — the worker should exit.
func (s *Scheduler[T]) Dequeue() (T, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.size == 0 {
		if s.closed {
			var zero T
			return zero, false
		}
		s.cond.Wait()
	}
	if s.cur >= len(s.active) {
		s.cur = 0
	}
	q := s.active[s.cur]
	if q.deficit <= 0 {
		// A fresh visit in this rotation: grant the tenant's quantum.
		q.deficit = q.weight
	}
	item := q.pop()
	s.size--
	q.deficit--
	switch {
	case q.len() == 0:
		// Drained: leave the rotation and forfeit leftover deficit,
		// so an idle tenant cannot bank credit while away.
		q.deficit = 0
		q.active = false
		s.active = append(s.active[:s.cur], s.active[s.cur+1:]...)
	case q.deficit == 0:
		s.cur++
	}
	return item, true
}

// Close wakes all blocked dequeuers. Items already queued still drain;
// new enqueues fail with ErrFull.
func (s *Scheduler[T]) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Len reports the total queued items.
func (s *Scheduler[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Depths reports the per-tenant queued item counts for every tenant that
// has ever enqueued — the per-tenant queue-depth gauge.
func (s *Scheduler[T]) Depths() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := make(map[string]int, len(s.queues))
	for id, q := range s.queues {
		d[id] = q.len()
	}
	return d
}
