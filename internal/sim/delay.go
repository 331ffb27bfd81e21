package sim

import (
	"container/heap"
	"math/rand"
)

// delayScheduler models asynchronous links with latency: each message is
// assigned a pseudo-random transit delay in [1, MaxDelay] and messages are
// delivered in arrival-time order. Unlike the fifo/lifo/random schedulers,
// which are pure orderings, this one gives executions a timing dimension:
// a message sent at (logical) time t arrives at t + delay, so two messages
// on different links genuinely race. Seeded, hence reproducible.
type delayScheduler struct {
	rng      *rand.Rand
	maxDelay int
	clock    float64
	heap     delayHeap
}

// NewDelay returns a latency-model scheduler with per-message delays drawn
// uniformly from [1, maxDelay].
func NewDelay(seed int64, maxDelay int) Scheduler {
	if maxDelay < 1 {
		maxDelay = 1
	}
	return &delayScheduler{rng: rand.New(rand.NewSource(seed)), maxDelay: maxDelay}
}

func (s *delayScheduler) Name() string { return "delay" }

func (s *delayScheduler) Push(p pending) {
	delay := 1 + s.rng.Float64()*float64(s.maxDelay-1)
	heap.Push(&s.heap, delayItem{arrival: s.clock + delay, p: p})
}

func (s *delayScheduler) Pop() (pending, bool) {
	if s.heap.Len() == 0 {
		return pending{}, false
	}
	item := heap.Pop(&s.heap).(delayItem)
	s.clock = item.arrival
	return item.p, true
}

func (s *delayScheduler) Len() int { return s.heap.Len() }

type delayItem struct {
	arrival float64
	p       pending
}

// delayHeap is a min-heap on arrival time, tie-broken by send sequence for
// determinism.
type delayHeap []delayItem

func (h delayHeap) Len() int { return len(h) }

func (h delayHeap) Less(i, j int) bool {
	if h[i].arrival != h[j].arrival {
		return h[i].arrival < h[j].arrival
	}
	return h[i].p.Seq < h[j].p.Seq
}

func (h delayHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *delayHeap) Push(x interface{}) { *h = append(*h, x.(delayItem)) }

func (h *delayHeap) Pop() interface{} {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}
