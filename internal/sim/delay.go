package sim

import "math/rand"

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
	s.heap.push(delayItem{arrival: s.clock + delay, p: p})
}

func (s *delayScheduler) Pop() (pending, bool) {
	if len(s.heap) == 0 {
		return pending{}, false
	}
	item := s.heap.pop()
	s.clock = item.arrival
	return item.p, true
}

func (s *delayScheduler) Len() int { return len(s.heap) }

type delayItem struct {
	arrival float64
	p       pending
}

// delayHeap is a binary min-heap on arrival time, tie-broken by send
// sequence for determinism. less is a strict order (every Seq differs),
// so any heap pops the records in the same order; this one is typed, so
// a push or pop boxes nothing.
type delayHeap []delayItem

func (h delayHeap) less(i, j int) bool {
	if h[i].arrival != h[j].arrival {
		return h[i].arrival < h[j].arrival
	}
	return h[i].p.Seq < h[j].p.Seq
}

func (h *delayHeap) push(x delayItem) {
	*h = append(*h, x)
	a := *h
	for i := len(a) - 1; i > 0; {
		parent := (i - 1) / 2
		if !a.less(i, parent) {
			break
		}
		a[i], a[parent] = a[parent], a[i]
		i = parent
	}
}

func (h *delayHeap) pop() delayItem {
	a := *h
	top, last := a[0], len(a)-1
	a[0] = a[last]
	a = a[:last]
	for i := 0; ; {
		least, l := i, 2*i+1
		if l < len(a) && a.less(l, least) {
			least = l
		}
		if r := l + 1; r < len(a) && a.less(r, least) {
			least = r
		}
		if least == i {
			break
		}
		a[i], a[least] = a[least], a[i]
		i = least
	}
	*h = a
	return top
}
