// Package sim executes communication schemes on labeled port-numbered
// networks. It provides two engines over the same scheme.Algorithm
// contract:
//
//   - a deterministic sequential engine (Run) with pluggable delivery
//     schedulers modeling synchrony, FIFO links, and adversarial
//     asynchrony, used for reproducible message counting; and
//   - a concurrent engine (RunConcurrent) with one goroutine per node,
//     exercising the constructions under real interleaving.
//
// Message complexity in the paper counts transmissions; both engines count
// every Send emitted by an automaton.
package sim

import (
	"math/rand"
	"slices"

	"oraclesize/internal/scheme"
)

// pending is an undelivered message in flight toward To, arriving on its
// local port Port. It holds no pointer, so queues of it cost the garbage
// collector nothing to scan and moving one is a plain 48-byte copy: the
// message is kept as its fields, Informed already stamped at send, and
// its Values as an index into the engine's values table (0 for nil).
// Delivery rebuilds the exact scheme.Message the sender emitted.
type pending struct {
	Payload  uint64
	Seq      int // send order, for deterministic tie-breaking
	Time     int // logical send time: sender's wake time + 1
	To       int32
	From     int32
	Port     int32 // arrival port at To
	Values   int32
	Kind     scheme.Kind
	Informed bool
}

// Scheduler decides the delivery order of in-flight messages. Schedulers
// are single-run objects; NewScheduler-style factories hand a fresh one to
// each run.
type Scheduler interface {
	// Name identifies the scheduler in experiment tables.
	Name() string
	// Push adds an in-flight message.
	Push(p pending)
	// Pop removes and returns the next message to deliver.
	Pop() (pending, bool)
	// Len reports the number of in-flight messages.
	Len() int
}

// fifoScheduler delivers messages in send order: this realizes the fully
// synchronous execution (all round-t messages are delivered before any
// round-t+1 message is sent) and is the engine default. The engine drives
// its own FIFO, and one NewFIFO made, through slot and next directly
// rather than through the Scheduler interface: a send fills the queue's
// next record field by field, and a delivery reads its record in place.
type fifoScheduler struct {
	queue []pending
	head  int
}

// NewFIFO returns the synchronous/FIFO scheduler.
func NewFIFO() Scheduler { return &fifoScheduler{} }

func (s *fifoScheduler) Name() string { return "fifo" }

// reset empties the queue while keeping its storage, so a reusable Engine
// can run back-to-back simulations without reallocating.
func (s *fifoScheduler) reset() {
	s.queue = s.queue[:0]
	s.head = 0
}

func (s *fifoScheduler) Push(p pending) { *s.slot() = p }

func (s *fifoScheduler) Pop() (pending, bool) {
	if p := s.next(); p != nil {
		return *p, true
	}
	return pending{}, false
}

// slot appends a record to the queue and returns it to be filled. It may
// hold an earlier record's fields, so the caller writes every field.
func (s *fifoScheduler) slot() *pending {
	if len(s.queue) == cap(s.queue) {
		s.grow()
	}
	s.queue = s.queue[:len(s.queue)+1]
	return &s.queue[len(s.queue)-1]
}

// next removes the oldest record and returns it where it lies, or nil
// when the queue is empty. The record stays valid until the next slot.
func (s *fifoScheduler) next() *pending {
	if s.head == len(s.queue) {
		return nil
	}
	s.head++
	return &s.queue[s.head-1]
}

// grow makes room for one more record in full storage. When at least half
// of the queue is consumed it moves the live part to the front, so long
// runs (millions of messages) keep storage in proportion to the messages
// in flight, not to the messages sent; otherwise it grows the storage.
func (s *fifoScheduler) grow() {
	if s.head > 0 && s.head >= len(s.queue)/2 {
		n := copy(s.queue, s.queue[s.head:])
		s.queue = s.queue[:n]
		s.head = 0
		return
	}
	s.queue = slices.Grow(s.queue, 1)
}

func (s *fifoScheduler) Len() int { return len(s.queue) - s.head }

// lifoScheduler delivers the most recently sent message first — a maximally
// depth-first asynchronous adversary.
type lifoScheduler struct {
	stack []pending
}

// NewLIFO returns the depth-first adversarial scheduler.
func NewLIFO() Scheduler { return &lifoScheduler{} }

func (s *lifoScheduler) Name() string { return "lifo" }

func (s *lifoScheduler) Push(p pending) { s.stack = append(s.stack, p) }

func (s *lifoScheduler) Pop() (pending, bool) {
	if len(s.stack) == 0 {
		return pending{}, false
	}
	p := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	return p, true
}

func (s *lifoScheduler) Len() int { return len(s.stack) }

// randomScheduler delivers a uniformly random in-flight message, seeded for
// reproducibility.
type randomScheduler struct {
	rng  *rand.Rand
	heap []pending
}

// NewRandom returns a seeded random-order scheduler.
func NewRandom(seed int64) Scheduler {
	return &randomScheduler{rng: rand.New(rand.NewSource(seed))}
}

func (s *randomScheduler) Name() string { return "random" }

func (s *randomScheduler) Push(p pending) { s.heap = append(s.heap, p) }

func (s *randomScheduler) Pop() (pending, bool) {
	if len(s.heap) == 0 {
		return pending{}, false
	}
	i := s.rng.Intn(len(s.heap))
	p := s.heap[i]
	last := len(s.heap) - 1
	s.heap[i] = s.heap[last]
	s.heap = s.heap[:last]
	return p, true
}

func (s *randomScheduler) Len() int { return len(s.heap) }

// SchedulerFactory builds a fresh scheduler per run.
type SchedulerFactory func() Scheduler

// Schedulers returns the named scheduler factories used in experiment
// sweeps. Random schedulers derive their seed from the provided base seed.
func Schedulers(seed int64) map[string]SchedulerFactory {
	return map[string]SchedulerFactory{
		"fifo":   NewFIFO,
		"lifo":   NewLIFO,
		"random": func() Scheduler { return NewRandom(seed) },
		"delay":  func() Scheduler { return NewDelay(seed, 16) },
	}
}
