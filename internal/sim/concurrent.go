package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"oraclesize/internal/graph"
	"oraclesize/internal/scheme"
)

// RunConcurrent executes algo with one goroutine per node and a mailbox per
// node, under the Go scheduler's real interleaving. It blocks until the
// network quiesces (no message in flight, all automata idle), then returns
// the summary. The message total uses atomics; automaton state and the
// per-node costs are owned by each node's goroutine and merged at the end.
//
// The run aborts (and still terminates cleanly) if maxMessages is exceeded,
// returning ErrMessageBudget. A maxMessages of 0 selects the same default
// budget as Run.
func RunConcurrent(g *graph.Graph, source graph.NodeID, algo scheme.Algorithm, advice Advice, maxMessages int) (*Result, error) {
	n := g.N()
	if source < 0 || int(source) >= n {
		return nil, fmt.Errorf("sim: source %d out of range [0,%d)", source, n)
	}
	if maxMessages == 0 {
		maxMessages = 64*(g.M()+n) + 1024
	}

	var (
		sent     atomic.Int64
		overflow atomic.Bool
		inflight sync.WaitGroup
	)
	kinds := make([]atomic.Int64, 8) // indexed by scheme.Kind; covers all kinds
	nodeSends, nodeBits, nodeTime := make([]int, n), make([]int, n), make([]int, n)

	boxes := make([]*mailbox, n)
	informed := make([]atomic.Bool, n)
	for v := 0; v < n; v++ {
		boxes[v] = newMailbox()
	}
	informed[source].Store(true)

	// deliver hands a message to a mailbox; the inflight group tracks it
	// until the receiving goroutine has fully processed it (including
	// emitting its own sends), so Wait() below is a correct quiescence
	// barrier: the counter can only reach zero when no automaton will emit
	// anything further.
	send := func(from graph.NodeID, s scheme.Send) bool {
		if overflow.Load() {
			return false
		}
		if sent.Add(1) > int64(maxMessages) {
			overflow.Store(true)
			return false
		}
		msg := s.Msg
		msg.Informed = informed[from].Load()
		if int(msg.Kind) < len(kinds) {
			kinds[msg.Kind].Add(1)
		}
		nodeSends[from]++
		nodeBits[from] += msg.SizeBits()
		to, toPort := g.Neighbor(from, s.Port)
		inflight.Add(1)
		boxes[to].push(delivery{msg: msg, port: toPort, time: nodeTime[from] + 1})
		return true
	}

	// Each node holds one "init token" until its spontaneous phase is done,
	// so the quiescence barrier below cannot trip before every automaton
	// has had the chance to emit its initial sends.
	inflight.Add(n)

	var workers sync.WaitGroup
	workers.Add(n)
	for v := 0; v < n; v++ {
		v := graph.NodeID(v)
		node := algo.NewNode(scheme.NodeInfo{
			Advice: advice.Of(v),
			Source: v == source,
			Label:  g.Label(v),
			Degree: g.Degree(v),
		})
		go func() {
			defer workers.Done()
			// Spontaneous sends happen before processing any delivery,
			// but concurrently with other nodes' activity — genuine
			// asynchrony. Each goroutine owns its send buffer.
			out := node.Init(nil)
			for _, s := range out {
				send(v, s)
			}
			inflight.Done()
			for {
				d, ok := boxes[v].pop()
				if !ok {
					return
				}
				if d.msg.Informed {
					informed[v].Store(true)
				}
				nodeTime[v] = max(nodeTime[v], d.time)
				out = node.Receive(d.msg, d.port, out[:0])
				for _, s := range out {
					send(v, s)
				}
				inflight.Done()
			}
		}()
	}

	inflight.Wait()
	for v := 0; v < n; v++ {
		boxes[v].close()
	}
	workers.Wait()

	res := &Result{
		Messages: int(sent.Load()),
		ByKind:   make(map[scheme.Kind]int),
		Informed: make([]bool, n),
	}
	if overflow.Load() {
		// The counter was optimistically incremented past the cap.
		res.Messages = maxMessages
		return nil, fmt.Errorf("%w: more than %d messages (concurrent)", ErrMessageBudget, maxMessages)
	}
	for k := range kinds {
		if c := kinds[k].Load(); c > 0 {
			res.ByKind[scheme.Kind(k)] = int(c)
		}
	}
	res.AllInformed = true
	for v := 0; v < n; v++ {
		res.MessageBits += nodeBits[v]
		res.MaxNodeSends = max(res.MaxNodeSends, nodeSends[v])
		res.Rounds = max(res.Rounds, nodeTime[v])
		res.Informed[v] = informed[v].Load()
		if !res.Informed[v] {
			res.AllInformed = false
		}
	}
	res.Deliveries = res.Messages
	return res, nil
}

// delivery is a message arriving at a node's mailbox, with its send time.
type delivery struct {
	msg        scheme.Message
	port, time int
}

// mailbox is an unbounded MPSC queue with blocking pop. Unbounded capacity
// is required: links in the model never refuse a message, and bounded
// channels between mutually-sending node goroutines could deadlock.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []delivery
	head   int
	closed bool
}

func newMailbox() *mailbox {
	b := &mailbox{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *mailbox) push(d delivery) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.queue = append(b.queue, d)
	b.cond.Signal()
}

// pop blocks until a delivery is available or the mailbox is closed.
func (b *mailbox) pop() (delivery, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.head >= len(b.queue) && !b.closed {
		b.cond.Wait()
	}
	if b.head >= len(b.queue) {
		return delivery{}, false
	}
	d := b.queue[b.head]
	b.queue[b.head] = delivery{}
	b.head++
	if b.head == len(b.queue) {
		b.queue = b.queue[:0]
		b.head = 0
	}
	return d, true
}

func (b *mailbox) close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	b.cond.Broadcast()
}
