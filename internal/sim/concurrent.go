package sim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"oraclesize/internal/graph"
	"oraclesize/internal/scheme"
	"oraclesize/internal/trace"
)

// RunConcurrent executes algo with one goroutine per node and a mailbox per
// node, under the Go scheduler's real interleaving. It blocks until the
// network quiesces (no message in flight, all automata idle), then returns
// the summary. The message total uses atomics; automaton state and the
// per-node costs are owned by each node's goroutine and merged at the end.
//
// It builds the same automata as Engine.Run and honours the same options:
// MaxMessages (0 selects the same default budget), EnforceWakeup,
// RetainNodes, and Recorder, which receives the send, deliver and informed
// events in one valid interleaving. The Go scheduler orders deliveries, so
// a non-nil Scheduler is an error. A send past the budget, on an invalid
// port, or, under EnforceWakeup, from a non-source node before its first
// delivery stops the run: later sends are dropped, the network still
// quiesces, and the run returns ErrMessageBudget, the port error or
// ErrWakeupViolation.
func RunConcurrent(g *graph.Graph, source graph.NodeID, algo scheme.Algorithm, advice Advice, opts Options) (*Result, error) {
	n := g.N()
	if source < 0 || int(source) >= n {
		return nil, fmt.Errorf("sim: source %d out of range [0,%d)", source, n)
	}
	if opts.Scheduler != nil {
		return nil, errors.New("sim: the goroutines engine takes no scheduler")
	}
	maxMessages := opts.budget(g)
	nodes := make([]scheme.Node, n)
	newNodes(g, source, algo, advice, make([]scheme.NodeInfo, n), nodes, new(scheme.Scratch))

	var (
		sent     atomic.Int64
		stopped  atomic.Pointer[error] // the first error that stopped the run
		inflight sync.WaitGroup
		kinds    [256]atomic.Int64 // indexed by scheme.Kind
	)
	stop := func(err error) { stopped.CompareAndSwap(nil, &err) }
	// Only v's goroutine writes v's entries, and the merge reads them
	// after every goroutine has exited.
	nodeSends, nodeBits, nodeTime := make([]int, n), make([]int, n), make([]int, n)
	informed := make([]bool, n)
	informed[source] = true

	boxes := make([]*mailbox, n)
	for v := 0; v < n; v++ {
		boxes[v] = newMailbox()
	}

	// send hands a message to a mailbox; the inflight group tracks it
	// until the receiving goroutine has fully processed it (including
	// emitting its own sends), so Wait() below is a correct quiescence
	// barrier: the counter can only reach zero when no automaton will emit
	// anything further.
	send := func(from graph.NodeID, s scheme.Send) {
		if stopped.Load() != nil {
			return
		}
		if degree := g.Degree(from); s.Port < 0 || s.Port >= degree {
			stop(fmt.Errorf("sim: node %d sent on invalid port %d (degree %d)", from, s.Port, degree))
			return
		}
		if sent.Add(1) > int64(maxMessages) {
			stop(fmt.Errorf("%w: more than %d messages (concurrent)", ErrMessageBudget, maxMessages))
			return
		}
		msg := s.Msg
		msg.Informed = informed[from]
		kinds[msg.Kind].Add(1)
		nodeSends[from]++
		nodeBits[from] += msg.SizeBits()
		to, toPort := g.Neighbor(from, s.Port)
		opts.Recorder.Append(trace.Event{Kind: trace.EventSend, Node: from, Peer: to, Port: s.Port, Msg: msg})
		inflight.Add(1)
		boxes[to].push(delivery{msg: msg, from: from, port: toPort, time: nodeTime[from] + 1})
	}

	// Each node holds one "init token" until its spontaneous phase is done,
	// so the quiescence barrier below cannot trip before every automaton
	// has had the chance to emit its initial sends.
	inflight.Add(n)

	var workers sync.WaitGroup
	workers.Add(n)
	for v := 0; v < n; v++ {
		v, node := graph.NodeID(v), nodes[v]
		go func() {
			defer workers.Done()
			// Spontaneous sends happen before processing any delivery,
			// but concurrently with other nodes' activity — genuine
			// asynchrony. Each goroutine owns its send buffer.
			out := node.Init(nil)
			if len(out) > 0 && opts.EnforceWakeup && v != source {
				stop(fmt.Errorf("%w: node %d transmitted before being woken", ErrWakeupViolation, v))
			}
			for _, s := range out {
				send(v, s)
			}
			inflight.Done()
			for {
				d, ok := boxes[v].pop()
				if !ok {
					return
				}
				if d.msg.Informed && !informed[v] {
					informed[v] = true
					opts.Recorder.Append(trace.Event{Kind: trace.EventInformed, Node: v, Peer: -1, Port: -1})
				}
				opts.Recorder.Append(trace.Event{Kind: trace.EventDeliver, Node: v, Peer: d.from, Port: d.port, Msg: d.msg})
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

	if err := stopped.Load(); err != nil {
		return nil, *err
	}
	res := &Result{Messages: int(sent.Load()), Informed: informed, AllInformed: true}
	if res.Messages > 0 {
		res.ByKind = make(map[scheme.Kind]int)
	}
	for k := range kinds {
		if c := kinds[k].Load(); c > 0 {
			res.ByKind[scheme.Kind(k)] = int(c)
		}
	}
	for v := 0; v < n; v++ {
		res.MessageBits += nodeBits[v]
		res.MaxNodeSends = max(res.MaxNodeSends, nodeSends[v])
		res.Rounds = max(res.Rounds, nodeTime[v])
		res.AllInformed = res.AllInformed && informed[v]
	}
	res.Deliveries = res.Messages
	if opts.RetainNodes {
		res.Nodes = nodes
	}
	return res, nil
}

// delivery is a message arriving at a node's mailbox, with its send time.
type delivery struct {
	msg        scheme.Message
	from       graph.NodeID
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
