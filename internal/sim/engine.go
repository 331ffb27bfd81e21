package sim

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/graph"
	"oraclesize/internal/scheme"
	"oraclesize/internal/trace"
)

// ErrMessageBudget is returned when a run exceeds its message cap — the
// symptom of a non-terminating or super-linear scheme.
var ErrMessageBudget = errors.New("sim: message budget exceeded")

// ErrWakeupViolation is returned when a run with EnforceWakeup set observes
// a non-source node transmitting before its first delivery.
var ErrWakeupViolation = errors.New("sim: wakeup legality violated")

// Advice assigns each node its oracle string: advice[v] is f(v) for the
// dense node IDs 0..n-1. Oracles build it n long, and the oracles on the
// serving path write every node's string into one bitstring.Arena. Of
// reads a node past the end (of a nil Advice, say) as the empty string,
// matching the paper's convention that f(v) may be empty.
type Advice []bitstring.String

// SizeBits reports the oracle size: the total number of advice bits over
// all nodes (the paper's size measure).
func (a Advice) SizeBits() int {
	total := 0
	for _, s := range a {
		total += s.Len()
	}
	return total
}

// Of returns v's string, or the empty string past the end of a.
func (a Advice) Of(v graph.NodeID) bitstring.String {
	if int(v) < len(a) {
		return a[v]
	}
	return bitstring.String{}
}

// Options configures a simulation run. Engine.Run and RunConcurrent honour
// every field alike, except Scheduler, which RunConcurrent refuses.
type Options struct {
	// Scheduler orders deliveries; nil means FIFO (synchronous).
	Scheduler Scheduler
	// MaxMessages caps total sends; 0 means 64·(m+n)+1024, a generous
	// multiple of any linear-message scheme.
	MaxMessages int
	// EnforceWakeup makes the run fail with ErrWakeupViolation if a
	// non-source node transmits before being woken.
	EnforceWakeup bool
	// Recorder, if non-nil, receives the full event trace.
	Recorder *trace.Recorder
	// RetainNodes keeps the node automata in Result.Nodes so callers can
	// inspect final states (e.g. gossip checks the learned value sets).
	RetainNodes bool
}

// budget is the run's message cap: MaxMessages, or the default
// 64·(m+n)+1024 when it is 0. Both engines take it from here.
func (o Options) budget(g *graph.Graph) int {
	if o.MaxMessages == 0 {
		return 64*(g.M()+g.N()) + 1024
	}
	return o.MaxMessages
}

// newNodes builds a run's automata, for both engines: infos[v] is v's
// NodeInfo (its advice, source bit, label and degree) and nodes[v] its
// automaton, carved from s, after s.Reset, when algo is a
// scheme.NodeBatcher.
func newNodes(g *graph.Graph, source graph.NodeID, algo scheme.Algorithm, advice Advice, infos []scheme.NodeInfo, nodes []scheme.Node, s *scheme.Scratch) {
	for v := range infos {
		id, info := graph.NodeID(v), &infos[v]
		info.Advice = advice.Of(id)
		info.Source = id == source
		info.Label = g.Label(id)
		info.Degree = g.Degree(id)
	}
	if nb, ok := algo.(scheme.NodeBatcher); ok {
		s.Reset()
		nb.NewNodes(infos, nodes, s)
		return
	}
	for v, info := range infos {
		nodes[v] = algo.NewNode(info)
	}
}

// Result summarizes a completed run.
type Result struct {
	// Messages is the total number of sends (the paper's message
	// complexity).
	Messages int
	// ByKind breaks Messages down per message kind. It is built once at
	// run completion and is nil when the run sent no messages, so runs
	// that never consult the breakdown pay nothing for the map (indexing
	// a nil map reads as zero).
	ByKind map[scheme.Kind]int
	// Informed[v] reports whether v got the source message.
	Informed []bool
	// AllInformed reports whether the dissemination completed.
	AllInformed bool
	// Deliveries counts delivered messages (equals Messages when the run
	// drains its queue).
	Deliveries int
	// Rounds is the logical completion time: the largest send time among
	// delivered messages, where a message sent in reaction to a time-t
	// delivery has time t+1 and spontaneous sends have time 1.
	Rounds int
	// Nodes holds the final automata when Options.RetainNodes is set.
	Nodes []scheme.Node
	// MessageBits totals scheme.Message.SizeBits over all sends: the
	// bandwidth cost. Bounded-message schemes (the paper's constructions)
	// keep MessageBits/Messages constant; gossip does not.
	MessageBits int
	// MaxNodeSends is the largest number of messages emitted by a single
	// node — the per-node load.
	MaxNodeSends int
}

// Engine executes runs while reusing all per-run scratch state: the node
// automaton table, the storage a scheme.NodeBatcher carves the automata
// from, delivery bookkeeping slices, the default scheduler's queue
// storage, and the per-kind message counters. A zero Engine is ready to
// use; an Engine is not safe for concurrent use (pool Engines per worker,
// as the package-level Run does via a sync.Pool).
//
// Engine.Run is byte-identical in results to the package-level Run: same
// message counts, same deterministic delivery orders.
type Engine struct {
	nodes []scheme.Node
	// scratch holds the automata a NodeBatcher builds, run after run; a
	// RetainNodes run hands it out with them and starts a new one.
	scratch   scheme.Scratch
	infos     []scheme.NodeInfo
	delivered []bool // has v received anything yet
	nodeTime  []int  // logical time of v's latest knowledge
	nodeSends []int
	fifo      fifoScheduler
	kindCount [256]int
	kindsUsed []scheme.Kind
	// out is the automata's send buffer: every Init and Receive appends
	// to it from empty, and the run loop consumes it before the next step.
	out []scheme.Send
	// values holds the Values of the messages sent this run, which only
	// gossip and MST send: pending.Values indexes it, and its slot 0 is
	// the nil every other message carries. A run ends by clearing it, so
	// a pooled engine keeps no payload alive.
	values [][]int64
}

// NewEngine returns a fresh engine. Buffers are grown on demand by Run and
// retained across runs.
func NewEngine() *Engine { return &Engine{} }

// Reset sizes the engine's scratch state for a run on g, reusing existing
// capacity. Run calls it internally; it is exported so callers that know
// their largest graph can pre-size once.
func (e *Engine) Reset(g *graph.Graph) {
	n := g.N()
	e.nodes = growSlice(e.nodes, n)
	e.infos = growSlice(e.infos, n)
	e.delivered = resetSlice(e.delivered, n)
	e.nodeTime = resetSlice(e.nodeTime, n)
	e.nodeSends = resetSlice(e.nodeSends, n)
}

// growSlice returns s resized to n without clearing (callers overwrite).
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// resetSlice returns s resized to n with every element zeroed.
func resetSlice[T bool | int](s []T, n int) []T {
	s = growSlice(s, n)
	clear(s)
	return s
}

// enginePool backs the package-level Run so concurrent callers (campaign
// workers, parallel benchmarks, service handlers) each reuse a warm engine.
var enginePool = sync.Pool{New: func() any {
	poolCreated.Add(1)
	return NewEngine()
}}

var (
	poolRuns    atomic.Int64
	poolCreated atomic.Int64
)

// PoolStats counts the package-level Run's engine reuse. Runs is the total
// number of pooled runs served; Created is how many fresh engines the pool
// had to allocate (a run that does not bump Created reused a warm engine,
// so Created/Runs is the pool miss ratio, subject to GC clearing the pool).
type PoolStats struct {
	Runs    int64
	Created int64
}

// HitRatio is the fraction of runs served by a warm engine.
func (s PoolStats) HitRatio() float64 {
	if s.Runs > 0 {
		return float64(s.Runs-s.Created) / float64(s.Runs)
	}
	return 0
}

// ReadPoolStats snapshots the cumulative pool counters, for /metrics-style
// reporting. Engines used directly (NewEngine + Engine.Run) do not count.
func ReadPoolStats() PoolStats {
	return PoolStats{Runs: poolRuns.Load(), Created: poolCreated.Load()}
}

// Run executes algo on g from the given source under the advice assignment,
// delivering messages in the order chosen by the scheduler, until no message
// is in flight. It returns the run summary, or an error if the message
// budget is exhausted or wakeup legality is violated.
//
// Run draws a reusable Engine from an internal pool; it is safe for
// concurrent use and allocation-light in steady state.
func Run(g *graph.Graph, source graph.NodeID, algo scheme.Algorithm, advice Advice, opts Options) (*Result, error) {
	poolRuns.Add(1)
	e := enginePool.Get().(*Engine)
	res, err := e.Run(g, source, algo, advice, opts)
	enginePool.Put(e)
	return res, err
}

// Run executes one simulation on the engine's reused buffers. See the
// package-level Run for semantics; results are identical.
func (e *Engine) Run(g *graph.Graph, source graph.NodeID, algo scheme.Algorithm, advice Advice, opts Options) (*Result, error) {
	n := g.N()
	if source < 0 || int(source) >= n {
		return nil, fmt.Errorf("sim: source %d out of range [0,%d)", source, n)
	}
	// The engine's own FIFO, or one NewFIFO made, is driven directly (fifo
	// non-nil): a send fills the queue's next slot and a delivery reads
	// its oldest record where it lies. Every other scheduler pushes and
	// pops through the interface.
	sched := opts.Scheduler
	fifo, _ := sched.(*fifoScheduler)
	if sched == nil {
		e.fifo.reset()
		fifo = &e.fifo
	}
	maxMessages, rec := opts.budget(g), opts.Recorder

	e.Reset(g)
	e.values = append(e.values[:0], nil)
	// Informed escapes with the Result, so it is the one tracking slice
	// allocated fresh per run rather than drawn from the engine.
	informed := make([]bool, n)
	informed[source] = true
	newNodes(g, source, algo, advice, e.infos, e.nodes, &e.scratch)

	nodes, delivered, nodeTime, nodeSends := e.nodes, e.delivered, e.nodeTime, e.nodeSends
	var messages, bits, seq, deliveries, rounds, maxSends int
	// spare is the record another scheduler pops into and pushes from.
	var spare pending
	// One step per iteration: the next node's Init while any is left, so
	// every Init runs before the first delivery, as in the paper (schemes
	// act on the empty history first), and then one delivery.
	for next := 0; ; {
		var from graph.NodeID
		if next < n {
			from = graph.NodeID(next)
			next++
			e.out = nodes[from].Init(e.out[:0])
		} else {
			p := &spare
			if fifo != nil {
				if p = fifo.next(); p == nil {
					break
				}
			} else {
				var ok bool
				if spare, ok = sched.Pop(); !ok {
					break
				}
			}
			// Every field is read before the step's sends, which may
			// reuse the record's slot.
			from = graph.NodeID(p.To)
			at, port := p.Time, int(p.Port)
			msg := scheme.Message{Kind: p.Kind, Payload: p.Payload, Informed: p.Informed, Values: e.values[p.Values]}
			deliveries++
			rounds = max(rounds, at)
			delivered[from] = true
			if msg.Informed && !informed[from] {
				informed[from] = true
				if rec != nil {
					rec.Append(trace.Event{Kind: trace.EventInformed, Node: from, Peer: -1, Port: -1})
				}
			}
			nodeTime[from] = max(nodeTime[from], at)
			if rec != nil {
				rec.Append(trace.Event{Kind: trace.EventDeliver, Node: from, Peer: graph.NodeID(p.From), Port: port, Msg: msg})
			}
			e.out = nodes[from].Receive(msg, port, e.out[:0])
		}
		sends := e.out
		if len(sends) == 0 {
			continue
		}
		// The step's sends share the sender's ports, its informed flag
		// (stamped on each message), their send time and whether the
		// sender is still unwoken.
		ports := g.Ports(from)
		stamp, sendTime := informed[from], nodeTime[from]+1
		early := opts.EnforceWakeup && from != source && !delivered[from]
		for i := range sends {
			s := &sends[i]
			if s.Port < 0 || s.Port >= len(ports) {
				return e.fail(fmt.Errorf("sim: node %d sent on invalid port %d (degree %d)", from, s.Port, len(ports)))
			}
			if early {
				return e.fail(fmt.Errorf("%w: node %d transmitted before being woken", ErrWakeupViolation, from))
			}
			if messages >= maxMessages {
				return e.fail(fmt.Errorf("%w: more than %d messages", ErrMessageBudget, maxMessages))
			}
			messages++
			kind := s.Msg.Kind
			if e.kindCount[kind] == 0 {
				e.kindsUsed = append(e.kindsUsed, kind)
			}
			e.kindCount[kind]++
			bits += s.Msg.SizeBits()
			h := &ports[s.Port]
			if rec != nil {
				msg := s.Msg
				msg.Informed = stamp
				rec.Append(trace.Event{Kind: trace.EventSend, Node: from, Peer: h.To, Port: s.Port, Msg: msg})
			}
			slot := &spare
			if fifo != nil {
				slot = fifo.slot()
			}
			slot.Payload = s.Msg.Payload
			slot.Seq = seq
			slot.Time = sendTime
			slot.To = int32(h.To)
			slot.From = int32(from)
			slot.Port = int32(h.ToPort)
			slot.Values = 0
			if s.Msg.Values != nil {
				slot.Values = int32(len(e.values))
				e.values = append(e.values, s.Msg.Values)
			}
			slot.Kind = kind
			slot.Informed = stamp
			if fifo == nil {
				sched.Push(spare)
			}
			seq++
		}
		nodeSends[from] += len(sends)
		maxSends = max(maxSends, nodeSends[from])
	}

	res := &Result{
		Messages:     messages,
		Informed:     informed,
		AllInformed:  !slices.Contains(informed, false),
		Deliveries:   deliveries,
		Rounds:       rounds,
		MessageBits:  bits,
		MaxNodeSends: maxSends,
	}
	// Materialize the per-kind breakdown; finish clears the counters.
	if len(e.kindsUsed) > 0 {
		res.ByKind = make(map[scheme.Kind]int, len(e.kindsUsed))
		for _, k := range e.kindsUsed {
			res.ByKind[k] = e.kindCount[k]
		}
	}
	// Retained automata keep the storage they were carved from, so the
	// engine detaches its scratch along with them.
	if opts.RetainNodes {
		res.Nodes = e.nodes
		e.nodes = nil
		e.scratch = scheme.Scratch{}
	}
	e.finish()
	return res, nil
}

// fail ends a run that err stopped.
func (e *Engine) fail(err error) (*Result, error) {
	e.finish()
	return nil, err
}

// finish leaves the engine ready for its next run, after a failed run
// too: it clears the per-kind counters, severs the engine's references to
// the automata, so pooled reuse cannot alias state a caller may hold, and
// drops the payloads the send buffer and values table still point to.
func (e *Engine) finish() {
	for _, k := range e.kindsUsed {
		e.kindCount[k] = 0
	}
	e.kindsUsed = e.kindsUsed[:0]
	clear(e.nodes)
	clear(e.out[:cap(e.out)])
	clear(e.values)
	e.values = e.values[:0]
}
