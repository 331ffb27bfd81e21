// Package scheme defines the node-automaton contract shared by all
// communication algorithms in this repository, mirroring the paper's
// definition of broadcast and wakeup schemes.
//
// In the paper, an algorithm A maps the quadruple
// (f(v), s(v), id(v), deg(v)) — advice string, status bit, label, degree —
// to a scheme S_v, and S_v maps the history of received messages to a set of
// (message, port) pairs to send. Here NodeInfo is the quadruple, an
// Algorithm builds one Node automaton per vertex, and the automaton's Init
// and Receive methods return the sends prescribed for the current history.
// Automata must be deterministic functions of their history; all
// nondeterminism lives in the simulation engines' delivery order.
package scheme

import "oraclesize/internal/bitstring"

// NodeInfo is the a-priori knowledge of a node before communication starts:
// exactly the quadruple (f(v), s(v), id(v), deg(v)) from the paper.
type NodeInfo struct {
	// Advice is the string assigned by the oracle, possibly empty.
	Advice bitstring.String
	// Source is the status bit s(v).
	Source bool
	// Label is the node's distinct label id(v). Anonymous algorithms must
	// ignore it; the upper-bound constructions in the paper do.
	Label int64
	// Degree is deg(v); ports 0..Degree-1 are usable.
	Degree int
}

// Kind classifies messages for accounting. The paper's constructions use
// the source message M and the control message "hello"; other algorithms may
// define their own kinds. Every kind counts toward message complexity.
type Kind uint8

// Message kinds used by the algorithms in this repository.
const (
	// KindM is the source message (or a message carrying it).
	KindM Kind = iota + 1
	// KindHello is Scheme B's control message.
	KindHello
	// KindProbe is a generic control message for baseline algorithms.
	KindProbe
	// KindUp is a convergecast message (gossip: values flowing to the root).
	KindUp
	// KindDown is a divergecast message (gossip: the full set flowing back).
	KindDown
)

// String returns the display name of the kind.
func (k Kind) String() string {
	switch k {
	case KindM:
		return "M"
	case KindHello:
		return "hello"
	case KindProbe:
		return "probe"
	case KindUp:
		return "up"
	case KindDown:
		return "down"
	default:
		return "?"
	}
}

// Message is one transmission. Messages are bounded-size by construction:
// a kind tag, a small integer payload, and the informed flag.
type Message struct {
	Kind Kind
	// Payload carries algorithm-specific data (e.g. a hop counter).
	// The paper's constructions leave it zero.
	Payload uint64
	// Informed is stamped by the runtime: it is true when the sender was
	// informed at send time. Per the model, "the source message can be
	// appended to any such message", so receiving any message with
	// Informed set makes the receiver informed.
	Informed bool
	// Values carries a value set for tasks whose payloads grow, such as
	// gossip's convergecast. Receivers must treat it as read-only: the
	// runtime passes the slice through without copying. Dissemination
	// schemes leave it nil (their messages are bounded, as the paper
	// requires).
	Values []int64
}

// SizeBits measures the message's information content: a fixed tag (kind
// plus the informed flag), the payload's binary length when present, and
// the value set. The paper's §1.3 claims its upper bounds need only
// bounded-size messages; the engines total this measure so experiments can
// verify it (wakeup and Scheme B messages are 4 bits here, while gossip's
// convergecast payloads grow with the subtree).
func (m Message) SizeBits() int {
	bits := 4 // 3-bit kind tag + informed flag
	if m.Payload != 0 {
		bits += bitstring.Num2(m.Payload)
	}
	for _, v := range m.Values {
		bits += 1 + bitstring.Num2(uint64(v))
	}
	return bits
}

// Send instructs the runtime to emit Msg on the sender's local port Port.
type Send struct {
	Port int
	Msg  Message
}

// AppendSend appends to out a send on port of a message with the given
// kind and payload and no Values, and returns the extended slice. It
// writes the new element's fields in out's storage, where appending a
// Send literal builds the literal first and copies it in.
func AppendSend(out []Send, port int, kind Kind, payload uint64) []Send {
	if len(out) < cap(out) {
		out = out[:len(out)+1]
	} else {
		out = append(out, Send{})
	}
	s := &out[len(out)-1]
	s.Port = port
	s.Msg.Kind = kind
	s.Msg.Payload = payload
	s.Msg.Informed = false
	s.Msg.Values = nil
	return out
}

// Node is a per-vertex automaton. The runtime calls Init exactly once
// before delivering anything, then Receive once per delivered message.
// Implementations must not retain or mutate shared state: an automaton's
// outputs must depend only on its NodeInfo and the sequence of
// (message, port) deliveries, as in the paper's definition of a scheme.
//
// Both methods append their sends to out, a buffer the runtime owns, and
// return the extended slice, so sending allocates nothing. The runtime
// consumes the sends before the automaton's next step and passes the
// buffer again, so an automaton must neither retain out nor send anything
// but what it appends. AppendSend is the way to send a message without
// Values; only a message that carries Values needs a Send literal.
type Node interface {
	// Init appends the node's spontaneous sends. Wakeup schemes must send
	// nothing from non-source nodes (nodes other than the source cannot
	// transmit before being woken).
	Init(out []Send) []Send
	// Receive handles a message arriving on the given local port and
	// appends the sends it triggers.
	Receive(msg Message, port int, out []Send) []Send
}

// Algorithm builds node automata. One Algorithm value is shared across all
// vertices of a run, so implementations must be stateless (or immutable).
type Algorithm interface {
	// Name identifies the algorithm in experiment tables.
	Name() string
	// NewNode returns a fresh automaton for a node with the given
	// a-priori knowledge.
	NewNode(info NodeInfo) Node
}

// NodeBatcher is an optional Algorithm extension for allocation-conscious
// engines. NewNodes fills dst[i] with a fresh automaton for infos[i],
// equivalent to n NewNode calls, but carves the automata, and any arrays
// they point into, from s with Slab instead of allocating them, so an
// engine that passes the same Scratch run after run builds its automata in
// the storage its last run left. dst and infos have equal length;
// implementations must retain neither slice nor s (the engine reuses all
// three across runs). The automata live until the engine resets s for its
// next run, or for as long as the caller keeps them once the engine hands
// them out with their storage (sim.Options.RetainNodes). A nil s
// allocates fresh storage.
type NodeBatcher interface {
	NewNodes(infos []NodeInfo, dst []Node, s *Scratch)
}

// Scratch is storage that outlives a run: the arrays NodeBatchers carve
// their automata from, kept by the engine that runs them. The zero value
// is ready to use; a Scratch is not safe for concurrent use.
type Scratch struct {
	slabs []slab
}

// slab is one kept array: buf holds a []T for some T, and taken marks it
// handed out since the last Reset.
type slab struct {
	buf   any
	taken bool
}

// Reset makes all of s's storage available to Slab again. The engine
// calls it before each NewNodes, once nothing uses the automata carved
// since the previous Reset.
func (s *Scratch) Reset() {
	for i := range s.slabs {
		s.slabs[i].taken = false
	}
}

// Slab returns n zeroed Ts. It reuses an array of Ts that s kept from an
// earlier call and that no call since the last Reset has taken, growing it
// when n exceeds its capacity, so two slabs of one T between Resets never
// share storage. A nil s allocates.
func Slab[T any](s *Scratch, n int) []T {
	if s == nil {
		return make([]T, n)
	}
	for i := range s.slabs {
		sl := &s.slabs[i]
		if sl.taken {
			continue
		}
		buf, ok := sl.buf.([]T)
		if !ok {
			continue
		}
		sl.taken = true
		if cap(buf) < n {
			buf = make([]T, n)
			sl.buf = buf
			return buf
		}
		buf = buf[:n]
		clear(buf)
		return buf
	}
	buf := make([]T, n)
	s.slabs = append(s.slabs, slab{buf: buf, taken: true})
	return buf
}

// Func adapts plain constructor functions to the Algorithm interface.
type Func struct {
	AlgoName string
	New      func(info NodeInfo) Node
}

// Name implements Algorithm.
func (f Func) Name() string { return f.AlgoName }

// NewNode implements Algorithm.
func (f Func) NewNode(info NodeInfo) Node { return f.New(info) }
