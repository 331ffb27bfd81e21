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
// but what it appends.
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
// equivalent to n NewNode calls but free to batch-allocate the automata in
// one backing array. dst and infos have equal length; implementations must
// not retain either slice (the engine reuses them across runs), though the
// automata themselves live for the whole run.
type NodeBatcher interface {
	NewNodes(infos []NodeInfo, dst []Node)
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
