package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/scheme"
	"oraclesize/internal/trace"
)

// floodNode implements flooding broadcast: the source sends M on all ports;
// every node forwards M on all other ports the first time it is informed.
type floodNode struct {
	info     scheme.NodeInfo
	informed bool
}

func (f *floodNode) Init(out []scheme.Send) []scheme.Send {
	if !f.info.Source {
		return out
	}
	f.informed = true
	return sendOnAll(out, f.info.Degree, -1)
}

func (f *floodNode) Receive(msg scheme.Message, port int, out []scheme.Send) []scheme.Send {
	if !msg.Informed || f.informed {
		return out
	}
	f.informed = true
	return sendOnAll(out, f.info.Degree, port)
}

func sendOnAll(out []scheme.Send, degree, except int) []scheme.Send {
	for p := 0; p < degree; p++ {
		if p != except {
			out = append(out, scheme.Send{Port: p, Msg: scheme.Message{Kind: scheme.KindM}})
		}
	}
	return out
}

func flooding() scheme.Algorithm {
	return scheme.Func{AlgoName: "flooding", New: func(info scheme.NodeInfo) scheme.Node {
		return &floodNode{info: info}
	}}
}

// silentNode never transmits; used to test non-completion reporting.
type silentNode struct{}

func (silentNode) Init(out []scheme.Send) []scheme.Send                             { return out }
func (silentNode) Receive(_ scheme.Message, _ int, out []scheme.Send) []scheme.Send { return out }

func silent() scheme.Algorithm {
	return scheme.Func{AlgoName: "silent", New: func(scheme.NodeInfo) scheme.Node { return silentNode{} }}
}

// chattyNode spontaneously transmits at every node; used to test wakeup
// legality enforcement.
type chattyNode struct{ info scheme.NodeInfo }

func (c *chattyNode) Init(out []scheme.Send) []scheme.Send {
	return sendOnAll(out, c.info.Degree, -1)
}
func (c *chattyNode) Receive(_ scheme.Message, _ int, out []scheme.Send) []scheme.Send { return out }

func chatty() scheme.Algorithm {
	return scheme.Func{AlgoName: "chatty", New: func(info scheme.NodeInfo) scheme.Node {
		return &chattyNode{info: info}
	}}
}

// pingPongNode answers every delivery with a reply on the same port — an
// infinite loop used to test the message budget.
type pingPongNode struct{ info scheme.NodeInfo }

func (p *pingPongNode) Init(out []scheme.Send) []scheme.Send {
	if !p.info.Source {
		return out
	}
	return append(out, scheme.Send{Port: 0, Msg: scheme.Message{Kind: scheme.KindProbe}})
}
func (p *pingPongNode) Receive(_ scheme.Message, port int, out []scheme.Send) []scheme.Send {
	return append(out, scheme.Send{Port: port, Msg: scheme.Message{Kind: scheme.KindProbe}})
}

func pingPong() scheme.Algorithm {
	return scheme.Func{AlgoName: "ping-pong", New: func(info scheme.NodeInfo) scheme.Node {
		return &pingPongNode{info: info}
	}}
}

func mustGraph(t *testing.T) func(*graph.Graph, error) *graph.Graph {
	t.Helper()
	return func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
}

func TestFloodingInformsEveryone(t *testing.T) {
	g := mustGraph(t)(graphgen.Grid(6, 6))
	res, err := Run(g, 0, flooding(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Error("flooding did not inform all nodes")
	}
	// Flooding sends at most one M per port direction: <= 2m messages, and
	// at least m (every edge carries at least one).
	if res.Messages > 2*g.M() || res.Messages < g.M() {
		t.Errorf("flooding messages = %d, m = %d", res.Messages, g.M())
	}
	if res.ByKind[scheme.KindM] != res.Messages {
		t.Errorf("ByKind accounting broken: %v vs total %d", res.ByKind, res.Messages)
	}
	if res.Deliveries != res.Messages {
		t.Errorf("Deliveries = %d, Messages = %d", res.Deliveries, res.Messages)
	}
}

func TestFloodingRoundsMatchEccentricity(t *testing.T) {
	// Under the FIFO (synchronous) scheduler, flooding completes in
	// ecc(source) rounds.
	g := mustGraph(t)(graphgen.Path(10))
	res, err := Run(g, 0, flooding(), nil, Options{Scheduler: NewFIFO()})
	if err != nil {
		t.Fatal(err)
	}
	if want := g.Eccentricity(0); res.Rounds != want {
		t.Errorf("Rounds = %d, want eccentricity %d", res.Rounds, want)
	}
}

func TestSilentDoesNotComplete(t *testing.T) {
	g := mustGraph(t)(graphgen.Path(4))
	res, err := Run(g, 0, silent(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllInformed {
		t.Error("silent run reported completion")
	}
	if res.Messages != 0 {
		t.Errorf("silent run sent %d messages", res.Messages)
	}
	if !res.Informed[0] || res.Informed[1] {
		t.Error("informed flags wrong")
	}
}

// engines lists both engines, which take the same Options.
var engines = map[string]func(*graph.Graph, graph.NodeID, scheme.Algorithm, Advice, Options) (*Result, error){
	"queue":      Run,
	"goroutines": RunConcurrent,
}

func TestWakeupLegalityEnforced(t *testing.T) {
	g := mustGraph(t)(graphgen.Cycle(5))
	for name, run := range engines {
		_, err := run(g, 0, chatty(), nil, Options{EnforceWakeup: true})
		if !errors.Is(err, ErrWakeupViolation) {
			t.Errorf("%s: err = %v, want ErrWakeupViolation", name, err)
		}
		// The same algorithm is legal as a broadcast.
		if _, err := run(g, 0, chatty(), nil, Options{}); err != nil {
			t.Errorf("%s: broadcast-mode run failed: %v", name, err)
		}
		// Flooding is a legal wakeup (only informed nodes transmit).
		if _, err := run(g, 0, flooding(), nil, Options{EnforceWakeup: true}); err != nil {
			t.Errorf("%s: flooding as wakeup failed: %v", name, err)
		}
	}
}

func TestMessageBudget(t *testing.T) {
	g := mustGraph(t)(graphgen.Path(2))
	_, err := Run(g, 0, pingPong(), nil, Options{MaxMessages: 100})
	if !errors.Is(err, ErrMessageBudget) {
		t.Errorf("err = %v, want ErrMessageBudget", err)
	}
}

func TestInvalidPortRejected(t *testing.T) {
	g := mustGraph(t)(graphgen.Path(3))
	bad := scheme.Func{AlgoName: "bad-port", New: func(info scheme.NodeInfo) scheme.Node {
		return &chattyBadPort{info: info}
	}}
	for name, run := range engines {
		if _, err := run(g, 0, bad, nil, Options{}); err == nil {
			t.Errorf("%s: invalid port accepted", name)
		}
	}
}

type chattyBadPort struct{ info scheme.NodeInfo }

func (c *chattyBadPort) Init(out []scheme.Send) []scheme.Send {
	if !c.info.Source {
		return out
	}
	return append(out, scheme.Send{Port: c.info.Degree, Msg: scheme.Message{Kind: scheme.KindProbe}})
}
func (c *chattyBadPort) Receive(_ scheme.Message, _ int, out []scheme.Send) []scheme.Send {
	return out
}

// badReplyNode sends on a port past its degree in answer to a delivery:
// an invalid port sent from Receive rather than from Init.
type badReplyNode struct{ info scheme.NodeInfo }

func (b *badReplyNode) Init(out []scheme.Send) []scheme.Send {
	if !b.info.Source {
		return out
	}
	return append(out, scheme.Send{Port: 0, Msg: scheme.Message{Kind: scheme.KindProbe}})
}
func (b *badReplyNode) Receive(_ scheme.Message, _ int, out []scheme.Send) []scheme.Send {
	return append(out, scheme.Send{Port: b.info.Degree, Msg: scheme.Message{Kind: scheme.KindProbe}})
}

// TestRunErrorPaths pins the run loop's stops on the engine's own FIFO
// and on NewLIFO: an invalid port sent from Receive, the message budget's
// edge (flooding needs exactly 2m-(n-1) sends under any order) and a
// wakeup violation. Each error reads as it always has, and after each
// failure the same engine's next run equals a fresh engine's.
func TestRunErrorPaths(t *testing.T) {
	path := mustGraph(t)(graphgen.Path(3))
	grid := mustGraph(t)(graphgen.Grid(4, 4))
	cycle := mustGraph(t)(graphgen.Cycle(5))
	need := 2*grid.M() - (grid.N() - 1)
	badReply := scheme.Func{AlgoName: "bad-reply", New: func(info scheme.NodeInfo) scheme.Node {
		return &badReplyNode{info: info}
	}}
	failures := []struct {
		name string
		g    *graph.Graph
		algo scheme.Algorithm
		opts Options
		want string
		is   error // the sentinel err wraps, if any
	}{
		{"bad port from Receive", path, badReply, Options{},
			"sim: node 1 sent on invalid port 2 (degree 2)", nil},
		{"one send past the budget", grid, flooding(), Options{MaxMessages: need - 1},
			fmt.Sprintf("sim: message budget exceeded: more than %d messages", need-1), ErrMessageBudget},
		{"wakeup violation", cycle, chatty(), Options{EnforceWakeup: true},
			"sim: wakeup legality violated: node 1 transmitted before being woken", ErrWakeupViolation},
	}
	schedulers := map[string]func() Scheduler{
		"engine fifo": func() Scheduler { return nil },
		"lifo":        NewLIFO,
	}
	for sname, sched := range schedulers {
		e := NewEngine()
		run := func(g *graph.Graph, algo scheme.Algorithm, opts Options) (*Result, error) {
			opts.Scheduler = sched()
			return e.Run(g, 0, algo, nil, opts)
		}
		edge, err := run(grid, flooding(), Options{MaxMessages: need})
		if err != nil || edge.Messages != need || !edge.AllInformed {
			t.Fatalf("%s: a run of exactly MaxMessages = %d sends: %v, %+v", sname, need, err, edge)
		}
		for _, f := range failures {
			_, err := run(f.g, f.algo, f.opts)
			if err == nil || err.Error() != f.want || (f.is != nil && !errors.Is(err, f.is)) {
				t.Errorf("%s, %s: err = %v, want %q wrapping %v", sname, f.name, err, f.want, f.is)
			}
			got, err := run(grid, flooding(), Options{})
			if err != nil {
				t.Fatalf("%s, after %s: %v", sname, f.name, err)
			}
			want, err := NewEngine().Run(grid, 0, flooding(), nil, Options{Scheduler: sched()})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(snap(got), snap(want)) {
				t.Errorf("%s, after %s: reused engine %+v, fresh %+v", sname, f.name, snap(got), snap(want))
			}
		}
	}
}

func TestInvalidSourceRejected(t *testing.T) {
	g := mustGraph(t)(graphgen.Path(3))
	if _, err := Run(g, 7, flooding(), nil, Options{}); err == nil {
		t.Error("out-of-range source accepted")
	}
	if _, err := RunConcurrent(g, -1, flooding(), nil, Options{}); err == nil {
		t.Error("concurrent out-of-range source accepted")
	}
}

func TestSchedulersAllCompleteFlooding(t *testing.T) {
	g := mustGraph(t)(graphgen.RandomConnected(40, 90, rand.New(rand.NewSource(13))))
	for name, factory := range Schedulers(99) {
		res, err := Run(g, 0, flooding(), nil, Options{Scheduler: factory()})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !res.AllInformed {
			t.Errorf("%s: incomplete", name)
		}
		if res.Messages > 2*g.M() {
			t.Errorf("%s: %d messages > 2m", name, res.Messages)
		}
	}
}

func TestTraceRecording(t *testing.T) {
	g := mustGraph(t)(graphgen.Grid(4, 4))
	for name, run := range engines {
		rec := &trace.Recorder{}
		res, err := run(g, 0, flooding(), nil, Options{Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		events := rec.Events()
		sends, delivers, informs := 0, 0, 0
		for _, e := range events {
			switch e.Kind {
			case trace.EventSend:
				sends++
			case trace.EventDeliver:
				delivers++
			case trace.EventInformed:
				informs++
			}
		}
		if sends != res.Messages || delivers != res.Deliveries {
			t.Errorf("%s: trace sends %d, delivers %d; messages %d, deliveries %d",
				name, sends, delivers, res.Messages, res.Deliveries)
		}
		if informs != g.N()-1 {
			t.Errorf("%s: trace informs %d, want %d", name, informs, g.N()-1)
		}
		if err := trace.CheckWakeupLegality(events, 0); err != nil {
			t.Errorf("%s: flooding trace: %v", name, err)
		}
	}
}

func TestSchedulerPrimitives(t *testing.T) {
	mk := func(i int) pending { return pending{Seq: i} }
	t.Run("fifo", func(t *testing.T) {
		s := NewFIFO()
		for i := 0; i < 5; i++ {
			s.Push(mk(i))
		}
		if s.Len() != 5 {
			t.Fatalf("Len = %d", s.Len())
		}
		for i := 0; i < 5; i++ {
			p, ok := s.Pop()
			if !ok || p.Seq != i {
				t.Fatalf("pop %d: %v %v", i, p.Seq, ok)
			}
		}
		if _, ok := s.Pop(); ok {
			t.Error("pop from empty succeeded")
		}
	})
	t.Run("lifo", func(t *testing.T) {
		s := NewLIFO()
		for i := 0; i < 5; i++ {
			s.Push(mk(i))
		}
		for i := 4; i >= 0; i-- {
			p, ok := s.Pop()
			if !ok || p.Seq != i {
				t.Fatalf("pop: %v %v, want %d", p.Seq, ok, i)
			}
		}
	})
	t.Run("random", func(t *testing.T) {
		s := NewRandom(1)
		seen := make(map[int]bool)
		for i := 0; i < 20; i++ {
			s.Push(mk(i))
		}
		for i := 0; i < 20; i++ {
			p, ok := s.Pop()
			if !ok || seen[p.Seq] {
				t.Fatalf("duplicate or missing pop: %v %v", p.Seq, ok)
			}
			seen[p.Seq] = true
		}
		if s.Len() != 0 {
			t.Errorf("Len = %d after draining", s.Len())
		}
	})
}

func TestAdviceSizeBits(t *testing.T) {
	var a Advice
	if a.SizeBits() != 0 {
		t.Error("nil advice has nonzero size")
	}
	a = Advice{
		0: bitstring.FromBits(1, 0, 1),
		1: bitstring.String{}, // empty advice contributes zero bits
		2: bitstring.FromBits(1),
	}
	if got := a.SizeBits(); got != 4 {
		t.Errorf("SizeBits = %d, want 4", got)
	}
}

func BenchmarkSequentialFlooding(b *testing.B) {
	g, err := graphgen.RandomConnected(256, 1024, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(g, 0, flooding(), nil, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllInformed {
			b.Fatal("incomplete")
		}
	}
}

func TestSingleNodeRun(t *testing.T) {
	b := graph.NewBuilder(1)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, 0, silent(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed || res.Messages != 0 {
		t.Errorf("single node: %+v", res)
	}
	cres, err := RunConcurrent(g, 0, silent(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !cres.AllInformed {
		t.Error("concurrent single node incomplete")
	}
}

// TestReadPoolStats pins the pool-stats accessor: pooled runs bump Runs,
// reuse keeps Created at or below it, and the counters are monotone.
func TestReadPoolStats(t *testing.T) {
	g := mustGraph(t)(graphgen.RandomConnected(32, 64, rand.New(rand.NewSource(5))))
	before := ReadPoolStats()
	const runs = 10
	for i := 0; i < runs; i++ {
		if _, err := Run(g, 0, flooding(), Advice{}, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	after := ReadPoolStats()
	if got := after.Runs - before.Runs; got != runs {
		t.Errorf("Runs grew by %d, want %d", got, runs)
	}
	if after.Created < before.Created {
		t.Error("Created decreased")
	}
	if after.Created > after.Runs {
		t.Errorf("Created %d exceeds Runs %d", after.Created, after.Runs)
	}
	if r := after.HitRatio(); r < 0 || r > 1 {
		t.Errorf("HitRatio = %v out of [0,1]", r)
	}
}
