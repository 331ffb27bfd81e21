package sim

import (
	"errors"
	"math/rand"
	"testing"

	"oraclesize/internal/graphgen"
	"oraclesize/internal/scheme"
)

func TestConcurrentFloodingCompletes(t *testing.T) {
	g := mustGraph(t)(graphgen.Grid(8, 8))
	res, err := RunConcurrent(g, 0, flooding(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Error("concurrent flooding did not inform all nodes")
	}
	if res.Messages < g.M() || res.Messages > 2*g.M() {
		t.Errorf("messages = %d, m = %d", res.Messages, g.M())
	}
}

func TestConcurrentMatchesSequentialCompletion(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		g, err := graphgen.RandomConnected(30, 60, rng)
		if err != nil {
			t.Fatal(err)
		}
		seqRes, err := Run(g, 0, flooding(), nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		conRes, err := RunConcurrent(g, 0, flooding(), nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !seqRes.AllInformed || !conRes.AllInformed {
			t.Fatalf("trial %d: incomplete (seq %v, con %v)", trial, seqRes.AllInformed, conRes.AllInformed)
		}
		// Flooding's message count is schedule-dependent within [m, 2m];
		// both engines must stay in that envelope.
		for name, msgs := range map[string]int{"seq": seqRes.Messages, "con": conRes.Messages} {
			if msgs < g.M() || msgs > 2*g.M() {
				t.Errorf("trial %d %s: messages %d outside [m, 2m] = [%d, %d]",
					trial, name, msgs, g.M(), 2*g.M())
			}
		}
	}
}

func TestConcurrentSilent(t *testing.T) {
	g := mustGraph(t)(graphgen.Path(5))
	res, err := RunConcurrent(g, 2, silent(), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllInformed || res.Messages != 0 {
		t.Errorf("silent: AllInformed=%v Messages=%d", res.AllInformed, res.Messages)
	}
	if !res.Informed[2] {
		t.Error("source not informed")
	}
}

func TestConcurrentBudget(t *testing.T) {
	g := mustGraph(t)(graphgen.Path(2))
	_, err := RunConcurrent(g, 0, pingPong(), nil, Options{MaxMessages: 50})
	if !errors.Is(err, ErrMessageBudget) {
		t.Errorf("err = %v, want ErrMessageBudget", err)
	}
}

// TestConcurrentOptions pins the rest of the goroutines engine's contract:
// RetainNodes hands back all n automata, and a Scheduler, which the engine
// has no use for, is an error.
func TestConcurrentOptions(t *testing.T) {
	g := mustGraph(t)(graphgen.Grid(4, 4))
	res, err := RunConcurrent(g, 0, flooding(), nil, Options{RetainNodes: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != g.N() {
		t.Errorf("RetainNodes: %d automata, want %d", len(res.Nodes), g.N())
	}
	for v, nd := range res.Nodes {
		if f, ok := nd.(*floodNode); !ok || !f.informed {
			t.Errorf("node %d: retained automaton %#v, want an informed flooder", v, nd)
		}
	}
	if _, err := RunConcurrent(g, 0, flooding(), nil, Options{Scheduler: NewFIFO()}); err == nil {
		t.Error("a scheduler was accepted")
	}
}

func TestConcurrentStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	g := mustGraph(t)(graphgen.Complete(40))
	for i := 0; i < 20; i++ {
		res, err := RunConcurrent(g, 0, flooding(), nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed {
			t.Fatalf("iteration %d incomplete", i)
		}
	}
}

func TestMailbox(t *testing.T) {
	b := newMailbox()
	b.push(delivery{port: 1})
	b.push(delivery{port: 2})
	d, ok := b.pop()
	if !ok || d.port != 1 {
		t.Fatalf("pop = %v %v", d, ok)
	}
	b.close()
	// Remaining items still drain after close.
	d, ok = b.pop()
	if !ok || d.port != 2 {
		t.Fatalf("post-close pop = %v %v", d, ok)
	}
	if _, ok := b.pop(); ok {
		t.Error("pop from closed empty mailbox succeeded")
	}
	// push after close is a no-op.
	b.push(delivery{port: 3})
	if _, ok := b.pop(); ok {
		t.Error("push after close delivered")
	}
}

func TestMailboxBlockingPop(t *testing.T) {
	b := newMailbox()
	done := make(chan delivery, 1)
	go func() {
		d, _ := b.pop()
		done <- d
	}()
	b.push(delivery{port: 9})
	if d := <-done; d.port != 9 {
		t.Errorf("blocking pop got %v", d)
	}
}

// relabelNode exercises per-kind accounting in the concurrent engine.
type relabelNode struct{ info scheme.NodeInfo }

func (r *relabelNode) Init(out []scheme.Send) []scheme.Send {
	if !r.info.Source {
		return out
	}
	return append(out,
		scheme.Send{Port: 0, Msg: scheme.Message{Kind: scheme.KindM}},
		scheme.Send{Port: 0, Msg: scheme.Message{Kind: scheme.KindHello}},
	)
}
func (r *relabelNode) Receive(_ scheme.Message, _ int, out []scheme.Send) []scheme.Send {
	return out
}

func TestConcurrentByKind(t *testing.T) {
	g := mustGraph(t)(graphgen.Path(2))
	algo := scheme.Func{AlgoName: "relabel", New: func(info scheme.NodeInfo) scheme.Node {
		return &relabelNode{info: info}
	}}
	res, err := RunConcurrent(g, 0, algo, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ByKind[scheme.KindM] != 1 || res.ByKind[scheme.KindHello] != 1 {
		t.Errorf("ByKind = %v", res.ByKind)
	}
}

func BenchmarkConcurrentFlooding(b *testing.B) {
	g, err := graphgen.RandomConnected(256, 1024, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunConcurrent(g, 0, flooding(), nil, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.AllInformed {
			b.Fatal("incomplete")
		}
	}
}
