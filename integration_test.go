package oraclesize

// Cross-module integration tests: randomized end-to-end properties over
// random graphs, schedulers, and both engines. These are the repository's
// strongest guard: each run exercises generator -> oracle -> scheme ->
// engine -> verdict in one pass.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oraclesize/internal/bitstring"
	"oraclesize/internal/broadcast"
	"oraclesize/internal/gossip"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
	"oraclesize/internal/wakeup"
)

func codecByName(name string) (bitstring.Codec, error) {
	return bitstring.CodecByName(name)
}

// randomCase derives a reproducible (graph, source, seed) triple from quick
// inputs.
func randomCase(t *testing.T, seed int64, sizeSeed, denseSeed uint8) (*Graph, NodeID) {
	t.Helper()
	n := int(sizeSeed%60) + 4
	maxM := n * (n - 1) / 2
	span := maxM - (n - 1)
	m := n - 1
	if span > 0 {
		m += int(denseSeed) % (span + 1)
	}
	g, err := graphgen.RandomConnected(n, m, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("generator: %v", err)
	}
	return g, NodeID(int(seed%int64(n)+int64(n)) % n)
}

func TestPropertyWakeupExact(t *testing.T) {
	f := func(seed int64, sizeSeed, denseSeed uint8) bool {
		g, src := randomCase(t, seed, sizeSeed, denseSeed)
		advice, err := wakeup.Oracle{}.Advise(g, src)
		if err != nil {
			return false
		}
		res, err := sim.Run(g, src, wakeup.Algorithm{}, advice, sim.Options{EnforceWakeup: true})
		if err != nil {
			return false
		}
		want, _ := wakeup.Bound(g.N())
		return res.AllInformed && res.Messages == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyBroadcastBounds(t *testing.T) {
	f := func(seed int64, sizeSeed, denseSeed uint8, schedSeed uint8) bool {
		g, src := randomCase(t, seed, sizeSeed, denseSeed)
		advice, err := broadcast.Oracle{}.Advise(g, src)
		if err != nil {
			return false
		}
		var sched sim.Scheduler
		switch schedSeed % 4 {
		case 0:
			sched = sim.NewFIFO()
		case 1:
			sched = sim.NewLIFO()
		case 2:
			sched = sim.NewRandom(seed)
		default:
			sched = sim.NewDelay(seed, 8)
		}
		res, err := sim.Run(g, src, broadcast.Algorithm{}, advice, sim.Options{Scheduler: sched})
		if err != nil {
			return false
		}
		n := g.N()
		messages, adviceBits := broadcast.Bound(n)
		return res.AllInformed &&
			res.Messages <= messages &&
			res.ByKind[scheme.KindM] <= 2*(n-1) &&
			res.ByKind[scheme.KindHello] <= n-1 &&
			advice.SizeBits() <= adviceBits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyGossipExact(t *testing.T) {
	f := func(seed int64, sizeSeed, denseSeed uint8) bool {
		g, _ := randomCase(t, seed, sizeSeed, denseSeed)
		rep, err := GossipAll(g)
		if err != nil {
			return false
		}
		want, _ := gossip.Bound(g.N())
		return rep.Complete && rep.Messages == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertySeparationAlwaysHolds(t *testing.T) {
	// On every random graph with n >= 16, the wakeup oracle costs more
	// bits than the broadcast oracle (the separation is pointwise at these
	// sizes, not just asymptotic).
	f := func(seed int64, denseSeed uint8) bool {
		n := 16 + int(denseSeed%64)
		g, err := graphgen.RandomConnected(n, 3*n/2, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		w, err := wakeup.Oracle{}.Advise(g, 0)
		if err != nil {
			return false
		}
		b, err := broadcast.Oracle{}.Advise(g, 0)
		if err != nil {
			return false
		}
		return w.SizeBits() > b.SizeBits()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestEnginesAgreeOnDeterministicSchemes(t *testing.T) {
	// Wakeup's message count is schedule-invariant: the event-queue engine
	// (any scheduler) and the goroutine engine must agree exactly.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		n := 16 + rng.Intn(60)
		g, err := graphgen.RandomConnected(n, 2*n, rng)
		if err != nil {
			t.Fatal(err)
		}
		advice, err := wakeup.Oracle{}.Advise(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := -1
		for name, factory := range sim.Schedulers(int64(trial)) {
			res, err := sim.Run(g, 0, wakeup.Algorithm{}, advice, sim.Options{Scheduler: factory()})
			if err != nil {
				t.Fatal(err)
			}
			if want == -1 {
				want = res.Messages
			} else if res.Messages != want {
				t.Fatalf("trial %d: scheduler %s got %d messages, others %d", trial, name, res.Messages, want)
			}
		}
		conc, err := sim.RunConcurrent(g, 0, wakeup.Algorithm{}, advice, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if conc.Messages != want {
			t.Fatalf("trial %d: goroutine engine got %d messages, event queue %d", trial, conc.Messages, want)
		}
	}
}

func TestAllCodecsInteroperateEndToEnd(t *testing.T) {
	g, err := RandomNetwork(60, 200, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"doubled", "gamma", "delta", "unary", "rice2"} {
		codec, err := codecByName(name)
		if err != nil {
			t.Fatal(err)
		}
		advice, err := broadcast.Oracle{Codec: &codec}.Advise(g, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := sim.Run(g, 0, broadcast.Algorithm{Codec: &codec}, advice, sim.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if bound, _ := broadcast.Bound(g.N()); !res.AllInformed || res.Messages > bound {
			t.Errorf("%s: complete=%v messages=%d", name, res.AllInformed, res.Messages)
		}
	}
}
