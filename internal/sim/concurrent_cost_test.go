package sim_test

import (
	"math/rand"
	"reflect"
	"testing"

	"oraclesize/internal/broadcast"
	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/sim"
	"oraclesize/internal/wakeup"
)

// TestConcurrentCountsCosts: the goroutines engine reports the same cost
// counters as Run. Thm 2.1's wakeup sends one message per tree edge
// whatever the delivery order, so the two engines must agree exactly on
// messages, bits, per-node load, rounds and the per-kind breakdown.
// Broadcast's sends depend on the interleaving, so it is held to the
// envelope every run satisfies: some bits, and 1 ≤ Rounds ≤ Messages.
func TestConcurrentCountsCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for name, build := range map[string]func() (*graph.Graph, error){
		"path":             func() (*graph.Graph, error) { return graphgen.Path(40) },
		"grid":             func() (*graph.Graph, error) { return graphgen.Grid(8, 8) },
		"star":             func() (*graph.Graph, error) { return graphgen.Star(33) },
		"complete":         func() (*graph.Graph, error) { return graphgen.Complete(24) },
		"random-connected": func() (*graph.Graph, error) { return graphgen.RandomConnected(256, 768, rng) },
	} {
		g, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wAdvice, err := wakeup.Oracle{}.Advise(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(g, 0, wakeup.Algorithm{}, wAdvice, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.RunConcurrent(g, 0, wakeup.Algorithm{}, wAdvice, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Messages != want.Messages || got.MessageBits != want.MessageBits ||
			got.MaxNodeSends != want.MaxNodeSends || got.Rounds != want.Rounds ||
			!reflect.DeepEqual(got.ByKind, want.ByKind) {
			t.Errorf("%s wakeup: goroutines engine messages=%d bits=%d max-node-sends=%d rounds=%d kinds=%v; Run %d %d %d %d %v",
				name, got.Messages, got.MessageBits, got.MaxNodeSends, got.Rounds, got.ByKind,
				want.Messages, want.MessageBits, want.MaxNodeSends, want.Rounds, want.ByKind)
		}

		bAdvice, err := broadcast.Oracle{}.Advise(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunConcurrent(g, 0, broadcast.Algorithm{}, bAdvice, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !res.AllInformed || res.MessageBits <= 0 || res.MaxNodeSends <= 0 || res.Rounds < 1 || res.Rounds > res.Messages {
			t.Errorf("%s broadcast: informed=%v messages=%d bits=%d max-node-sends=%d rounds=%d",
				name, res.AllInformed, res.Messages, res.MessageBits, res.MaxNodeSends, res.Rounds)
		}
	}
}
