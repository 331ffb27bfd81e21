package oraclesize

import (
	"math"
	"testing"

	"oraclesize/internal/broadcast"
	"oraclesize/internal/gossip"
	"oraclesize/internal/wakeup"
)

func TestPublicWakeupAndBroadcast(t *testing.T) {
	g, err := RandomNetwork(100, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Wakeup(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := wakeup.Bound(g.N()); !w.Complete || w.Messages != want {
		t.Errorf("wakeup: %+v", w)
	}
	b, err := Broadcast(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bound, _ := broadcast.Bound(g.N()); !b.Complete || b.Messages > bound {
		t.Errorf("broadcast: %+v", b)
	}
	// The separation: wakeup needs strictly more bits.
	if w.OracleBits <= b.OracleBits {
		t.Errorf("no separation: wakeup %d bits <= broadcast %d bits", w.OracleBits, b.OracleBits)
	}
}

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// TestPublicRunAllocationsFlat: a whole Wakeup or Broadcast (oracle plus
// simulation) allocates as many times at n = 1,024 as at n = 256. Advice
// lives in one arena, sends in the engine's buffer and the automata in
// one backing array, so a count that grows with n is a per-node
// allocation come back.
func TestPublicRunAllocationsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop pooled engines at random, so counts vary")
	}
	for _, tc := range []struct {
		name string
		run  func(*Graph, NodeID) (Report, error)
	}{{"Wakeup", Wakeup}, {"Broadcast", Broadcast}} {
		var allocs [2]float64
		for i, n := range []int{256, 1024} {
			g, err := RandomNetwork(n, 4*n, 1)
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				if r, err := tc.run(g, 0); err != nil || !r.Complete {
					t.Fatalf("%s at n=%d: %+v, %v", tc.name, n, r, err)
				}
			}
			run() // warm the pooled engine
			allocs[i] = testing.AllocsPerRun(20, run)
		}
		t.Logf("%s: %.0f allocations at n=256, %.0f at n=1024", tc.name, allocs[0], allocs[1])
		if allocs[0] != allocs[1] {
			t.Errorf("%s allocates %.0f times at n=256 but %.0f at n=1024", tc.name, allocs[0], allocs[1])
		}
	}
}

func TestSeparationGrowsWithN(t *testing.T) {
	var prev float64
	for _, n := range []int{64, 256, 1024} {
		g, err := RandomNetwork(n, 3*n, int64(n))
		if err != nil {
			t.Fatal(err)
		}
		w, err := WakeupAdvice(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := BroadcastAdvice(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(OracleSizeBits(w)) / float64(OracleSizeBits(b))
		if ratio <= prev {
			t.Errorf("n=%d: ratio %v not growing (prev %v)", n, ratio, prev)
		}
		prev = ratio
		// wakeup bits per node should track log2 n.
		perNode := float64(OracleSizeBits(w)) / float64(n)
		if perNode < 0.5*math.Log2(float64(n)) || perNode > 2*math.Log2(float64(n)) {
			t.Errorf("n=%d: wakeup bits/node = %v, log2 n = %v", n, perNode, math.Log2(float64(n)))
		}
	}
}

func TestFullMapDwarfsPaperOracles(t *testing.T) {
	g, err := RandomNetwork(64, 192, 9)
	if err != nil {
		t.Fatal(err)
	}
	full, err := FullMapAdviceSize(g)
	if err != nil {
		t.Fatal(err)
	}
	w, err := WakeupAdvice(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full <= OracleSizeBits(w) {
		t.Errorf("full map %d bits <= wakeup oracle %d bits", full, OracleSizeBits(w))
	}
}

func TestGraphBuilderRoundTrip(t *testing.T) {
	b := NewGraphBuilder(3)
	b.AddEdgeAuto(0, 1)
	b.AddEdgeAuto(1, 2)
	g, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Broadcast(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete {
		t.Error("tiny broadcast incomplete")
	}
}

func TestPublicGossipAndExplore(t *testing.T) {
	g, err := RandomNetwork(60, 180, 4)
	if err != nil {
		t.Fatal(err)
	}
	gr, err := GossipAll(g)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := gossip.Bound(g.N()); !gr.Complete || gr.Messages != want {
		t.Errorf("gossip: %+v", gr)
	}
	blind, err := ExploreBlind(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	advised, err := ExploreAdvised(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !blind.Complete || !advised.Complete || !blind.Home || !advised.Home {
		t.Errorf("exploration incomplete: %+v / %+v", blind, advised)
	}
	if advised.Moves != 2*(g.N()-1) {
		t.Errorf("advised moves = %d", advised.Moves)
	}
	if advised.Moves > blind.Moves {
		t.Errorf("advice did not help: %d vs %d", advised.Moves, blind.Moves)
	}
	if advised.OracleBits == 0 || blind.OracleBits != 0 {
		t.Errorf("oracle bits: %d / %d", advised.OracleBits, blind.OracleBits)
	}
}
