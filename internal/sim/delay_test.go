package sim

import (
	"testing"

	"oraclesize/internal/graphgen"
)

func TestDelaySchedulerOrdersByArrival(t *testing.T) {
	s := NewDelay(1, 8)
	for i := 0; i < 50; i++ {
		s.Push(pending{Seq: i})
	}
	if s.Len() != 50 {
		t.Fatalf("Len = %d", s.Len())
	}
	seen := make(map[int]bool, 50)
	for i := 0; i < 50; i++ {
		p, ok := s.Pop()
		if !ok {
			t.Fatalf("pop %d failed", i)
		}
		if seen[p.Seq] {
			t.Fatalf("duplicate seq %d", p.Seq)
		}
		seen[p.Seq] = true
	}
	if _, ok := s.Pop(); ok {
		t.Error("pop from empty succeeded")
	}
}

func TestDelaySchedulerDeterministic(t *testing.T) {
	order := func(seed int64) []int {
		s := NewDelay(seed, 16)
		for i := 0; i < 30; i++ {
			s.Push(pending{Seq: i})
		}
		var out []int
		for {
			p, ok := s.Pop()
			if !ok {
				return out
			}
			out = append(out, p.Seq)
		}
	}
	a, b := order(7), order(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d", i)
		}
	}
	// Different seeds should (overwhelmingly) produce different orders.
	c := order(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical order")
	}
}

func TestDelaySchedulerClockAdvances(t *testing.T) {
	// Arrival times are non-decreasing: a popped message's arrival becomes
	// the clock for subsequent pushes, so causality is never violated.
	s := NewDelay(3, 4).(*delayScheduler)
	s.Push(pending{Seq: 0})
	first, _ := s.Pop()
	clockAfterFirst := s.clock
	if clockAfterFirst <= 0 {
		t.Fatalf("clock did not advance: %v", s.clock)
	}
	s.Push(pending{Seq: 1})
	second, _ := s.Pop()
	if s.clock < clockAfterFirst {
		t.Errorf("clock went backwards: %v -> %v", clockAfterFirst, s.clock)
	}
	if first.Seq != 0 || second.Seq != 1 {
		t.Errorf("pop order: %d, %d", first.Seq, second.Seq)
	}
}

func TestDelaySchedulerRunsFlooding(t *testing.T) {
	g := mustGraph(t)(graphgen.Grid(6, 6))
	res, err := Run(g, 0, flooding(), nil, Options{Scheduler: NewDelay(5, 16)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Error("flooding under delay scheduler incomplete")
	}
	if res.Messages > 2*g.M() {
		t.Errorf("messages = %d > 2m", res.Messages)
	}
}

func TestSchedulersIncludeDelay(t *testing.T) {
	if _, ok := Schedulers(1)["delay"]; !ok {
		t.Error("delay scheduler not registered")
	}
}

// TestDelaySchedulerAllocBudget pins what a flooding run on K5 under
// NewDelay allocates on a warm engine: the five automata, the scheduler
// and its rand source, the heap's growth and the run's Result, 18 in all.
// A heap that boxed each record would add two allocations per message
// (the flood sends 16).
func TestDelaySchedulerAllocBudget(t *testing.T) {
	g := mustGraph(t)(graphgen.Complete(5))
	e := NewEngine()
	run := func() {
		if _, err := e.Run(g, 0, flooding(), nil, Options{Scheduler: NewDelay(1, 16)}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("%.0f allocations per run", allocs)
	const budget = 20
	if allocs > budget {
		t.Errorf("flooding on K5 under NewDelay(1, 16): %.0f allocations, budget %d", allocs, budget)
	}
}
