package scheme

import "testing"

// twinBatcher carves every automaton from one slab and gives it two
// counters from two slabs of one type, as a scheme that keeps two
// same-typed arrays per run would.
type twinBatcher struct{}

type twinNode struct {
	countingNode
	a, b *countingNode
}

func (twinBatcher) NewNodes(infos []NodeInfo, dst []Node, s *Scratch) {
	nodes := Slab[twinNode](s, len(infos))
	as := Slab[countingNode](s, len(infos))
	bs := Slab[countingNode](s, len(infos))
	for i, info := range infos {
		nodes[i] = twinNode{countingNode: countingNode{info: info}, a: &as[i], b: &bs[i]}
		dst[i] = &nodes[i]
	}
}

func TestSlabReusesStorageAcrossResets(t *testing.T) {
	var s Scratch
	a := Slab[int](&s, 8)
	for i := range a {
		a[i] = i + 1
	}
	s.Reset()
	b := Slab[int](&s, 8)
	if &b[0] != &a[0] {
		t.Fatal("a slab after Reset did not reuse the storage the last one left")
	}
	for i, v := range b {
		if v != 0 {
			t.Fatalf("reused slab[%d] = %d, want zero", i, v)
		}
	}
	// A smaller request reuses the same array at the requested length.
	b[0] = 7
	s.Reset()
	if c := Slab[int](&s, 3); len(c) != 3 || &c[0] != &a[0] || c[0] != 0 {
		t.Fatalf("smaller slab: len %d, same storage %v, c[0] = %d", len(c), &c[0] == &a[0], c[0])
	}
	if allocs := testing.AllocsPerRun(10, func() {
		s.Reset()
		sink = Slab[int](&s, 8)
	}); allocs != 0 {
		t.Errorf("a warm slab allocates %.0f times, want 0", allocs)
	}
}

func TestSlabGrowsPastCapacity(t *testing.T) {
	var s Scratch
	small := Slab[uint64](&s, 4)
	small[3] = 9
	s.Reset()
	big := Slab[uint64](&s, 100)
	if len(big) != 100 {
		t.Fatalf("grown slab has length %d, want 100", len(big))
	}
	for i, v := range big {
		if v != 0 {
			t.Fatalf("grown slab[%d] = %d, want zero", i, v)
		}
	}
	// The grown array is the one kept: big -> small -> big reuses it.
	big[99] = 1
	s.Reset()
	if again := Slab[uint64](&s, 10); &again[0] != &big[0] {
		t.Error("a slab within the grown capacity did not reuse the grown array")
	}
	s.Reset()
	if again := Slab[uint64](&s, 100); &again[0] != &big[0] || again[99] != 0 {
		t.Error("the grown array was not reused, zeroed, at full size")
	}
}

func TestSlabSameTypeWithinOneCallIsDistinct(t *testing.T) {
	infos := make([]NodeInfo, 5)
	for i := range infos {
		infos[i] = NodeInfo{Degree: i + 1, Source: i == 0}
	}
	dst := make([]Node, len(infos))
	var s Scratch
	var firstAs []*countingNode
	for run := 0; run < 3; run++ {
		s.Reset()
		twinBatcher{}.NewNodes(infos, dst, &s)
		as := make([]*countingNode, len(dst))
		for i, nd := range dst {
			tn := nd.(*twinNode)
			if tn.info.Degree != i+1 || tn.a.received != 0 || tn.b.received != 0 {
				t.Fatalf("run %d node %d: automaton not built fresh from its info", run, i)
			}
			// Writing one slab must not show through the other.
			tn.a.received = 100 + i
			as[i] = tn.a
		}
		for i, nd := range dst {
			if tn := nd.(*twinNode); tn.b.received != 0 || tn.a.received != 100+i {
				t.Fatalf("run %d node %d: two same-typed slabs share storage", run, i)
			}
		}
		if run == 0 {
			firstAs = as
			continue
		}
		// Later runs take the same arrays in the same order, zeroed.
		for i := range as {
			if as[i] != firstAs[i] {
				t.Fatalf("run %d: node %d's counter comes from fresh storage", run, i)
			}
		}
	}
	if len(s.slabs) != 3 {
		t.Errorf("three slabs per call kept %d arrays, want 3", len(s.slabs))
	}
}

// sink keeps a slab reachable, so the compiler cannot place it on the
// stack.
var sink []int

func TestSlabNilScratchAllocates(t *testing.T) {
	a := Slab[int](nil, 4)
	b := Slab[int](nil, 4)
	if len(a) != 4 || len(b) != 4 || &a[0] == &b[0] {
		t.Fatal("nil scratch: want two fresh 4-element slabs")
	}
	if allocs := testing.AllocsPerRun(10, func() { sink = Slab[int](nil, 4) }); allocs != 1 {
		t.Errorf("a nil-scratch slab allocates %.0f times, want 1", allocs)
	}
	// A batcher handed a nil scratch builds fresh automata every call.
	infos := make([]NodeInfo, 3)
	first, second := make([]Node, 3), make([]Node, 3)
	twinBatcher{}.NewNodes(infos, first, nil)
	twinBatcher{}.NewNodes(infos, second, nil)
	for i := range first {
		if first[i] == second[i] {
			t.Fatalf("node %d: nil-scratch batches share an automaton", i)
		}
	}
}
