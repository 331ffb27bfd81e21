package graph

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// refBuilder is the per-node-slice builder the two-pass Builder replaced,
// kept as the reference FuzzBuilder checks it against: every AddEdge grows
// its endpoints' port slices in place and refuses a used port at once.
type refBuilder struct {
	labels []int64
	adj    [][]Half
	err    error
}

func newRefBuilder(n int) *refBuilder {
	b := &refBuilder{labels: make([]int64, n), adj: make([][]Half, n)}
	for v := range b.labels {
		b.labels[v] = int64(v) + 1
	}
	return b
}

func (b *refBuilder) SetLabel(v NodeID, label int64) {
	if b.err != nil {
		return
	}
	if int(v) >= len(b.labels) {
		b.err = fmt.Errorf("graph: SetLabel on invalid node %d", v)
		return
	}
	b.labels[v] = label
}

func (b *refBuilder) AddEdgeAuto(u, v NodeID) {
	if b.err != nil {
		return
	}
	b.AddEdge(u, len(b.adj[u]), v, len(b.adj[v]))
}

func (b *refBuilder) AddEdge(u NodeID, pu int, v NodeID, pv int) {
	if b.err != nil {
		return
	}
	if u == v {
		b.err = fmt.Errorf("graph: self-loop at node %d", u)
		return
	}
	if int(u) >= len(b.adj) || int(v) >= len(b.adj) || u < 0 || v < 0 {
		b.err = fmt.Errorf("graph: AddEdge on invalid nodes %d, %d", u, v)
		return
	}
	b.growPorts(u, pu)
	b.growPorts(v, pv)
	if b.err != nil {
		return
	}
	if b.adj[u][pu].To != -1 {
		b.err = fmt.Errorf("graph: port %d at node %d already in use", pu, u)
		return
	}
	if b.adj[v][pv].To != -1 {
		b.err = fmt.Errorf("graph: port %d at node %d already in use", pv, v)
		return
	}
	b.adj[u][pu] = Half{To: v, ToPort: pv}
	b.adj[v][pv] = Half{To: u, ToPort: pu}
}

func (b *refBuilder) growPorts(v NodeID, p int) {
	if p < 0 {
		b.err = fmt.Errorf("graph: negative port %d at node %d", p, v)
		return
	}
	for len(b.adj[v]) <= p {
		b.adj[v] = append(b.adj[v], Half{To: -1})
	}
}

func (b *refBuilder) Graph() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	m := 0
	for v := range b.adj {
		for p, h := range b.adj[v] {
			if h.To == -1 {
				return nil, fmt.Errorf("graph: unused port %d at node %d (ports must be contiguous)", p, v)
			}
		}
		m += len(b.adj[v])
	}
	if m%2 != 0 {
		return nil, errors.New("graph: internal error: odd half-edge count")
	}
	halves := make([]Half, 0, m)
	offsets := make([]int32, len(b.adj)+1)
	for v := range b.adj {
		offsets[v] = int32(len(halves))
		halves = append(halves, b.adj[v]...)
	}
	offsets[len(b.adj)] = int32(len(halves))
	g := &Graph{
		labels:  b.labels,
		halves:  halves,
		offsets: offsets,
		byLabel: make(map[int64]NodeID, len(b.labels)),
		m:       m / 2,
	}
	for v, l := range b.labels {
		g.byLabel[l] = NodeID(v)
	}
	if err := refValidate(g); err != nil {
		return nil, err
	}
	return g, nil
}

// refValidate is Validate as it was beside refBuilder: a label map and one
// neighbour map per node.
func refValidate(g *Graph) error {
	seen := make(map[int64]NodeID, g.N())
	for v := NodeID(0); int(v) < g.N(); v++ {
		if prev, dup := seen[g.labels[v]]; dup {
			return fmt.Errorf("graph: duplicate label %d on nodes %d and %d", g.labels[v], prev, v)
		}
		seen[g.labels[v]] = v
		neighbors := make(map[NodeID]bool, g.Degree(v))
		for p, h := range g.Ports(v) {
			if h.To == v {
				return fmt.Errorf("graph: self-loop at node %d port %d", v, p)
			}
			if h.To < 0 || int(h.To) >= g.N() {
				return fmt.Errorf("graph: node %d port %d points to invalid node %d", v, p, h.To)
			}
			if neighbors[h.To] {
				return fmt.Errorf("graph: parallel edge between %d and %d", v, h.To)
			}
			neighbors[h.To] = true
			if h.ToPort < 0 || h.ToPort >= g.Degree(h.To) {
				return fmt.Errorf("graph: node %d port %d has reverse port %d out of range at node %d", v, p, h.ToPort, h.To)
			}
			back := g.Ports(h.To)[h.ToPort]
			if back.To != v || back.ToPort != p {
				return fmt.Errorf("graph: asymmetric edge %d:%d <-> %d:%d", v, p, h.To, h.ToPort)
			}
		}
	}
	if len(g.halves) != 2*g.m {
		return fmt.Errorf("graph: edge count %d inconsistent with half-edge total %d", g.m, len(g.halves))
	}
	return nil
}

// builderOps replays ops on a fresh pair of builders for n nodes. Each op
// is five bytes: a kind (SetLabel, AddEdge, AddEdgeAuto), then operands
// decoded so that nodes reach one past either end of [0, n), ports reach
// -1 and past every degree a small graph can have, and labels collide.
// A non-nil log receives each call as text.
func builderOps(n int, ops []byte, log *[]string) (*Builder, *refBuilder) {
	b, ref := NewBuilder(n), newRefBuilder(n)
	node := func(x byte) NodeID { return NodeID(int(x)%(n+2) - 1) }
	port := func(x byte) int { return int(x%10) - 1 }
	note := func(format string, args ...any) {
		if log != nil {
			*log = append(*log, fmt.Sprintf(format, args...))
		}
	}
	for ; len(ops) >= 5; ops = ops[5:] {
		switch op := ops[:5]; op[0] % 3 {
		case 0:
			v, label := node(op[1]), int64(op[2]%12)
			note("SetLabel(%d, %d)", v, label)
			b.SetLabel(v, label)
			ref.guard(func() { ref.SetLabel(v, label) })
		case 1:
			u, pu, v, pv := node(op[1]), port(op[2]), node(op[3]), port(op[4])
			note("AddEdge(%d, %d, %d, %d)", u, pu, v, pv)
			b.AddEdge(u, pu, v, pv)
			ref.guard(func() { ref.AddEdge(u, pu, v, pv) })
		case 2:
			u, v := node(op[1]), node(op[2])
			note("AddEdgeAuto(%d, %d)", u, v)
			b.AddEdgeAuto(u, v)
			ref.guard(func() { ref.AddEdgeAuto(u, v) })
		}
	}
	return b, ref
}

// guard runs one reference call, latching its index-out-of-range panics
// on invalid nodes (AddEdgeAuto, and SetLabel below 0) as a rejection.
func (b *refBuilder) guard(call func()) {
	defer func() {
		if r := recover(); r != nil {
			b.err = fmt.Errorf("reference panicked: %v", r)
		}
	}()
	call()
}

// FuzzBuilder drives the two-pass Builder and the per-node-slice reference
// with one random sequence of SetLabel, AddEdge and AddEdgeAuto calls.
// Both must accept or both reject, and an accepted build must give equal
// graphs: labels, CSR arrays, edge count and label index.
func FuzzBuilder(f *testing.F) {
	f.Add(uint8(3), []byte{2, 1, 2, 0, 0, 2, 2, 3, 0, 0, 2, 3, 4, 0, 0})          // path
	f.Add(uint8(2), []byte{1, 1, 2, 2, 1, 1, 2, 2, 3, 2, 1, 3, 1, 1, 1})          // triangle, explicit ports
	f.Add(uint8(2), []byte{1, 1, 1, 2, 1, 1, 1, 1, 3, 1})                         // port reuse
	f.Add(uint8(1), []byte{1, 1, 2, 2, 1})                                        // port gap
	f.Add(uint8(1), []byte{0, 1, 7, 0, 0, 0, 2, 7, 0, 0, 2, 1, 2, 0, 0})          // duplicate labels
	f.Add(uint8(1), []byte{2, 1, 3, 0, 0})                                        // AddEdgeAuto past n
	f.Add(uint8(1), []byte{0, 0, 5, 0, 0, 2, 1, 2, 0, 0})                         // SetLabel(-1, 5)
	f.Add(uint8(3), []byte{1, 1, 2, 2, 1, 2, 1, 3, 0, 0, 1, 1, 1, 4, 1})          // auto port past an explicit one
	f.Add(uint8(4), []byte{2, 1, 2, 0, 0, 2, 2, 3, 0, 0, 1, 4, 1, 5, 1, 2, 3, 4}) // mixed, torn tail
	f.Fuzz(func(t *testing.T, n uint8, ops []byte) {
		b, ref := builderOps(1+int(n%8), ops, nil)
		g, err := b.Graph()
		want, wantErr := ref.Graph()
		calls := func() []string {
			var log []string
			builderOps(1+int(n%8), ops, &log)
			return log
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%v\nBuilder: %v\nreference: %v", calls(), err, wantErr)
		}
		if err != nil {
			return
		}
		if !slices.Equal(g.labels, want.labels) || !slices.Equal(g.offsets, want.offsets) ||
			!slices.Equal(g.halves, want.halves) || g.m != want.m {
			t.Fatalf("%v\nBuilder: %+v\nreference: %+v", calls(), g, want)
		}
		// Every label, and two labels no node carries under the default
		// labeling, resolve as the reference's label map resolves them.
		for _, l := range append([]int64{0, int64(len(want.labels)) + 1}, want.labels...) {
			v, ok := g.NodeByLabel(l)
			wv, wok := want.NodeByLabel(l)
			if v != wv || ok != wok {
				t.Fatalf("%v\nNodeByLabel(%d) = %d, %v; reference %d, %v", calls(), l, v, ok, wv, wok)
			}
		}
	})
}
