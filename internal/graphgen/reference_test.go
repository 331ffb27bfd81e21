package graphgen

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"oraclesize/internal/graph"
)

// refRandomRegular is RandomRegular as it was before its pairing drew
// rand.Shuffle's numbers inline: every attempt refills the stubs, shuffles
// them with rand.Shuffle and only then checks the pairs. It is the
// reference FuzzGeneratorsMatchReference holds the generator to.
func refRandomRegular(n, d int, rng *rand.Rand) (*graph.Graph, error) {
	if d < 2 || d >= n || (n*d)%2 != 0 {
		return nil, fmt.Errorf("graphgen: no %d-regular graph on %d nodes", d, n)
	}
	const maxAttempts = 50000
	stubs := make([]int32, n*d)
	nbr := make([]int32, n*d)
	back := make([]int32, n*d)
	deg := make([]int32, n)
	try := func() bool {
		for v := range deg {
			for k := v * d; k < (v+1)*d; k++ {
				stubs[k] = int32(v)
			}
		}
		rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		clear(deg)
		for i := 0; i < len(stubs); i += 2 {
			u, v := stubs[i], stubs[i+1]
			if u == v || slices.Contains(nbr[int(u)*d:int(u)*d+int(deg[u])], v) {
				return false
			}
			pu, pv := deg[u], deg[v]
			nbr[int(u)*d+int(pu)], back[int(u)*d+int(pu)] = v, pv
			nbr[int(v)*d+int(pv)], back[int(v)*d+int(pv)] = u, pu
			deg[u]++
			deg[v]++
		}
		return true
	}
	connected := func() bool {
		seen := make([]bool, n)
		queue := []int32{0}
		seen[0] = true
		for i := 0; i < len(queue); i++ {
			u := int(queue[i])
			for _, v := range nbr[u*d : (u+1)*d] {
				if !seen[v] {
					seen[v] = true
					queue = append(queue, v)
				}
			}
		}
		return len(queue) == n
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if !try() || !connected() {
			continue
		}
		off := make([]int32, n+1)
		for v := range off {
			off[v] = int32(v * d)
		}
		perm := portPerms(off, rng)
		b := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			for k := u * d; k < (u+1)*d; k++ {
				if v := int(nbr[k]); u < v {
					b.AddEdge(graph.NodeID(u), int(perm[k]), graph.NodeID(v), int(perm[v*d+int(back[k])]))
				}
			}
		}
		return b.Graph()
	}
	return nil, fmt.Errorf("graphgen: failed to sample a connected %d-regular graph on %d nodes", d, n)
}

// refRandomConnected is RandomConnected as it was before its edge set
// became an open-addressed table: a map of used edges, slices.Sort into
// (u, v) order and rand.Shuffle with a swap closure.
func refRandomConnected(n, m int, rng *rand.Rand) (*graph.Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("graphgen: random connected graph needs n >= 2, got %d", n)
	}
	maxM := n * (n - 1) / 2
	if m < n-1 || m > maxM {
		return nil, fmt.Errorf("graphgen: m = %d out of range [%d, %d]", m, n-1, maxM)
	}
	keys := make([]uint64, 0, m)
	used := make(map[uint64]struct{}, m)
	add := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		k := uint64(u)<<32 | uint64(v)
		if _, dup := used[k]; u == v || dup {
			return
		}
		used[k] = struct{}{}
		keys = append(keys, k)
	}
	for i := 1; i < n; i++ {
		add(rng.Intn(i), i)
	}
	for len(keys) < m {
		add(rng.Intn(n), rng.Intn(n))
	}
	slices.Sort(keys)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	off := make([]int32, n+1)
	for _, k := range keys {
		off[k>>32+1]++
		off[uint32(k)+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	perm := portPerms(off, rng)
	b := graph.NewBuilder(n)
	for _, k := range keys {
		u, v := k>>32, uint64(uint32(k))
		b.AddEdge(graph.NodeID(u), int(perm[off[u]]), graph.NodeID(v), int(perm[off[v]]))
		off[u]++
		off[v]++
	}
	return b.Graph()
}

// FuzzGeneratorsMatchReference draws a shape and a seed and requires
// RandomRegular and RandomConnected to build the same port-numbered graph
// (by graphHash), or fail with the same error, as their references drawing
// from rand.New(rand.NewSource(seed)). RandomConnected, which takes the
// generator, must also leave it at the same point of its stream as its
// reference; RandomRegular draws from its own copy of the source. The seeds are
// the golden file's shapes below n = 300: the random-regular family's
// RandomRegular calls and the explicit ones, and the random-sparse and
// random-dense families' RandomConnected calls. An input encodes n as
// n-1 and a degree d as d-1.
func FuzzGeneratorsMatchReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		for _, c := range [][2]int{{6, 3}, {17, 4}, {64, 4}, {256, 4}, {10, 3}, {64, 3}, {256, 3}, {12, 6}, {64, 6}} {
			f.Add(true, uint16(c[0]-1), uint16(c[1]-1), seed)
		}
		for _, n := range []int{4, 17, 64, 256} {
			f.Add(false, uint16(n-1), uint16(min(2*n, n*(n-1)/2)), seed)
			f.Add(false, uint16(n-1), uint16(max(n*(n-1)/4, n-1)), seed)
		}
	}
	f.Fuzz(func(t *testing.T, regular bool, n, k uint16, seed int64) {
		nn := int(n)%300 + 1
		rg, rr := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		var g, want *graph.Graph
		var err, wantErr error
		if regular {
			// Degrees past 6 exhaust the attempt budget slowly at every
			// size; the golden file pins one such error already.
			d := int(k)%6 + 1
			g, err = RandomRegular(nn, d, seed)
			want, wantErr = refRandomRegular(nn, d, rr)
		} else {
			m := int(k) % (nn*(nn-1)/2 + 2)
			g, err = RandomConnected(nn, m, rg)
			want, wantErr = refRandomConnected(nn, m, rr)
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, reference %v", err, wantErr)
		}
		if err == nil && graphHash(g) != graphHash(want) {
			t.Fatalf("graph %s, reference %s", graphHash(g), graphHash(want))
		}
		if !regular {
			if a, b := rg.Int63(), rr.Int63(); a != b {
				t.Fatalf("next draw %d, reference %d", a, b)
			}
		}
	})
}
