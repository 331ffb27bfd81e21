package graphgen

import (
	"fmt"
	"math"

	"oraclesize/internal/graph"
)

// Family is a named parametric graph family used to sweep experiments over
// topologies. Generate receives a requested size and a seed; it may round
// the size to the nearest feasible value (e.g. powers of two for
// hypercubes) but must return a connected graph of at least two nodes.
// The random families draw what a fresh rand.New(rand.NewSource(seed))
// would draw, from a pooled copy of that source.
type Family struct {
	Name     string
	Generate func(n int, seed int64) (*graph.Graph, error)
}

// Families returns the standard battery of families used by experiments
// E1, E3, E5 and E8. The slice is fresh on every call.
func Families() []Family {
	return []Family{
		{Name: "path", Generate: func(n int, _ int64) (*graph.Graph, error) { return Path(n) }},
		{Name: "cycle", Generate: func(n int, _ int64) (*graph.Graph, error) { return Cycle(maxInt(n, 3)) }},
		{Name: "star", Generate: func(n int, _ int64) (*graph.Graph, error) { return Star(n) }},
		{Name: "binary-tree", Generate: func(n int, _ int64) (*graph.Graph, error) { return DAryTree(n, 2) }},
		{
			Name: "grid",
			Generate: func(n int, _ int64) (*graph.Graph, error) {
				side := int(math.Round(math.Sqrt(float64(n))))
				if side < 2 {
					side = 2
				}
				return Grid(side, side)
			},
		},
		{
			Name: "hypercube",
			Generate: func(n int, _ int64) (*graph.Graph, error) {
				d := 1
				for (1 << uint(d+1)) <= n {
					d++
				}
				return Hypercube(d)
			},
		},
		{
			Name: "random-sparse",
			Generate: func(n int, seed int64) (*graph.Graph, error) {
				if n < 2 {
					return nil, fmt.Errorf("graphgen: need n >= 2, got %d", n)
				}
				m := minInt(2*n, n*(n-1)/2)
				s := newSeeded(seed)
				defer seededPool.Put(s)
				return RandomConnected(n, m, s.rng)
			},
		},
		{
			Name: "random-dense",
			Generate: func(n int, seed int64) (*graph.Graph, error) {
				if n < 2 {
					return nil, fmt.Errorf("graphgen: need n >= 2, got %d", n)
				}
				m := n * (n - 1) / 4
				if m < n-1 {
					m = n - 1
				}
				s := newSeeded(seed)
				defer seededPool.Put(s)
				return RandomConnected(n, m, s.rng)
			},
		},
		{
			Name: "complete",
			Generate: func(n int, _ int64) (*graph.Graph, error) {
				return Complete(maxInt(n, 2))
			},
		},
		{
			Name: "torus",
			Generate: func(n int, _ int64) (*graph.Graph, error) {
				side := int(math.Round(math.Sqrt(float64(n))))
				if side < 3 {
					side = 3
				}
				return Torus(side, side)
			},
		},
		{
			Name: "wheel",
			Generate: func(n int, _ int64) (*graph.Graph, error) {
				return Wheel(maxInt(n, 4))
			},
		},
		{
			Name: "complete-bipartite",
			Generate: func(n int, _ int64) (*graph.Graph, error) {
				half := maxInt(n/2, 1)
				return CompleteBipartite(half, n-half)
			},
		},
		{
			Name: "random-regular",
			Generate: func(n int, seed int64) (*graph.Graph, error) {
				d := 4
				if n*d%2 != 0 {
					n++
				}
				if d >= n {
					d = n - 1
					if n*d%2 != 0 {
						d--
					}
				}
				return RandomRegular(maxInt(n, 6), d, seed)
			},
		},
		{
			Name: "subdivided-complete",
			Generate: func(n int, seed int64) (*graph.Graph, error) {
				// G_{m,S} has 2m nodes; pick m = n/2.
				m := maxInt(n/2, 4)
				r := newSeeded(seed)
				defer seededPool.Put(r)
				s, err := RandomEdgeTuple(m, m, r.rng)
				if err != nil {
					return nil, err
				}
				return SubdividedComplete(m, s)
			},
		},
	}
}

// families is the registry FamilyByName searches, built once.
var families = Families()

// FamilyByName returns the named family.
func FamilyByName(name string) (Family, error) {
	for _, f := range families {
		if f.Name == name {
			return f, nil
		}
	}
	return Family{}, fmt.Errorf("graphgen: unknown family %q", name)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
