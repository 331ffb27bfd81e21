package graphgen

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"oraclesize/internal/graph"
)

// graphHash digests a graph's labels and, node by node in port order,
// every port's (To, ToPort): two graphs hash alike only if they are the
// same port-numbered labeled instance.
func graphHash(g *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	put(uint64(g.N()))
	for v := graph.NodeID(0); int(v) < g.N(); v++ {
		put(uint64(g.Label(v)))
		put(uint64(g.Degree(v)))
		for _, p := range g.Ports(v) {
			put(uint64(p.To))
			put(uint64(p.ToPort))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// TestGeneratorsGolden pins every generator's output, port numbering
// included, against testdata/generators.golden: each Families() entry at
// n in {4, 17, 64, 256} (random-sparse, random-regular and grid also at
// 1024) for seeds 1-3, RandomRegular at an odd degree and at a degree whose
// pairing model rejects thousands of attempts, the gadget and tree
// builders, and both shufflers. Generators must keep their RNG draw order:
// a graph that moves here moves every record, table and served byte built
// on it.
func TestGeneratorsGolden(t *testing.T) {
	var out strings.Builder
	line := func(name string, g *graph.Graph, err error) {
		if err != nil {
			fmt.Fprintf(&out, "%s error: %v\n", name, err)
			return
		}
		fmt.Fprintf(&out, "%s n=%d m=%d %s\n", name, g.N(), g.M(), graphHash(g))
	}
	seeded := func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
	seeds := []int64{1, 2, 3}

	for _, fam := range Families() {
		sizes := []int{4, 17, 64, 256}
		switch fam.Name {
		case "random-sparse", "random-regular", "grid":
			sizes = append(sizes, 1024)
		}
		for _, n := range sizes {
			for _, seed := range seeds {
				g, err := fam.Generate(n, seed)
				line(fmt.Sprintf("%s/n=%d/seed=%d", fam.Name, n, seed), g, err)
			}
		}
	}
	for _, c := range []struct{ n, d int }{{10, 3}, {64, 3}, {256, 3}, {12, 6}, {64, 6}} {
		for _, seed := range seeds {
			g, err := RandomRegular(c.n, c.d, seed)
			line(fmt.Sprintf("RandomRegular(%d,%d)/seed=%d", c.n, c.d, seed), g, err)
		}
	}
	for _, c := range []struct{ n, k, count int }{{5, 3, 5}, {8, 4, 8}, {16, 5, 12}} {
		for _, seed := range seeds {
			rng := seeded(seed)
			s, err := RandomEdgeTuple(c.n, c.count, rng)
			if err != nil {
				t.Fatal(err)
			}
			g, err := CliqueGadget(c.n, c.k, s, RandomGadgetPairs(c.count, c.k, rng))
			line(fmt.Sprintf("CliqueGadget(%d,%d,|S|=%d)/seed=%d", c.n, c.k, c.count, seed), g, err)
		}
	}
	for _, c := range [][2]int{{3, 1}, {5, 7}, {12, 30}} {
		g, err := Lollipop(c[0], c[1])
		line(fmt.Sprintf("Lollipop(%d,%d)", c[0], c[1]), g, err)
	}
	for _, c := range [][2]int{{1, 1}, {4, 0}, {6, 3}} {
		g, err := Caterpillar(c[0], c[1])
		line(fmt.Sprintf("Caterpillar(%d,%d)", c[0], c[1]), g, err)
	}
	for _, c := range [][2]int{{1, 1}, {4, 6}, {20, 9}} {
		g, err := Broom(c[0], c[1])
		line(fmt.Sprintf("Broom(%d,%d)", c[0], c[1]), g, err)
	}
	for _, k := range []int{1, 4, 8} {
		g, err := BinomialTree(k)
		line(fmt.Sprintf("BinomialTree(%d)", k), g, err)
	}
	grid, err := Grid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := RandomConnected(64, 128, seeded(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, base := range []struct {
		name string
		g    *graph.Graph
	}{{"Grid(8,8)", grid}, {"RandomConnected(64,128)", sparse}} {
		for _, seed := range seeds {
			g, err := ShufflePorts(base.g, seeded(seed))
			line(fmt.Sprintf("ShufflePorts(%s)/seed=%d", base.name, seed), g, err)
			g, err = ShuffleLabels(base.g, seeded(seed))
			line(fmt.Sprintf("ShuffleLabels(%s)/seed=%d", base.name, seed), g, err)
		}
	}

	got := out.String()
	golden, err := os.ReadFile("testdata/generators.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(golden) {
		t.Errorf("generated graphs differ from testdata/generators.golden; got:\n%s", got)
	}
}

// TestRandomGeneratorAllocs pins the random families' construction cost at
// the sizes oracled's cold requests draw: each builds its graph in one
// pass, with its ports already shuffled, into buffers sized up front (the
// builder's edge log too, by Builder.Grow), and RandomRegular reuses one
// set of scratch arrays across its rejected pairings and draws from a
// pooled source. With default labels no label map is built. They measure
// 13 and 16 allocations; a per-node or per-attempt allocation fails the
// budget.
func TestRandomGeneratorAllocs(t *testing.T) {
	const budget = 24
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct {
		name string
		gen  func() (*graph.Graph, error)
	}{
		{"RandomConnected(256, 512)", func() (*graph.Graph, error) { return RandomConnected(256, 512, rng) }},
		{"RandomRegular(256, 4)", func() (*graph.Graph, error) { return RandomRegular(256, 4, 1) }},
	} {
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := tc.gen(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations", tc.name, allocs)
		if allocs > budget {
			t.Errorf("%s allocates %.0f times, budget %d", tc.name, allocs, budget)
		}
	}
}
