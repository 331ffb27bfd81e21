package spantree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"oraclesize/internal/graphgen"
)

func TestLightAlwaysSpansWithBoundedContribution(t *testing.T) {
	// Claim 3.1 as a property: on ANY connected graph, Light returns a
	// spanning tree with Σ#2(w(e)) <= 4n.
	f := func(seed int64, nSeed, mSeed uint8) bool {
		n := int(nSeed%50) + 4
		maxM := n * (n - 1) / 2
		m := n - 1 + int(mSeed)%(maxM-(n-1)+1)
		g, err := graphgen.RandomConnected(n, m, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		edges, err := Light(g)
		if err != nil {
			return false
		}
		if len(edges) != n-1 {
			return false
		}
		if _, err := Rooted(g, edges, 0); err != nil {
			return false
		}
		return TotalContribution(edges) <= ContributionBound(g.N())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBFSAndDFSAlwaysSpanProperty(t *testing.T) {
	f := func(seed int64, nSeed uint8) bool {
		n := int(nSeed%40) + 3
		g, err := graphgen.RandomConnected(n, 2*n-3, rand.New(rand.NewSource(seed)))
		if err != nil {
			return false
		}
		for _, build := range []func() (*Tree, error){
			func() (*Tree, error) { return BFS(g, 0) },
			func() (*Tree, error) { return DFS(g, 0) },
		} {
			tr, err := build()
			if err != nil || tr.Validate(g) != nil || len(tr.Edges()) != n-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
