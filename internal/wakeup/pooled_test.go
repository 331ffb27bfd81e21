package wakeup_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"oraclesize/internal/broadcast"
	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/sim"
	"oraclesize/internal/spantree"
	"oraclesize/internal/wakeup"
)

// TestPooledAdviceConcurrent builds the wakeup advice, the broadcast
// advice and the light tree on eight graphs of different sizes at once,
// so the pooled search, grouping and Light storage pass between
// goroutines and sizes; every result must equal its sequential one (CI
// runs this package under -race).
func TestPooledAdviceConcurrent(t *testing.T) {
	type result struct {
		wakeup, broadcast sim.Advice
		light             []graph.Edge
	}
	build := func(g *graph.Graph) (result, error) {
		var r result
		var err error
		if r.wakeup, err = (wakeup.Oracle{}).Advise(g, 0); err != nil {
			return r, err
		}
		if r.broadcast, err = (broadcast.Oracle{}).Advise(g, 0); err != nil {
			return r, err
		}
		r.light, err = spantree.Light(g)
		return r, err
	}
	same := func(a, b sim.Advice) bool {
		if len(a) != len(b) {
			return false
		}
		for v := range a {
			if !a[v].Equal(b[v]) {
				return false
			}
		}
		return true
	}
	graphs := make([]*graph.Graph, 8)
	want := make([]result, len(graphs))
	for i := range graphs {
		n := 40 + 37*i
		g, err := graphgen.RandomConnected(n, 3*n, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = g
		if want[i], err = build(g); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(graphs))
	for i, g := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				got, err := build(g)
				switch {
				case err != nil:
					errs <- fmt.Errorf("graph %d: %v", i, err)
				case !same(got.wakeup, want[i].wakeup):
					errs <- fmt.Errorf("graph %d rep %d: wakeup advice differs from the sequential build", i, rep)
				case !same(got.broadcast, want[i].broadcast):
					errs <- fmt.Errorf("graph %d rep %d: broadcast advice differs from the sequential build", i, rep)
				case !reflect.DeepEqual(got.light, want[i].light):
					errs <- fmt.Errorf("graph %d rep %d: light tree differs from the sequential build", i, rep)
				default:
					continue
				}
				return
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
