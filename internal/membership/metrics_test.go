package membership_test

import (
	"bytes"
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"oraclesize/internal/cluster"
	"oraclesize/internal/membership"
)

// TestMetricsExposition pins the fleet section of oracleherd's /metrics
// page for a fixed state against testdata/metrics.golden: three joins,
// one leave, one eviction, a draining member, and the advisor's
// recommendation.
func TestMetricsExposition(t *testing.T) {
	clk := newClock()
	fleet := newFleet(t, cluster.Config{Clock: clk, Client: probes{}.client()})
	srv := &membership.Server{
		Fleet: fleet,
		Advise: func() membership.Advice {
			return membership.Advice{BacklogUnits: 120, UnitSeconds: 0.375, TargetSeconds: 30, RecommendedWorkers: 2}
		},
	}
	for _, id := range []string{"http://w1:1", "http://w2:2", "http://w3:3"} {
		if _, err := fleet.Join(joinAs(id, membership.Heartbeat{})); err != nil {
			t.Fatal(err)
		}
	}
	fleet.Leave("http://w3:3")
	if _, err := fleet.Join(joinAs("http://silent:4", membership.Heartbeat{})); err != nil {
		t.Fatal(err)
	}
	clk.Advance(8 * time.Second)
	if _, err := fleet.Join(joinAs("http://w1:1", membership.Heartbeat{Draining: true})); err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Join(joinAs("http://w2:2", membership.Heartbeat{})); err != nil {
		t.Fatal(err)
	}
	clk.Advance(5 * time.Second)
	fleet.Sweep(context.Background())
	if _, _, evictions := fleet.Counters(); evictions != 1 {
		t.Fatalf("swept %d members, want the silent one", evictions)
	}

	var buf bytes.Buffer
	srv.WriteMetrics(&buf)
	compareGolden(t, "testdata/metrics.golden", buf.String())
}

// compareGolden fails the test at the first line where got departs from
// the golden file.
func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, w := strings.SplitAfter(got, "\n"), strings.SplitAfter(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			t.Fatalf("%s: line %d differs\n got %q\nwant %q", path, i+1, g[i], w[i])
		}
	}
	if len(g) != len(w) {
		t.Fatalf("%s: got %d lines, want %d", path, len(g), len(w))
	}
}
