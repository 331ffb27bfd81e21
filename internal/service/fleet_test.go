package service

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestBeginDrainFlipsHealthz pins the draining contract the membership
// path relies on: before BeginDrain /healthz answers "ok" with no
// Retry-After; after it the status flips to "draining" with a Retry-After
// bounded by the request deadline, while the endpoint itself keeps
// answering 200 (a draining worker is reachable, just not leasable).
func TestBeginDrainFlipsHealthz(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 4, RequestTimeout: 30 * time.Second, ArtifactDir: t.TempDir()})
	t.Cleanup(srv.Stop)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	get := func() (status string, retryAfter string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /healthz status %d, want 200", resp.StatusCode)
		}
		var body struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("decoding /healthz: %v", err)
		}
		return body.Status, resp.Header.Get("Retry-After")
	}

	if status, ra := get(); status != "ok" || ra != "" {
		t.Fatalf("fresh server /healthz = (%q, Retry-After %q), want ok with no hint", status, ra)
	}
	if _, _, draining := srv.FleetReport(); draining {
		t.Fatal("FleetReport reports draining before BeginDrain")
	}

	srv.BeginDrain()
	status, ra := get()
	if status != "draining" {
		t.Fatalf("post-drain /healthz status = %q, want draining", status)
	}
	if ra != "30" {
		t.Fatalf("post-drain Retry-After = %q, want the 30s request deadline", ra)
	}
	if _, _, draining := srv.FleetReport(); !draining {
		t.Fatal("FleetReport does not carry the drain flag")
	}
}

// TestObserveUnitSeconds checks the worker-side EWMA: first sample taken
// verbatim, later samples folded at the sizer's alpha, junk ignored.
func TestObserveUnitSeconds(t *testing.T) {
	srv := mustNew(t, Config{Workers: 1, QueueDepth: 4, ArtifactDir: t.TempDir()})
	t.Cleanup(srv.Stop)

	if got := srv.UnitSeconds(); got != 0 {
		t.Fatalf("UnitSeconds before any sample = %g, want 0", got)
	}
	srv.observeUnitSeconds(0.1)
	if got := srv.UnitSeconds(); got != 0.1 {
		t.Fatalf("UnitSeconds after first sample = %g, want 0.1", got)
	}
	srv.observeUnitSeconds(0.2)
	want := unitEwmaAlpha*0.2 + (1-unitEwmaAlpha)*0.1
	if got := srv.UnitSeconds(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("UnitSeconds after second sample = %g, want %g", got, want)
	}
	for _, junk := range []float64{0, -1, math.Inf(1), math.NaN()} {
		srv.observeUnitSeconds(junk)
	}
	if got := srv.UnitSeconds(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("UnitSeconds disturbed by junk samples: %g, want %g", got, want)
	}
}
