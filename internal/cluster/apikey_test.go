package cluster

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"oraclesize/internal/campaign"
	"oraclesize/internal/service"
	"oraclesize/internal/tenant"
)

// TestDispatchCarriesAPIKey drives a real multi-tenant worker: a
// coordinator configured with the tenant's key completes the campaign
// (every probe and shard dispatch authenticated), while a keyless
// coordinator is refused with 401s until its attempts run out.
func TestDispatchCarriesAPIKey(t *testing.T) {
	st := tenant.NewMemStore()
	if _, err := st.PutKey(tenant.Spec{Name: "herd", Key: "herd-key-1234"}); err != nil {
		t.Fatal(err)
	}
	srv, err := service.New(service.Config{Workers: 2, QueueDepth: 32, TenantStore: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	spec := campaign.QuickSpec()
	want := localRun(t, spec, nil)

	cfg := fastConfig(ts.URL)
	cfg.APIKey = "herd-key-1234"
	var buf bytes.Buffer
	c, err := New(cfg, spec, campaign.NewSink(&buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background()); err != nil {
		t.Fatalf("authenticated run: %v", err)
	}
	if stripWall(buf.Bytes()) != stripWall(want.Bytes()) {
		t.Fatal("authenticated artifact differs from local run")
	}

	noKey := fastConfig(ts.URL)
	noKey.MaxAttempts = 2
	c2, err := New(noKey, spec, campaign.NewSink(&bytes.Buffer{}), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c2.Run(context.Background())
	if err == nil {
		t.Fatal("keyless run succeeded against a multi-tenant worker")
	}
	if !strings.Contains(err.Error(), "401") {
		t.Fatalf("keyless run failed with %v, want a 401 dispatch error", err)
	}
}
