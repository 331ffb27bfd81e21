package service

// Hot-reload tests: swapping the tenant control plane under live load
// drops nothing (run with -race), concurrent reloads publish each
// generation with its own policy, key rotation honors the overlap window
// exactly, usage ledgers survive a daemon restart byte-exactly, the admin
// endpoints enforce the admin bit, a keyfile store reloads like a durable
// one, and a store that cannot build a registry fails closed.

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"oraclesize/internal/tenant"
)

// openTestStore builds a tenant store in a temp dir seeded with specs.
func openTestStore(t *testing.T, specs ...tenant.Spec) *tenant.Store {
	t.Helper()
	st, err := tenant.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for _, sp := range specs {
		if _, err := st.PutKey(sp); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// reqKey issues a request with an API key and no body.
func reqKey(t *testing.T, h http.Handler, method, path, key string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, nil)
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// TestReloadUnderLoad hammers /v1/advice from four clients while a
// reloader loops ReloadFromStore as fast as it can. Every single request
// must serve 200 — a reload swaps policy, it never drops an in-flight or
// concurrent request — and the final ledger totals must account for every
// request despite the table being rebuilt dozens of times mid-flight.
// Run with -race: this is the test that pins the atomic-pointer swap.
func TestReloadUnderLoad(t *testing.T) {
	st := openTestStore(t,
		tenant.Spec{Name: "alpha", Key: "alpha-key-0000", Weight: 2},
		tenant.Spec{Name: "beta", Key: "beta-key-00000"},
	)
	s := newTestServer(t, Config{TenantStore: st})

	const clients, perClient = 4, 150
	keys := []string{"alpha-key-0000", "beta-key-00000"}
	done := make(chan struct{})
	var reloaderWG sync.WaitGroup
	reloaderWG.Add(1)
	go func() {
		defer reloaderWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, _, err := s.ReloadFromStore(); err != nil {
				t.Errorf("reload under load: %v", err)
				return
			}
		}
	}()

	var clientWG sync.WaitGroup
	codes := make([]map[int]int, clients)
	for c := 0; c < clients; c++ {
		clientWG.Add(1)
		codes[c] = make(map[int]int)
		go func(c int) {
			defer clientWG.Done()
			key := keys[c%len(keys)]
			for i := 0; i < perClient; i++ {
				body := map[string]any{"family": "random-sparse", "n": 16, "seed": i % 8, "task": "wakeup"}
				w := postJSONKey(t, s.Handler(), "/v1/advice", key, body)
				codes[c][w.Code]++
			}
		}(c)
	}
	clientWG.Wait()
	close(done)
	reloaderWG.Wait()

	for c := range codes {
		if codes[c][http.StatusOK] != perClient {
			t.Errorf("client %d: codes %v, want %d×200 — a reload dropped requests", c, codes[c], perClient)
		}
	}
	if n := s.metrics.reloads.Load(); n == 0 {
		t.Error("reloader never completed a swap")
	}

	// Counter state rode across every swap: the persisted ledgers account
	// for each of the 600 requests.
	s.FlushLedgers()
	got := st.Ledger("alpha").Requests + st.Ledger("beta").Requests
	if want := int64(clients * perClient); got != want {
		t.Errorf("persisted request ledgers total %d, want %d — reloads lost counter state", got, want)
	}
}

// TestRotationOverlapWindow pins the key-rotation contract on a live
// server: after Rotate + reload, both the old and the new key serve
// inside the overlap window; at the instant the window closes the old key
// is 401 while the new one keeps serving. A second rotation with zero
// overlap cuts over immediately.
func TestRotationOverlapWindow(t *testing.T) {
	st := openTestStore(t, tenant.Spec{Name: "rot", Key: "rot-key-000001"})
	base := time.Unix(40000, 0)
	var clockMu sync.Mutex
	now := base
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	setNow := func(at time.Time) {
		clockMu.Lock()
		now = at
		clockMu.Unlock()
	}
	s := newTestServer(t, Config{TenantStore: st})
	s.now = clock

	check := func(key string, want int, when string) {
		t.Helper()
		if w := postJSONKey(t, s.Handler(), "/v1/run", key, tenantRunBody); w.Code != want {
			t.Fatalf("%s: key %q status %d, want %d: %s", when, key, w.Code, want, w.Body.String())
		}
	}
	check("rot-key-000001", http.StatusOK, "before rotation")

	// Rotate with a 10-minute overlap and hot-reload. The clock is the
	// server's, so the window is measured in virtual time.
	if _, err := st.Rotate("rot", "rot-key-000002", 10*time.Minute, base); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReloadFromStore(); err != nil {
		t.Fatal(err)
	}
	check("rot-key-000002", http.StatusOK, "new key at rotation")
	check("rot-key-000001", http.StatusOK, "old key at rotation")
	setNow(base.Add(10*time.Minute - time.Second))
	check("rot-key-000001", http.StatusOK, "old key just inside the window")
	check("rot-key-000002", http.StatusOK, "new key just inside the window")

	// The window closes at exactly base+10m: Authenticate requires
	// now < expiry, so the boundary instant already rejects.
	setNow(base.Add(10 * time.Minute))
	check("rot-key-000001", http.StatusUnauthorized, "old key at window close")
	check("rot-key-000002", http.StatusOK, "new key after window close")

	// Zero-overlap rotation: immediate cut-over.
	if _, err := st.Rotate("rot", "rot-key-000003", 0, base.Add(20*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ReloadFromStore(); err != nil {
		t.Fatal(err)
	}
	setNow(base.Add(20 * time.Minute))
	check("rot-key-000002", http.StatusUnauthorized, "old key after zero-overlap rotation")
	check("rot-key-000003", http.StatusOK, "new key after zero-overlap rotation")
}

// TestLedgerSurvivesRestart is the acceptance check for durable usage
// accounting: a server's final flush persists exact totals, a fresh
// server over the same store seeds its in-memory counters from them
// byte-exactly, and further traffic increments on top rather than
// resetting.
func TestLedgerSurvivesRestart(t *testing.T) {
	st := openTestStore(t, tenant.Spec{Name: "meter", Key: "meter-key-0000"})
	cfg := Config{TenantStore: st}
	s1 := mustNew(t, cfg)
	var stop1 sync.Once
	t.Cleanup(func() { stop1.Do(s1.Stop) })
	for i := 0; i < 5; i++ {
		w := postJSONKey(t, s1.Handler(), "/v1/run", "meter-key-0000", runBody(300+i))
		if w.Code != http.StatusOK {
			t.Fatalf("first life request %d: status %d: %s", i, w.Code, w.Body.String())
		}
	}
	stop1.Do(s1.Stop) // Stop's final flush persists the totals

	l1 := st.Ledger("meter")
	if l1.Requests != 5 || l1.Units != 5 {
		t.Fatalf("persisted ledger after first life = %+v, want 5 requests / 5 units", l1)
	}
	if l1.Bytes <= 0 {
		t.Fatalf("persisted ledger bytes = %d, want > 0", l1.Bytes)
	}

	// Second life: the seeded in-memory totals equal the persisted ledger
	// exactly — nothing lost, nothing invented.
	s2 := mustNew(t, cfg)
	var stop2 sync.Once
	t.Cleanup(func() { stop2.Do(s2.Stop) })
	if seeded := s2.table().states["meter"].ledger.totals(); seeded != l1 {
		t.Fatalf("restart seeded ledger %+v, want exactly %+v", seeded, l1)
	}
	for i := 0; i < 3; i++ {
		w := postJSONKey(t, s2.Handler(), "/v1/run", "meter-key-0000", runBody(400+i))
		if w.Code != http.StatusOK {
			t.Fatalf("second life request %d: status %d", i, w.Code)
		}
	}
	stop2.Do(s2.Stop)

	l2 := st.Ledger("meter")
	if l2.Requests != 8 || l2.Units != 8 {
		t.Fatalf("persisted ledger after second life = %+v, want 8 requests / 8 units", l2)
	}
	if l2.Bytes <= l1.Bytes || l2.QueueNanos < l1.QueueNanos {
		t.Fatalf("second-life ledger %+v did not grow from %+v", l2, l1)
	}
}

// TestAdminEndpoints pins the admin surface: 401 without credentials, 403
// for authenticated non-admin tenants, and for an admin tenant a usage
// report plus a reload that changes a running server's policy — quota
// tightening takes effect with no restart.
func TestAdminEndpoints(t *testing.T) {
	st := openTestStore(t,
		tenant.Spec{Name: "root", Key: "root-key-00000", Admin: true},
		tenant.Spec{Name: "peon", Key: "peon-key-00000"},
	)
	s := newTestServer(t, Config{TenantStore: st})

	// Authorization ladder on both admin endpoints.
	for _, ep := range []struct{ method, path string }{
		{"GET", "/v1/admin/tenants"},
		{"POST", "/v1/admin/tenants/reload"},
	} {
		if w := reqKey(t, s.Handler(), ep.method, ep.path, ""); w.Code != http.StatusUnauthorized {
			t.Errorf("%s %s without key: status %d, want 401", ep.method, ep.path, w.Code)
		}
		if w := reqKey(t, s.Handler(), ep.method, ep.path, "peon-key-00000"); w.Code != http.StatusForbidden {
			t.Errorf("%s %s as peon: status %d, want 403", ep.method, ep.path, w.Code)
		}
	}

	// The admin report lists both tenants with usage.
	if w := postJSONKey(t, s.Handler(), "/v1/run", "peon-key-00000", tenantRunBody); w.Code != http.StatusOK {
		t.Fatalf("peon run: status %d", w.Code)
	}
	w := reqKey(t, s.Handler(), "GET", "/v1/admin/tenants", "root-key-00000")
	if w.Code != http.StatusOK {
		t.Fatalf("admin show: status %d: %s", w.Code, w.Body.String())
	}
	// The report covers registered tenants plus the reserved
	// anonymous/unknown attribution states (4 entries here). peon's usage
	// shows 3 requests — the two 403 admin probes above are metered too —
	// and exactly 1 unit from the run.
	show := decode[adminTenantsResponse](t, w)
	if len(show.Tenants) != 4 {
		t.Fatalf("admin show listed %d tenants, want 4 (2 registered + 2 reserved): %s",
			len(show.Tenants), w.Body.String())
	}
	var peon *adminTenant
	for i := range show.Tenants {
		if show.Tenants[i].Name == "peon" {
			peon = &show.Tenants[i]
		}
	}
	if peon == nil || peon.Usage.Requests != 3 || peon.Usage.Units != 1 {
		t.Fatalf("admin show peon usage = %+v, want 3 requests / 1 unit", peon)
	}

	// Tighten peon's body cap in the store, reload through the admin
	// endpoint, and watch the running server start rejecting.
	if w := postJSONKey(t, s.Handler(), "/v1/run", "peon-key-00000", tenantRunBody); w.Code != http.StatusOK {
		t.Fatalf("peon before tightening: status %d", w.Code)
	}
	sp, ok := st.Get("peon")
	if !ok {
		t.Fatal("peon missing from store")
	}
	sp.Spec.MaxBodyBytes = 16
	if err := st.Put(sp); err != nil {
		t.Fatal(err)
	}
	w = reqKey(t, s.Handler(), "POST", "/v1/admin/tenants/reload", "root-key-00000")
	if w.Code != http.StatusOK {
		t.Fatalf("admin reload: status %d: %s", w.Code, w.Body.String())
	}
	ack := decode[reloadResponse](t, w)
	if ack.Generation != st.Generation() || ack.Tenants != 2 {
		t.Errorf("reload ack %+v, want generation %d with 2 tenants", ack, st.Generation())
	}
	if w := postJSONKey(t, s.Handler(), "/v1/run", "peon-key-00000", tenantRunBody); w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("peon after tightening: status %d, want 413: %s", w.Code, w.Body.String())
	}

	// Reloading an emptied store reports a conflict rather than locking
	// everyone out: the old table keeps serving.
	for _, name := range []string{"root", "peon"} {
		if err := st.Delete(name); err != nil {
			t.Fatal(err)
		}
	}
	if w := reqKey(t, s.Handler(), "POST", "/v1/admin/tenants/reload", "root-key-00000"); w.Code != http.StatusConflict {
		t.Errorf("reload of an emptied store: status %d, want 409: %s", w.Code, w.Body.String())
	}
	if w := postJSONKey(t, s.Handler(), "/v1/run", "peon-key-00000", tenantRunBody); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("peon after the failed reload: status %d, want 413 from the old table", w.Code)
	}
}

// TestConcurrentReloadsPublishOwnGeneration races four reloaders against
// a writer that sets MaxBodyBytes = k at store generation k. Every table
// a reload publishes must serve the policy of the generation it is
// labelled with: a reload that built generation k's registry while the
// writer moved the store to k+1 must not publish it as k+1, or a fleet
// member at "k+1" would skip the reload that brings its policy up to date.
func TestConcurrentReloadsPublishOwnGeneration(t *testing.T) {
	st := openTestStore(t, tenant.Spec{Name: "subject", Key: "subject-key-01", MaxBodyBytes: 1})
	s := newTestServer(t, Config{TenantStore: st})

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, _, err := s.ReloadFromStore(); err != nil {
					t.Errorf("reload: %v", err)
					return
				}
				tbl := s.table()
				if got := tbl.registry.Tenants()[0].Spec.MaxBodyBytes; got != int64(tbl.gen) {
					t.Errorf("table at generation %d serves MaxBodyBytes %d, want %d", tbl.gen, got, tbl.gen)
					return
				}
			}
		}()
	}
	sp, _ := st.Get("subject")
	for k := int64(2); k <= 200; k++ {
		sp.MaxBodyBytes = k
		if err := st.Put(sp); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// TestKeyfileStoreReload drives a server over tenant.OpenKeyfile through
// a keyfile edit and the admin reload: a removed key is refused, an added
// key serves and a tightened quota applies. An invalid edit is a 409 that
// leaves the old table serving.
func TestKeyfileStoreReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenants.json")
	write := func(doc string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	write(`{"tenants": [
		{"name": "root", "key": "root-key-00000", "admin": true},
		{"name": "gone", "key": "gone-key-00000"},
		{"name": "tight", "key": "tight-key-0000"}
	]}`)
	st, err := tenant.OpenKeyfile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{TenantStore: st})
	status := func(key string) int {
		t.Helper()
		return postJSONKey(t, s.Handler(), "/v1/run", key, tenantRunBody).Code
	}
	for key, want := range map[string]int{"gone-key-00000": 200, "tight-key-0000": 200, "added-key-0000": 401} {
		if got := status(key); got != want {
			t.Errorf("before the edit: key %s status %d, want %d", key, got, want)
		}
	}

	write(`{"tenants": [
		{"name": "root", "key": "root-key-00000", "admin": true},
		{"name": "tight", "key": "tight-key-0000", "max_body_bytes": 16},
		{"name": "added", "key": "added-key-0000"}
	]}`)
	w := reqKey(t, s.Handler(), "POST", "/v1/admin/tenants/reload", "root-key-00000")
	if w.Code != http.StatusOK {
		t.Fatalf("admin reload: status %d: %s", w.Code, w.Body.String())
	}
	if ack := decode[reloadResponse](t, w); ack.Tenants != 3 || ack.Generation != st.Generation() {
		t.Errorf("reload ack %+v, want 3 tenants at generation %d", ack, st.Generation())
	}
	after := map[string]int{"gone-key-00000": 401, "added-key-0000": 200, "tight-key-0000": 413}
	for key, want := range after {
		if got := status(key); got != want {
			t.Errorf("after the edit: key %s status %d, want %d", key, got, want)
		}
	}

	for name, doc := range map[string]string{
		"unknown field":         `{"tenants": [{"name": "root", "key": "root-key-00000", "admin": true, "rate_per_second": 5}]}`,
		"removed max_campaigns": `{"tenants": [{"name": "root", "key": "root-key-00000", "admin": true, "max_campaigns": 2}]}`,
		"duplicate key": `{"tenants": [{"name": "root", "key": "root-key-00000", "admin": true},
			{"name": "twin", "key": "root-key-00000"}]}`,
	} {
		write(doc)
		if w := reqKey(t, s.Handler(), "POST", "/v1/admin/tenants/reload", "root-key-00000"); w.Code != http.StatusConflict {
			t.Errorf("%s: reload status %d, want 409: %s", name, w.Code, w.Body.String())
		}
		for key, want := range after {
			if got := status(key); got != want {
				t.Errorf("%s: key %s status %d, want %d from the old table", name, key, got, want)
			}
		}
	}
}

// TestNewRefusesUnbuildableStore: a store with tenants that does not
// build a registry (here two tenants share one key) must fail New, never
// come up serving anonymously.
func TestNewRefusesUnbuildableStore(t *testing.T) {
	st := openTestStore(t,
		tenant.Spec{Name: "one", Key: "shared-key-000"},
		tenant.Spec{Name: "two", Key: "shared-key-000"},
	)
	s, err := New(Config{TenantStore: st})
	if err == nil {
		s.Stop()
		t.Fatal("New accepted a store whose tenants share a key digest")
	}
	if s != nil {
		t.Fatal("New returned a server alongside its error")
	}
}
