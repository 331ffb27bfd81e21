package tenant

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestNewRegistryValidation(t *testing.T) {
	valid := Spec{Name: "alpha", Key: "alpha-secret"}
	cases := []struct {
		name  string
		specs []Spec
		want  string
	}{
		{"empty", nil, "at least one"},
		{"bad name", []Spec{{Name: "a b", Key: "long-enough"}}, "not [A-Za-z0-9_-]+"},
		{"reserved anonymous", []Spec{{Name: "anonymous", Key: "long-enough"}}, "reserved"},
		{"reserved unknown", []Spec{{Name: "unknown", Key: "long-enough"}}, "reserved"},
		{"dup name", []Spec{valid, {Name: "alpha", Key: "other-secret"}}, "duplicate name"},
		{"short key", []Spec{{Name: "alpha", Key: "short"}}, "shorter than"},
		{"dup key", []Spec{valid, {Name: "beta", Key: "alpha-secret"}}, "already registered"},
		{"negative", []Spec{{Name: "alpha", Key: "alpha-secret", Weight: -1}}, "negative limit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewRegistry(tc.specs)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestNewRegistryTooMany(t *testing.T) {
	specs := make([]Spec, MaxTenants+1)
	for i := range specs {
		specs[i] = Spec{Name: "t" + itoa(i), Key: "secret-key-" + itoa(i)}
	}
	if _, err := NewRegistry(specs); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("error %v, want cap exceeded", err)
	}
	if _, err := NewRegistry(specs[:MaxTenants]); err != nil {
		t.Fatalf("exactly MaxTenants should load: %v", err)
	}
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}

func TestRegistryDefaults(t *testing.T) {
	r, err := NewRegistry([]Spec{{Name: "alpha", Key: "alpha-secret", RatePerSec: 50}})
	if err != nil {
		t.Fatal(err)
	}
	got := r.Tenants()[0]
	if got.Spec.Weight != 1 {
		t.Fatalf("default weight = %d, want 1", got.Spec.Weight)
	}
	if got.Spec.Burst != 50 {
		t.Fatalf("default burst = %v, want rate 50", got.Spec.Burst)
	}
	if got.Spec.Key != "" {
		t.Fatal("raw key retained on tenant")
	}
}

func TestAuthenticate(t *testing.T) {
	r, err := NewRegistry([]Spec{
		{Name: "alpha", Key: "alpha-secret"},
		{Name: "beta", Key: "beta-secret-key"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		key, want string
	}{
		{"alpha-secret", "alpha"},
		{"beta-secret-key", "beta"},
	} {
		got, ok := r.Authenticate(tc.key, time.Time{})
		if !ok || got.Spec.Name != tc.want {
			t.Fatalf("Authenticate(%q) = %v, %v; want %s", tc.key, got, ok, tc.want)
		}
	}
	for _, bad := range []string{"", "alpha-secret ", "Alpha-secret", "alpha-secre", "alpha-secrets"} {
		if got, ok := r.Authenticate(bad, time.Time{}); ok {
			t.Fatalf("Authenticate(%q) matched tenant %s", bad, got.Spec.Name)
		}
	}
}

// TestAuthenticateScansAllTenants pins the constant-time shape of the
// lookup: a match early in the registry must not short-circuit the scan,
// which we can observe by a later tenant with the same digest being
// unreachable at registration (enforced), and by the scan result being
// the match index regardless of position.
func TestAuthenticateScansAllTenants(t *testing.T) {
	specs := make([]Spec, 64)
	for i := range specs {
		specs[i] = Spec{Name: "t" + itoa(i), Key: "secret-key-" + itoa(i)}
	}
	r, err := NewRegistry(specs)
	if err != nil {
		t.Fatal(err)
	}
	// First, last, and middle positions must all resolve identically.
	for _, i := range []int{0, 31, 63} {
		got, ok := r.Authenticate("secret-key-"+itoa(i), time.Time{})
		if !ok || got.Spec.Name != "t"+itoa(i) {
			t.Fatalf("position %d failed to authenticate", i)
		}
	}
}

// writeKeyfile writes doc to a keyfile in a fresh temp dir.
func writeKeyfile(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keys.json")
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadKeyfile(t *testing.T) {
	path := writeKeyfile(t, `{"tenants": [
		{"name": "research", "key": "research-key-1", "weight": 4, "rate_per_sec": 100},
		{"name": "ci", "key": "ci-key-00000", "max_queue_slots": 8}
	]}`)
	st := NewMemStore()
	if n, err := st.ImportKeyfile(path); err != nil || n != 2 {
		t.Fatalf("ImportKeyfile = %d, %v; want 2 tenants", n, err)
	}
	r, gen, err := st.Registry()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Tenants()) != 2 || gen != 2 {
		t.Fatalf("loaded %d tenants at generation %d, want 2 at 2", len(r.Tenants()), gen)
	}
	research, ok := r.Authenticate("research-key-1", time.Time{})
	if !ok || research.Spec.Weight != 4 || research.Spec.RatePerSec != 100 {
		t.Fatalf("research tenant mis-loaded: %+v", research)
	}
	ci, ok := r.Authenticate("ci-key-00000", time.Time{})
	if !ok || ci.Spec.MaxQueueSlots != 8 {
		t.Fatalf("ci tenant mis-loaded: %+v", ci)
	}
}

// TestLoadKeyfileRejectsUnknownFields: a keyfile field the Spec does not
// have fails the import with an error naming it, and imports nothing — a
// typoed limit, max_campaigns (the per-tenant campaign cap of the removed
// /v1/campaign endpoint) and labels (annotations nothing read).
func TestLoadKeyfileRejectsUnknownFields(t *testing.T) {
	for _, tc := range []struct {
		name, field, value string
	}{
		{"typo", "rate_per_second", "5"},
		{"removed max_campaigns", "max_campaigns", "5"},
		{"removed labels", "labels", `{"team": "theory"}`},
	} {
		path := writeKeyfile(t, `{"tenants": [{"name": "a", "key": "long-enough", "`+tc.field+`": `+tc.value+`}]}`)
		st := NewMemStore()
		want := `json: unknown field "` + tc.field + `"`
		if _, err := st.ImportKeyfile(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: ImportKeyfile = %v, want an error containing %s", tc.name, err, want)
		}
		if st.Len() != 0 {
			t.Errorf("%s: refused keyfile imported %d tenants", tc.name, st.Len())
		}
	}
}

func TestLoadKeyfileMissing(t *testing.T) {
	if _, err := NewMemStore().ImportKeyfile(filepath.Join(t.TempDir(), "nope.json")); err == nil {
		t.Fatal("missing keyfile accepted")
	}
}

// TestImportKeyfileIsAtomic: a keyfile that does not build a registry as
// a whole writes nothing, not even the valid tenants ahead of its bad
// entry, and the store's generation stays where it was.
func TestImportKeyfileIsAtomic(t *testing.T) {
	for _, tc := range []struct {
		name, doc, want string
	}{
		{"short key", `{"tenants":[{"name":"a","key":"aaaaaaaa-key"},{"name":"b","key":"short"}]}`,
			"key shorter than 8 bytes"},
		{"duplicate name", `{"tenants":[{"name":"c","key":"cccccccc-key"},{"name":"c","key":"cccccccc-key-2"}]}`,
			`duplicate name "c"`},
		{"duplicate key", `{"tenants":[{"name":"d","key":"shared-key-00"},{"name":"e","key":"shared-key-00"}]}`,
			"already registered"},
	} {
		dir := t.TempDir()
		st := openTestStore(t, dir)
		if _, err := st.PutKey(Spec{Name: "kept", Key: "kept-key-0000"}); err != nil {
			t.Fatal(err)
		}
		gen := st.Generation()
		if _, err := st.ImportKeyfile(writeKeyfile(t, tc.doc)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ImportKeyfile = %v, want an error containing %q", tc.name, err, tc.want)
		}
		if g, n := st.Generation(), st.Len(); g != gen || n != 1 {
			t.Errorf("%s: after the refused import: generation %d with %d tenants, want %d with 1", tc.name, g, n, gen)
		}
		st.Close()
		if n := openTestStore(t, dir).Len(); n != 1 {
			t.Errorf("%s: reopened store holds %d tenants, want 1", tc.name, n)
		}
	}
}

func TestAllowRateLimit(t *testing.T) {
	var b Bucket
	const rate, burst = 10, 2
	now := time.Unix(1000, 0)

	// Burst of 2 admits two back-to-back, then refuses.
	for i := 0; i < 2; i++ {
		if ok, _ := b.Take(rate, burst, now); !ok {
			t.Fatalf("request %d within burst refused", i)
		}
	}
	ok, retry := b.Take(rate, burst, now)
	if ok {
		t.Fatal("third instantaneous request admitted over burst")
	}
	if retry <= 0 || retry > 100*time.Millisecond {
		t.Fatalf("retryAfter = %v, want (0, 100ms] at 10/s", retry)
	}

	// After the advertised wait, exactly one token is back.
	now = now.Add(retry)
	if ok, _ := b.Take(rate, burst, now); !ok {
		t.Fatal("request refused after waiting the advertised Retry-After")
	}
	if ok, _ := b.Take(rate, burst, now); ok {
		t.Fatal("second request admitted without further refill")
	}

	// A long idle period refills only to burst, not beyond.
	now = now.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := b.Take(rate, burst, now); !ok {
			t.Fatalf("request %d within refilled burst refused", i)
		}
	}
	if ok, _ := b.Take(rate, burst, now); ok {
		t.Fatal("burst ceiling not enforced after idle refill")
	}
}

// TestAdoptBucketsCarriesSpentTokens pins the hot-reload bucket contract:
// a rate-limited tenant's spent tokens survive Refit (a reload is not a
// free refill), clamped to the new burst, while a tenant that was
// unlimited before the reload starts the newly tightened policy with its
// full burst — it has no spend history to carry.
func TestAdoptBucketsCarriesSpentTokens(t *testing.T) {
	now := time.Unix(2000, 0)
	var spent, fresh Bucket
	for i := 0; i < 4; i++ {
		if ok, _ := spent.Take(1, 4, now); !ok {
			t.Fatalf("request %d within burst refused", i)
		}
	}
	// fresh spent a token under an earlier limit, then went unlimited.
	if ok, _ := fresh.Take(1, 2, now); !ok {
		t.Fatal("fresh tenant's first request refused")
	}
	fresh.Refit(0, 0)

	// The reload: both tenants now run at rate 1, burst 2.
	spent.Refit(1, 2)
	fresh.Refit(1, 2)

	// spent drained its bucket before the reload: still refused.
	if ok, _ := spent.Take(1, 2, now); ok {
		t.Error("drained bucket refilled by reload")
	}
	// fresh was unlimited before: the tightened policy starts at burst.
	for i := 0; i < 2; i++ {
		if ok, _ := fresh.Take(1, 2, now); !ok {
			t.Fatalf("newly limited tenant refused request %d within its first burst", i)
		}
	}
	if ok, _ := fresh.Take(1, 2, now); ok {
		t.Error("newly limited tenant exceeded its burst")
	}
	// Refill continues from the spend history under the new policy.
	now = now.Add(time.Second)
	if ok, _ := spent.Take(1, 2, now); !ok {
		t.Error("spent tenant refused after one second of refill")
	}
}

func TestAllowUnlimited(t *testing.T) {
	var b Bucket
	now := time.Unix(3000, 0)
	for i := 0; i < 1000; i++ {
		if ok, _ := b.Take(0, 0, now); !ok {
			t.Fatal("unlimited tenant throttled")
		}
	}
}
