package tenant

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"oraclesize/internal/wal"
)

func openTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("OpenStore(%s): %v", dir, err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestStorePutGetDelete(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	if g := st.Generation(); g != 0 {
		t.Fatalf("fresh store generation = %d, want 0", g)
	}
	if _, err := st.PutKey(Spec{Name: "alpha", Key: "alpha-secret", Weight: 2, RatePerSec: 10}); err != nil {
		t.Fatalf("PutKey alpha: %v", err)
	}
	if _, err := st.PutKey(Spec{Name: "beta", Key: "beta-secret-1", MaxQueueSlots: 4}); err != nil {
		t.Fatalf("PutKey beta: %v", err)
	}
	if g := st.Generation(); g != 2 {
		t.Fatalf("generation after two puts = %d, want 2", g)
	}
	sp, ok := st.Get("alpha")
	if !ok || sp.Weight != 2 || sp.RatePerSec != 10 {
		t.Fatalf("Get alpha = %+v, %v", sp, ok)
	}
	if sp.Key != "" {
		t.Fatalf("raw key leaked into stored spec: %q", sp.Key)
	}
	if sp.KeyDigest != DigestKey("alpha-secret") {
		t.Fatalf("stored digest mismatch")
	}
	if err := st.Delete("beta"); err != nil {
		t.Fatalf("Delete beta: %v", err)
	}
	if _, ok := st.Get("beta"); ok {
		t.Fatalf("beta still present after delete")
	}
	if g := st.Generation(); g != 3 {
		t.Fatalf("generation after delete = %d, want 3", g)
	}

	// Reopen: everything replays from the WAL.
	st.Close()
	st2 := openTestStore(t, dir)
	if g := st2.Generation(); g != 3 {
		t.Fatalf("replayed generation = %d, want 3", g)
	}
	if n := st2.Len(); n != 1 {
		t.Fatalf("replayed tenant count = %d, want 1", n)
	}
	if _, ok := st2.Get("alpha"); !ok {
		t.Fatalf("alpha lost on replay")
	}
	if _, ok := st2.Get("beta"); ok {
		t.Fatalf("deleted beta resurrected on replay")
	}
}

func TestStoreRejectsRawKeyAndBadDigest(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	err := st.Put(StoredSpec{Spec: Spec{Name: "x", Key: "raw-secret-key"}, KeyDigest: DigestKey("k")})
	if err == nil {
		t.Fatalf("Put with raw key succeeded")
	}
	if err := st.Put(StoredSpec{Spec: Spec{Name: "x"}, KeyDigest: "nothex"}); err == nil {
		t.Fatalf("Put with bad digest succeeded")
	}
	if _, err := st.PutKey(Spec{Name: "x", Key: "short"}); err == nil {
		t.Fatalf("PutKey with short key succeeded")
	}
	if _, err := st.PutKey(Spec{Name: "anonymous", Key: "long-enough-key"}); err == nil {
		t.Fatalf("PutKey with reserved name succeeded")
	}
}

func TestStoreLedgerPersistsByteExactly(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	want := Ledger{Requests: 123, Units: 4567, QueueNanos: 987654321, Bytes: 1 << 30}
	if err := st.WriteLedger("alpha", want); err != nil {
		t.Fatalf("WriteLedger: %v", err)
	}
	// Ledger writes do not bump the policy generation.
	if g := st.Generation(); g != 0 {
		t.Fatalf("generation after ledger write = %d, want 0", g)
	}
	st.Close()
	st2 := openTestStore(t, dir)
	if got := st2.Ledger("alpha"); got != want {
		t.Fatalf("replayed ledger = %+v, want %+v", got, want)
	}
}

func TestStoreRotateOverlapWindow(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	if _, err := st.PutKey(Spec{Name: "alpha", Key: "old-secret-1"}); err != nil {
		t.Fatalf("PutKey: %v", err)
	}
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	sp, err := st.Rotate("alpha", "new-secret-2", 10*time.Minute, now)
	if err != nil {
		t.Fatalf("Rotate: %v", err)
	}
	if sp.KeyDigest != DigestKey("new-secret-2") || sp.PrevKeyDigest != DigestKey("old-secret-1") {
		t.Fatalf("rotated digests wrong: %+v", sp)
	}
	if !sp.PrevKeyExpiry.Equal(now.Add(10 * time.Minute)) {
		t.Fatalf("overlap expiry = %v", sp.PrevKeyExpiry)
	}

	reg, _, err := st.Registry()
	if err != nil {
		t.Fatalf("Registry: %v", err)
	}
	clock := now
	if _, ok := reg.Authenticate("new-secret-2", clock); !ok {
		t.Fatalf("new key rejected inside overlap window")
	}
	if _, ok := reg.Authenticate("old-secret-1", clock); !ok {
		t.Fatalf("old key rejected inside overlap window")
	}
	clock = now.Add(10*time.Minute + time.Second)
	if _, ok := reg.Authenticate("old-secret-1", clock); ok {
		t.Fatalf("old key accepted after overlap window closed")
	}
	if _, ok := reg.Authenticate("new-secret-2", clock); !ok {
		t.Fatalf("new key rejected after overlap window closed")
	}

	// Zero overlap cuts over immediately: no previous digest survives.
	sp, err = st.Rotate("alpha", "next-secret-3", 0, clock)
	if err != nil {
		t.Fatalf("Rotate(overlap=0): %v", err)
	}
	if sp.PrevKeyDigest != "" {
		t.Fatalf("zero-overlap rotation kept previous digest")
	}
}

func TestStoreCompactAndSnapshot(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	if _, err := st.PutKey(Spec{Name: "alpha", Key: "alpha-secret"}); err != nil {
		t.Fatalf("PutKey: %v", err)
	}
	if err := st.WriteLedger("alpha", Ledger{Requests: 9}); err != nil {
		t.Fatalf("WriteLedger: %v", err)
	}
	genBefore := st.Generation()
	if err := st.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if info, err := os.Stat(filepath.Join(dir, storeWALName)); err != nil || info.Size() != 0 {
		t.Fatalf("wal not truncated after compact: %v / %v", info, err)
	}
	// Post-compact appends land in the fresh WAL and replay over the snapshot.
	if _, err := st.PutKey(Spec{Name: "beta", Key: "beta-secret-1"}); err != nil {
		t.Fatalf("PutKey after compact: %v", err)
	}
	st.Close()
	st2 := openTestStore(t, dir)
	if g := st2.Generation(); g <= genBefore {
		t.Fatalf("generation after compact+put = %d, want > %d", g, genBefore)
	}
	if st2.Len() != 2 {
		t.Fatalf("tenant count after compact replay = %d, want 2", st2.Len())
	}
	if l := st2.Ledger("alpha"); l.Requests != 9 {
		t.Fatalf("ledger lost through compaction: %+v", l)
	}
}

// TestStoreOpensRemovedMaxCampaigns: stores written while tenants had a
// concurrent-campaign cap carry "max_campaigns" in snapshot specs and WAL
// put entries. Stores replay leniently, so such a store opens with the
// same tenants and generation, and its next Compact drops the field. The
// snapshot and the put entry are the bytes oracletenant wrote then
// (add alpha -max-campaigns 2 -max-units 8, compact, add beta
// -max-campaigns 2).
func TestStoreOpensRemovedMaxCampaigns(t *testing.T) {
	snapshot := `{
  "format": "oraclesize/tenantstore/v1",
  "seq": 1,
  "gen": 1,
  "tenants": [
    {
      "spec": {
        "name": "alpha",
        "key": "",
        "weight": 1,
        "max_campaign_units": 8,
        "max_campaigns": 2,
        "key_digest": "15ec6ec75f5b1b27da2307bbd282187c080c73e93b27ee8e7ce90c8c1446b2dd",
        "prev_key_expiry": "0001-01-01T00:00:00Z"
      },
      "seq": 1
    }
  ],
  "ledgers": null
}
`
	put := `{"seq":2,"op":"put","spec":{"name":"beta","key":"","weight":1,"max_campaigns":2,` +
		`"key_digest":"598ecc5afd24dad150f848fede72d1a748e2ec16a70bac2363788364c7ddcb77",` +
		`"prev_key_expiry":"0001-01-01T00:00:00Z"}}`
	if alpha := openDropsRemovedField(t, "max_campaigns", snapshot, put); alpha.MaxCampaignUnits != 8 {
		t.Fatalf("alpha read back as %+v, want max_campaign_units 8", alpha)
	}
}

// TestStoreOpensRemovedLabels: stores that imported keyfiles with tenant
// labels carry "labels" in snapshot specs and WAL put entries. Such a
// store opens with the same tenants and generation, and its next Compact
// drops the field. The bytes are what ImportKeyfile and Compact wrote
// then (import alpha with labels, compact, import beta with labels).
func TestStoreOpensRemovedLabels(t *testing.T) {
	snapshot := `{
  "format": "oraclesize/tenantstore/v1",
  "seq": 1,
  "gen": 1,
  "tenants": [
    {
      "spec": {
        "name": "alpha",
        "key": "",
        "weight": 1,
        "labels": {
          "team": "theory"
        },
        "key_digest": "15ec6ec75f5b1b27da2307bbd282187c080c73e93b27ee8e7ce90c8c1446b2dd",
        "prev_key_expiry": "0001-01-01T00:00:00Z"
      },
      "seq": 1
    }
  ],
  "ledgers": null
}
`
	put := `{"seq":2,"op":"put","spec":{"name":"beta","key":"","weight":1,"labels":{"team":"systems"},` +
		`"key_digest":"598ecc5afd24dad150f848fede72d1a748e2ec16a70bac2363788364c7ddcb77",` +
		`"prev_key_expiry":"0001-01-01T00:00:00Z"}}`
	openDropsRemovedField(t, "labels", snapshot, put)
}

// openDropsRemovedField writes an earlier release's snapshot (tenant
// alpha, key alpha-secret-01) and one WAL put entry (tenant beta, key
// beta-secret-001) that both carry a field Spec no longer has, and checks
// that the store opens at generation 2 with both tenants authenticating,
// and that Compact drops the field without changing the state. It
// returns alpha's spec as opened.
func openDropsRemovedField(t *testing.T, field, snapshot, put string) StoredSpec {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, storeSnapName), []byte(snapshot), 0o600); err != nil {
		t.Fatal(err)
	}
	frame := wal.AppendFrame(nil, func(b []byte) []byte { return append(b, put...) })
	if err := os.WriteFile(filepath.Join(dir, storeWALName), frame, 0o600); err != nil {
		t.Fatal(err)
	}

	st := openTestStore(t, dir)
	if g, n := st.Generation(), st.Len(); g != 2 || n != 2 {
		t.Fatalf("generation %d with %d tenants, want 2 with 2", g, n)
	}
	alpha, _ := st.Get("alpha")
	beta, _ := st.Get("beta")
	if alpha.KeyDigest != DigestKey("alpha-secret-01") || beta.KeyDigest != DigestKey("beta-secret-001") {
		t.Fatalf("specs read back as %+v and %+v", alpha, beta)
	}
	reg, _, err := st.Registry()
	if err != nil {
		t.Fatal(err)
	}
	if tn, ok := reg.Authenticate("beta-secret-001", time.Now()); !ok || tn.Name != "beta" {
		t.Fatal("beta's key does not authenticate")
	}
	want := stateOf(st)

	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, storeSnapName))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"`+field+`"`) {
		t.Fatalf("compacted snapshot still carries %s:\n%s", field, data)
	}
	st.Close()
	if got := stateOf(openTestStore(t, dir)); !statesEqual(got, want) {
		t.Fatalf("state after compaction:\n got %+v\nwant %+v", got, want)
	}
	return alpha
}

func TestStoreSyncAcrossHandles(t *testing.T) {
	dir := t.TempDir()
	daemon := openTestStore(t, dir)
	admin := openTestStore(t, dir)

	if _, err := admin.PutKey(Spec{Name: "alpha", Key: "alpha-secret", RatePerSec: 100}); err != nil {
		t.Fatalf("admin PutKey: %v", err)
	}
	changed, err := daemon.Sync()
	if err != nil || !changed {
		t.Fatalf("daemon Sync = %v, %v; want changed", changed, err)
	}
	if daemon.Generation() != admin.Generation() {
		t.Fatalf("generations diverge after sync: %d vs %d", daemon.Generation(), admin.Generation())
	}
	sp, ok := daemon.Get("alpha")
	if !ok || sp.RatePerSec != 100 {
		t.Fatalf("daemon missed admin's put: %+v %v", sp, ok)
	}

	// The daemon's ledger flush and the admin's next change interleave;
	// both handles converge after syncing.
	if err := daemon.WriteLedger("alpha", Ledger{Requests: 5}); err != nil {
		t.Fatalf("daemon WriteLedger: %v", err)
	}
	if _, err := admin.PutKey(Spec{Name: "alpha", Key: "alpha-secret", RatePerSec: 1}); err != nil {
		t.Fatalf("admin tighten: %v", err)
	}
	if _, err := daemon.Sync(); err != nil {
		t.Fatalf("daemon Sync: %v", err)
	}
	if _, err := admin.Sync(); err != nil {
		t.Fatalf("admin Sync: %v", err)
	}
	dsp, _ := daemon.Get("alpha")
	if dsp.RatePerSec != 1 {
		t.Fatalf("daemon did not converge on tightened quota: %+v", dsp)
	}
	if l := admin.Ledger("alpha"); l.Requests != 5 {
		t.Fatalf("admin did not see daemon's ledger: %+v", l)
	}
}

func TestStoreTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	if _, err := st.PutKey(Spec{Name: "alpha", Key: "alpha-secret"}); err != nil {
		t.Fatalf("PutKey: %v", err)
	}
	st.Close()

	walPath := filepath.Join(dir, storeWALName)
	// Append a torn frame: a header promising more bytes than exist.
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var torn [12]byte
	binary.BigEndian.PutUint32(torn[:4], 100)
	binary.BigEndian.PutUint32(torn[4:8], crc32.ChecksumIEEE([]byte("x")))
	if _, err := f.Write(torn[:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st2 := openTestStore(t, dir)
	if _, ok := st2.Get("alpha"); !ok {
		t.Fatalf("valid prefix lost with torn tail")
	}
	// The torn bytes were truncated, so a fresh append replays cleanly.
	if _, err := st2.PutKey(Spec{Name: "beta", Key: "beta-secret-1"}); err != nil {
		t.Fatalf("PutKey after truncation: %v", err)
	}
	st2.Close()
	st3 := openTestStore(t, dir)
	if st3.Len() != 2 {
		t.Fatalf("tenant count after torn-tail recovery = %d, want 2", st3.Len())
	}
}

func TestStoreRegistryEmptyFails(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	if _, _, err := st.Registry(); err == nil {
		t.Fatalf("Registry on empty store succeeded; a reload must keep the old registry instead")
	}
}

// twoTenantStore opens a durable store holding root and ops, and a check
// that fails the test unless the store still holds exactly those two at
// the same generation, also after a reopen.
func twoTenantStore(t *testing.T) (*Store, func(step string)) {
	t.Helper()
	dir := t.TempDir()
	st := openTestStore(t, dir)
	for _, sp := range []Spec{{Name: "root", Key: "root-key-00000"}, {Name: "ops", Key: "ops-key-000000"}} {
		if _, err := st.PutKey(sp); err != nil {
			t.Fatal(err)
		}
	}
	want := stateOf(st)
	unchanged := func(step string) {
		t.Helper()
		if got := stateOf(st); !statesEqual(got, want) {
			t.Errorf("%s: store at generation %d with %d tenants, want generation %d with 2", step, got.gen, len(got.specs), want.gen)
		}
		if got := stateOf(openTestStore(t, dir)); !statesEqual(got, want) {
			t.Errorf("%s: reopened store at generation %d with %d tenants, want generation %d with 2", step, got.gen, len(got.specs), want.gen)
		}
	}
	return st, unchanged
}

// TestStoreRefusesSharedKey: adding a tenant with a key another tenant
// holds fails, as the daemon would fail to load the store, and writes
// nothing.
func TestStoreRefusesSharedKey(t *testing.T) {
	st, unchanged := twoTenantStore(t)
	if _, err := st.PutKey(Spec{Name: "twin", Key: "root-key-00000"}); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("twin add: err = %v, want a shared-key refusal", err)
	}
	unchanged("twin add")
}

// TestStoreChecksAgainstOtherWriters: two handles on one directory, as an
// oracletenant process beside a daemon. Once A has stored root's key, B's
// put of a twin with that key and B's rotation of ops onto it both fail,
// though B had not seen root: B folds in A's frames before it checks. B
// then holds root and ops only, and the directory still builds a registry.
func TestStoreChecksAgainstOtherWriters(t *testing.T) {
	dir := t.TempDir()
	a := openTestStore(t, dir)
	if _, err := a.PutKey(Spec{Name: "ops", Key: "ops-key-000000"}); err != nil {
		t.Fatal(err)
	}
	b := openTestStore(t, dir)
	if _, err := a.PutKey(Spec{Name: "root", Key: "root-key-00000"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PutKey(Spec{Name: "twin", Key: "root-key-00000"}); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("B's twin put: err = %v, want a shared-key refusal", err)
	}
	if _, err := b.Rotate("ops", "root-key-00000", time.Hour, time.Unix(0, 0)); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Errorf("B's rotation onto root's key: err = %v, want a shared-key refusal", err)
	}
	if got := b.Len(); got != 2 {
		t.Errorf("B holds %d tenants, want root and ops", got)
	}
	if _, _, err := openTestStore(t, dir).Registry(); err != nil {
		t.Errorf("reopened store builds no registry: %v", err)
	}
}

// TestStoreRotateRefusesSharedKey: rotating one tenant onto another's key
// fails and writes nothing.
func TestStoreRotateRefusesSharedKey(t *testing.T) {
	st, unchanged := twoTenantStore(t)
	if _, err := st.Rotate("ops", "root-key-00000", time.Hour, time.Unix(0, 0)); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("rotation onto root's key: err = %v, want a shared-key refusal", err)
	}
	unchanged("rotation onto root's key")
}

// TestImportKeyfileRefusesStoredKey: a keyfile is checked merged with the
// stored tenants, its entries replacing stored ones of the same name. A
// file key that a stored tenant holds writes nothing; a file that swaps
// two stored tenants' keys imports.
func TestImportKeyfileRefusesStoredKey(t *testing.T) {
	st, unchanged := twoTenantStore(t)
	path := writeKeyfile(t, `{"tenants":[{"name":"new","key":"new-key-000000"},{"name":"twin","key":"ops-key-000000"}]}`)
	if _, err := st.ImportKeyfile(path); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("import: err = %v, want a shared-key refusal", err)
	}
	unchanged("import of a stored key")

	swap := writeKeyfile(t, `{"tenants":[{"name":"ops","key":"root-key-00000"},{"name":"root","key":"ops-key-000000"}]}`)
	if n, err := st.ImportKeyfile(swap); err != nil || n != 2 {
		t.Fatalf("import of a key swap = %d, %v; want 2 tenants", n, err)
	}
	reg, _, err := st.Registry()
	if err != nil {
		t.Fatal(err)
	}
	if ten, ok := reg.Authenticate("root-key-00000", time.Time{}); !ok || ten.Spec.Name != "ops" {
		t.Fatalf("root's old key authenticates %+v, %v; want ops", ten, ok)
	}
}

// storeState snapshots the replay-visible state for equivalence checks.
type storeState struct {
	gen     uint64
	specs   []StoredSpec
	ledgers map[string]Ledger
}

func stateOf(st *Store) storeState {
	return storeState{gen: st.Generation(), specs: st.Specs(), ledgers: st.Ledgers()}
}

func statesEqual(a, b storeState) bool {
	return a.gen == b.gen && reflect.DeepEqual(a.specs, b.specs) && reflect.DeepEqual(a.ledgers, b.ledgers)
}

// frameEntries re-frames raw store entries into WAL bytes.
func frameEntries(t testing.TB, entries []storeEntry) []byte {
	t.Helper()
	var buf []byte
	for _, e := range entries {
		payload, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var hdr [wal.HeaderLen]byte
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
		binary.BigEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
		buf = append(buf, hdr[:]...)
		buf = append(buf, payload...)
	}
	return buf
}

// TestStoreReplayShuffleInvariant is the deterministic core of
// FuzzTenantStoreReplay: replaying the same entries shuffled and
// duplicated yields the same generation, specs, and ledger totals.
func TestStoreReplayShuffleInvariant(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	if _, err := st.PutKey(Spec{Name: "alpha", Key: "alpha-secret", RatePerSec: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutKey(Spec{Name: "beta", Key: "beta-secret-1"}); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteLedger("alpha", Ledger{Requests: 10, Bytes: 100}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.PutKey(Spec{Name: "alpha", Key: "alpha-secret", RatePerSec: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("beta"); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteLedger("alpha", Ledger{Requests: 20, Bytes: 250}); err != nil {
		t.Fatal(err)
	}
	want := stateOf(st)
	st.Close()

	entries, _, err := replayStoreWAL(filepath.Join(dir, storeWALName))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 10; round++ {
		shuffled := append([]storeEntry(nil), entries...)
		// Duplicate a random entry, then shuffle everything.
		shuffled = append(shuffled, shuffled[rng.Intn(len(shuffled))])
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, storeWALName), frameEntries(t, shuffled), 0o600); err != nil {
			t.Fatal(err)
		}
		st2 := openTestStore(t, dir2)
		if got := stateOf(st2); !statesEqual(got, want) {
			t.Fatalf("round %d: shuffled replay diverged:\n got %+v\nwant %+v", round, got, want)
		}
		st2.Close()
	}
}

// FuzzTenantStoreReplay feeds arbitrary bytes in as a WAL: opening must
// never panic, corrupt tails must truncate cleanly (a reopen sees the
// same state), and replaying the surviving entries shuffled + duplicated
// must converge on the same generation and ledger totals.
func FuzzTenantStoreReplay(f *testing.F) {
	// Seed with a real WAL built through the public API.
	seedDir := f.TempDir()
	st, err := OpenStore(seedDir)
	if err != nil {
		f.Fatal(err)
	}
	st.PutKey(Spec{Name: "alpha", Key: "alpha-secret", RatePerSec: 2})
	st.WriteLedger("alpha", Ledger{Requests: 3, Units: 7})
	st.Rotate("alpha", "alpha-secret-2", time.Minute, time.Unix(1700000000, 0))
	st.Delete("alpha")
	st.Close()
	seed, err := os.ReadFile(filepath.Join(seedDir, storeWALName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // torn tail
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0xde, 0xad, 0xbe, 0xef, 'x'})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, storeWALName), data, 0o600); err != nil {
			t.Skip()
		}
		st1, err := OpenStore(dir)
		if err != nil {
			t.Skip() // only IO errors reach here; corruption is truncated, not fatal
		}
		want := stateOf(st1)
		st1.Close()

		// Reopen after the torn-tail truncation: state must be identical.
		st2, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("reopen after truncation: %v", err)
		}
		got := stateOf(st2)
		st2.Close()
		if !statesEqual(got, want) {
			t.Fatalf("reopen diverged:\n got %+v\nwant %+v", got, want)
		}

		// Shuffle + duplicate the surviving entries; replay must converge.
		entries, _, err := replayStoreWAL(filepath.Join(dir, storeWALName))
		if err != nil || len(entries) == 0 {
			return
		}
		rng := rand.New(rand.NewSource(int64(len(data))*1000003 + int64(crc32.ChecksumIEEE(data))))
		shuffled := append([]storeEntry(nil), entries...)
		shuffled = append(shuffled, shuffled[rng.Intn(len(shuffled))])
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		dir2 := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir2, storeWALName), frameEntries(t, shuffled), 0o600); err != nil {
			t.Fatal(err)
		}
		st3, err := OpenStore(dir2)
		if err != nil {
			t.Fatalf("shuffled reopen: %v", err)
		}
		got = stateOf(st3)
		st3.Close()
		if got.gen != want.gen {
			t.Fatalf("shuffled replay generation %d, want %d", got.gen, want.gen)
		}
		if !reflect.DeepEqual(got.ledgers, want.ledgers) {
			t.Fatalf("shuffled replay ledgers %+v, want %+v", got.ledgers, want.ledgers)
		}
		if !reflect.DeepEqual(got.specs, want.specs) {
			t.Fatalf("shuffled replay specs %+v, want %+v", got.specs, want.specs)
		}
	})
}
