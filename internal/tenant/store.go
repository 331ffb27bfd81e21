package tenant

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"oraclesize/internal/wal"
)

// Store is the durable, versioned tenant control plane behind a daemon's
// Registry: tenant specs (with key digests, never raw keys), per-tenant
// usage ledgers, and a monotonic generation counter that bumps on every
// policy change — the version an elastic fleet converges on.
//
// On disk a store is a directory holding an atomic snapshot
// (snapshot.json, committed with wal.Commit) plus an append-only
// write-ahead log of JSON entries, one per internal/wal frame.
//
// Every entry carries a global sequence number and replay is
// last-writer-wins per target (a tenant's spec, a tenant's ledger) under
// a canonical (seq, payload) ordering — so a replay of shuffled or
// duplicated frames converges on the same generation, specs, and ledger
// totals, and a torn tail from a killed process truncates away cleanly.
// FuzzTenantStoreReplay pins both properties.
//
// Concurrency: one Store handle is safe for concurrent use. Across
// processes, appends are whole-frame single writes on an O_APPEND handle,
// so an admin CLI mutating specs while a daemon appends ledger flushes
// interleave without tearing; each process calls Sync to fold in frames
// the other appended. Compact rewrites the directory and is an exclusive
// administrative operation.
//
// A memory store (NewMemStore) has no directory: writes only update its
// state.
type Store struct {
	mu  sync.Mutex
	dir string

	w       *os.File // O_APPEND write handle; nil for a memory store
	r       *os.File // read handle for Sync; offset tracks replayed bytes
	off     int64
	buf     []byte
	seq     uint64 // highest sequence number seen
	gen     uint64 // highest spec-mutating sequence number seen
	specs   map[string]*storedAt
	tombs   map[string]uint64 // deleted tenants, by last delete seq
	ledgers map[string]*ledgerAt
}

// StoredSpec is one tenant's durable record: the quota Spec plus key
// digests. The embedded Spec's raw Key field is always empty on disk —
// only SHA-256 digests are stored. During a rotation PrevKeyDigest stays
// valid until PrevKeyExpiry.
type StoredSpec struct {
	Spec
	KeyDigest     string    `json:"key_digest"`
	PrevKeyDigest string    `json:"prev_key_digest,omitempty"`
	PrevKeyExpiry time.Time `json:"prev_key_expiry,omitempty"`
}

// Ledger is one tenant's cumulative usage totals — the chargeback record.
// All fields are absolute counters since the tenant first appeared; they
// survive daemon restarts because the daemon flushes them here and seeds
// its in-memory counters from the stored totals at boot.
type Ledger struct {
	// Requests counts finished HTTP requests attributed to the tenant.
	Requests int64 `json:"requests"`
	// Units counts simulation units executed for the tenant: /v1/shard
	// units and individual /v1/run simulations.
	Units int64 `json:"units"`
	// QueueNanos accumulates time the tenant's admitted jobs spent waiting
	// in the work queue before a worker picked them up.
	QueueNanos int64 `json:"queue_nanos"`
	// Bytes counts response body bytes written to the tenant.
	Bytes int64 `json:"bytes"`
}

// QueueSeconds renders the queue wait in seconds — the /metrics unit.
func (l Ledger) QueueSeconds() float64 { return float64(l.QueueNanos) / 1e9 }

// IsZero reports an all-zero ledger (nothing worth persisting).
func (l Ledger) IsZero() bool { return l == Ledger{} }

type storedAt struct {
	spec StoredSpec
	seq  uint64
}

type ledgerAt struct {
	ledger Ledger
	seq    uint64
}

// storeEntry is one WAL frame's payload.
type storeEntry struct {
	Seq uint64 `json:"seq"`
	// Op is "put" (Spec set), "delete" (Name set), or "ledger" (Name and
	// Ledger set, absolute totals).
	Op     string      `json:"op"`
	Name   string      `json:"name,omitempty"`
	Spec   *StoredSpec `json:"spec,omitempty"`
	Ledger *Ledger     `json:"ledger,omitempty"`
}

// storeSnapshot is the atomic checkpoint Compact writes.
type storeSnapshot struct {
	Format  string       `json:"format"`
	Seq     uint64       `json:"seq"`
	Gen     uint64       `json:"gen"`
	Tenants []snapTenant `json:"tenants"`
	Ledgers []snapLedger `json:"ledgers"`
}

type snapTenant struct {
	Spec StoredSpec `json:"spec"`
	Seq  uint64     `json:"seq"`
}

type snapLedger struct {
	Name   string `json:"name"`
	Ledger Ledger `json:"ledger"`
	Seq    uint64 `json:"seq"`
}

const (
	storeFormat   = "oraclesize/tenantstore/v1"
	storeSnapName = "snapshot.json"
	storeWALName  = "wal.log"
	// storeMaxPayload bounds one frame so a corrupt length prefix cannot
	// trigger a giant allocation during replay; tenant entries are tiny.
	storeMaxPayload = 1 << 20
)

// OpenStore opens (or initializes) the tenant store in dir: it loads the
// snapshot if present, replays every intact WAL frame on top, truncates
// any torn tail, and leaves the WAL open for appends.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tenant: creating store dir: %w", err)
	}
	st := NewMemStore()
	st.dir = dir
	if err := st.loadSnapshot(); err != nil {
		return nil, err
	}
	walPath := filepath.Join(dir, storeWALName)
	entries, validLen, err := replayStoreWAL(walPath)
	if err != nil {
		return nil, err
	}
	st.applyCanonical(entries)
	// Truncate a torn tail before appending so the next frame starts on a
	// clean boundary.
	if info, err := os.Stat(walPath); err == nil && info.Size() > validLen {
		if err := os.Truncate(walPath, validLen); err != nil {
			return nil, fmt.Errorf("tenant: truncating torn wal tail: %w", err)
		}
	}
	st.w, err = os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("tenant: opening wal for append: %w", err)
	}
	st.r, err = os.Open(walPath)
	if err != nil {
		st.w.Close()
		return nil, fmt.Errorf("tenant: opening wal for sync: %w", err)
	}
	st.off = validLen
	if _, err := st.r.Seek(validLen, io.SeekStart); err != nil {
		st.Close()
		return nil, fmt.Errorf("tenant: seeking wal: %w", err)
	}
	return st, nil
}

// NewMemStore returns an empty store held only in memory.
func NewMemStore() *Store {
	return &Store{
		specs:   make(map[string]*storedAt),
		tombs:   make(map[string]uint64),
		ledgers: make(map[string]*ledgerAt),
	}
}

func (st *Store) loadSnapshot() error {
	data, err := os.ReadFile(filepath.Join(st.dir, storeSnapName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("tenant: reading store snapshot: %w", err)
	}
	var snap storeSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("tenant: parsing store snapshot: %w", err)
	}
	if snap.Format != storeFormat {
		return fmt.Errorf("tenant: store snapshot format %q, want %q", snap.Format, storeFormat)
	}
	st.seq, st.gen = snap.Seq, snap.Gen
	for _, t := range snap.Tenants {
		st.specs[t.Spec.Name] = &storedAt{spec: t.Spec, seq: t.Seq}
	}
	for _, l := range snap.Ledgers {
		st.ledgers[l.Name] = &ledgerAt{ledger: l.Ledger, seq: l.Seq}
	}
	return nil
}

// replayStoreWAL reads every intact entry from the WAL at path, returning
// the decoded entries and the byte length of the valid prefix. Anything
// past the first short, corrupt, or undecodable frame is a torn tail. A
// missing file reads as empty.
func replayStoreWAL(path string) (entries []storeEntry, validLen int64, err error) {
	validLen, err = wal.ReplayFile(path, storeMaxPayload, collectEntries(&entries))
	return entries, validLen, err
}

// collectEntries is the wal.Replay decoder for store entries: it appends
// each to *entries and refuses a payload that is not one.
func collectEntries(entries *[]storeEntry) func([]byte) bool {
	return func(payload []byte) bool {
		var e storeEntry
		if err := json.Unmarshal(payload, &e); err != nil {
			return false
		}
		*entries = append(*entries, e)
		return true
	}
}

// applyCanonical folds replayed entries into the store state in a
// canonical order — sorted by (seq, op, name, spec/ledger identity) —
// so replay is a pure function of the entry *set*: shuffled or
// duplicated frames converge on identical state.
func (st *Store) applyCanonical(entries []storeEntry) {
	keys := make([]string, len(entries))
	for i := range entries {
		b, _ := json.Marshal(entries[i])
		keys[i] = string(b)
	}
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ea, eb := &entries[order[a]], &entries[order[b]]
		if ea.Seq != eb.Seq {
			return ea.Seq < eb.Seq
		}
		return keys[order[a]] < keys[order[b]]
	})
	for _, i := range order {
		st.apply(entries[i])
	}
}

// apply folds one entry in, last-writer-wins per target by sequence
// number (ties resolved by apply order, which applyCanonical makes
// deterministic).
func (st *Store) apply(e storeEntry) {
	if e.Seq > st.seq {
		st.seq = e.Seq
	}
	switch e.Op {
	case "put":
		if e.Spec == nil || e.Spec.Name == "" {
			return
		}
		if e.Seq > st.gen {
			st.gen = e.Seq
		}
		name := e.Spec.Name
		if ts, ok := st.tombs[name]; ok && ts >= e.Seq {
			return // deleted later than this put
		}
		if cur, ok := st.specs[name]; ok && cur.seq > e.Seq {
			return
		}
		delete(st.tombs, name)
		st.specs[name] = &storedAt{spec: *e.Spec, seq: e.Seq}
	case "delete":
		if e.Name == "" {
			return
		}
		if e.Seq > st.gen {
			st.gen = e.Seq
		}
		if cur, ok := st.specs[e.Name]; ok && cur.seq > e.Seq {
			return
		}
		if ts, ok := st.tombs[e.Name]; ok && ts > e.Seq {
			return
		}
		delete(st.specs, e.Name)
		st.tombs[e.Name] = e.Seq
	case "ledger":
		if e.Name == "" || e.Ledger == nil {
			return
		}
		if cur, ok := st.ledgers[e.Name]; ok && cur.seq > e.Seq {
			return
		}
		st.ledgers[e.Name] = &ledgerAt{ledger: *e.Ledger, seq: e.Seq}
	}
}

// append writes one entry as a WAL frame. fsync when the entry mutates
// policy (spec puts/deletes) — a confirmed quota change or rotation must
// survive a crash; ledger flushes are periodic and tolerate losing the
// last interval.
func (st *Store) append(e storeEntry, sync bool) error {
	if st.w != nil {
		payload, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("tenant: encoding store entry: %w", err)
		}
		st.buf = wal.AppendFrame(st.buf[:0], func(b []byte) []byte { return append(b, payload...) })
		if _, err := st.w.Write(st.buf); err != nil {
			return fmt.Errorf("tenant: appending store entry: %w", err)
		}
		if sync {
			if err := st.w.Sync(); err != nil {
				return fmt.Errorf("tenant: syncing store wal: %w", err)
			}
		}
	}
	st.apply(e)
	return nil
}

// Sync folds in WAL frames appended by other processes (the admin CLI
// mutating specs while a daemon holds the store, or vice versa) since the
// last open or Sync. It reports whether anything new was applied.
func (st *Store) Sync() (changed bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.syncLocked()
}

func (st *Store) syncLocked() (bool, error) {
	if st.r == nil {
		return false, nil // a memory store has no other writers
	}
	if _, err := st.r.Seek(st.off, io.SeekStart); err != nil {
		return false, fmt.Errorf("tenant: seeking wal: %w", err)
	}
	var entries []storeEntry
	n, err := wal.Replay(st.r, storeMaxPayload, collectEntries(&entries))
	if err != nil {
		return false, err
	}
	if n == 0 {
		return false, nil
	}
	st.off += n
	st.applyCanonical(entries)
	return true, nil
}

// nextSeq allocates the next sequence number, folding in concurrent
// appenders' frames first so the new entry orders after everything
// already on disk.
func (st *Store) nextSeq() uint64 {
	st.syncLocked() // best effort; an IO error surfaces on the append
	st.seq++
	return st.seq
}

// Generation is the store's policy version: the sequence number of the
// latest spec mutation. Ledger writes do not bump it.
func (st *Store) Generation() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.gen
}

// Len is the current tenant count.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.specs)
}

// Dir is the store directory.
func (st *Store) Dir() string { return st.dir }

// Specs snapshots the stored tenant specs, sorted by name.
func (st *Store) Specs() []StoredSpec {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.specsLocked()
}

func (st *Store) specsLocked() []StoredSpec {
	out := make([]StoredSpec, 0, len(st.specs))
	for _, s := range st.specs {
		out = append(out, s.spec)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Get returns one tenant's stored spec.
func (st *Store) Get(name string) (StoredSpec, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	s, ok := st.specs[name]
	if !ok {
		return StoredSpec{}, false
	}
	return s.spec, true
}

// validateStored checks a StoredSpec for durable use: normalized quota
// spec, no raw key material, and a well-formed current digest.
func validateStored(sp StoredSpec) (StoredSpec, error) {
	norm, err := normalizeSpec(sp.Spec)
	if err != nil {
		return sp, err
	}
	sp.Spec = norm
	if sp.Spec.Key != "" {
		return sp, fmt.Errorf("tenant %q: raw key must not be stored (use PutKey)", sp.Name)
	}
	if _, err := parseDigest(sp.KeyDigest); err != nil {
		return sp, fmt.Errorf("tenant %q: %v", sp.Name, err)
	}
	if sp.PrevKeyDigest != "" {
		if _, err := parseDigest(sp.PrevKeyDigest); err != nil {
			return sp, fmt.Errorf("tenant %q: previous digest: %v", sp.Name, err)
		}
	}
	return sp, nil
}

func parseDigest(s string) ([32]byte, error) {
	var d [32]byte
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(d) {
		return d, fmt.Errorf("key digest must be %d hex bytes", len(d))
	}
	copy(d[:], raw)
	return d, nil
}

// DigestKey renders a raw key's stored digest form.
func DigestKey(key string) string {
	d := sha256.Sum256([]byte(key))
	return hex.EncodeToString(d[:])
}

// Put upserts tenant specs, bumping the generation once per spec. Each
// entry is fsynced before Put returns.
func (st *Store) Put(specs ...StoredSpec) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.putLocked(specs...)
}

// putLocked upserts specs once the tenants they leave stored build a
// registry: the store refuses what a daemon would refuse to load
// (NewStoredRegistry), such as a key another tenant holds or more than
// MaxTenants tenants. It checks against the log as it stands, other
// processes' frames folded in first. Callers hold st.mu.
func (st *Store) putLocked(specs ...StoredSpec) error {
	if _, err := st.syncLocked(); err != nil {
		return err
	}
	// The stored tenants go first, so a clash names a tenant being put.
	next := make([]StoredSpec, 0, len(st.specs)+len(specs))
	for name, s := range st.specs {
		if !slices.ContainsFunc(specs, func(sp StoredSpec) bool { return sp.Name == name }) {
			next = append(next, s.spec)
		}
	}
	puts := len(next)
	for _, sp := range specs {
		sp, err := validateStored(sp)
		if err != nil {
			return err
		}
		next = append(next, sp)
	}
	if _, err := NewStoredRegistry(next); err != nil {
		return err
	}
	for i := puts; i < len(next); i++ {
		if err := st.append(storeEntry{Seq: st.nextSeq(), Op: "put", Spec: &next[i]}, true); err != nil {
			return err
		}
	}
	return nil
}

// PutKey upserts a tenant from a spec carrying a raw key (a keyfile entry
// or an admin "add"): the key is digested immediately and never stored.
func (st *Store) PutKey(sp Spec) (StoredSpec, error) {
	stored, err := digestSpec(sp)
	if err != nil {
		return StoredSpec{}, err
	}
	if err := st.Put(stored); err != nil {
		return StoredSpec{}, err
	}
	return stored, nil
}

// digestSpec turns a spec carrying a raw key into its stored form: the
// key's length is checked, then the key is replaced by its digest.
func digestSpec(sp Spec) (StoredSpec, error) {
	if len(sp.Key) < minKeyLength {
		return StoredSpec{}, fmt.Errorf("tenant %q: key shorter than %d bytes", sp.Name, minKeyLength)
	}
	stored := StoredSpec{Spec: sp, KeyDigest: DigestKey(sp.Key)}
	stored.Spec.Key = ""
	return stored, nil
}

// ImportKeyfile upserts every tenant of a JSON keyfile into the store,
// digesting the raw keys immediately, and returns the number imported.
// File entries replace stored tenants of the same name, and the result
// must build a registry first, so a short key, a duplicate name or a key
// that a file or stored tenant already holds writes nothing.
func (st *Store) ImportKeyfile(path string) (int, error) {
	specs, err := readKeyfile(path)
	if err != nil {
		return 0, err
	}
	stored := make([]StoredSpec, len(specs))
	for i, sp := range specs {
		if stored[i], err = digestSpec(sp); err != nil {
			return 0, fmt.Errorf("%w (keyfile %s)", err, path)
		}
	}
	if err := st.Put(stored...); err != nil {
		return 0, fmt.Errorf("%w (keyfile %s)", err, path)
	}
	return len(stored), nil
}

// Rotate installs a new key for the tenant. The old key's digest stays
// valid for the overlap window — both keys authenticate until now+overlap
// — so the tenant's clients can switch without a hard cut-over. A
// non-positive overlap cuts over immediately.
func (st *Store) Rotate(name, newKey string, overlap time.Duration, now time.Time) (StoredSpec, error) {
	if len(newKey) < minKeyLength {
		return StoredSpec{}, fmt.Errorf("tenant %q: key shorter than %d bytes", name, minKeyLength)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, err := st.syncLocked(); err != nil {
		return StoredSpec{}, err
	}
	cur, ok := st.specs[name]
	if !ok {
		return StoredSpec{}, fmt.Errorf("tenant: no stored tenant %q", name)
	}
	sp := cur.spec
	newDigest := DigestKey(newKey)
	if overlap > 0 && newDigest != sp.KeyDigest {
		sp.PrevKeyDigest = sp.KeyDigest
		sp.PrevKeyExpiry = now.Add(overlap)
	} else {
		sp.PrevKeyDigest = ""
		sp.PrevKeyExpiry = time.Time{}
	}
	sp.KeyDigest = newDigest
	if err := st.putLocked(sp); err != nil {
		return StoredSpec{}, err
	}
	return sp, nil
}

// Delete removes a tenant, bumping the generation. Its ledger is kept —
// usage history outlives the identity.
func (st *Store) Delete(name string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, err := st.syncLocked(); err != nil {
		return err
	}
	if _, ok := st.specs[name]; !ok {
		return fmt.Errorf("tenant: no stored tenant %q", name)
	}
	return st.append(storeEntry{Seq: st.nextSeq(), Op: "delete", Name: name}, true)
}

// Ledger returns the stored usage totals for one tenant (zero if none).
func (st *Store) Ledger(name string) Ledger {
	st.mu.Lock()
	defer st.mu.Unlock()
	if l, ok := st.ledgers[name]; ok {
		return l.ledger
	}
	return Ledger{}
}

// Ledgers snapshots every stored ledger by tenant name.
func (st *Store) Ledgers() map[string]Ledger {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]Ledger, len(st.ledgers))
	for name, l := range st.ledgers {
		out[name] = l.ledger
	}
	return out
}

// WriteLedger persists one tenant's absolute usage totals. It does not
// bump the generation — usage accrual is not a policy change — and does
// not fsync (a crash loses at most the last flush interval).
func (st *Store) WriteLedger(name string, l Ledger) error {
	if name == "" {
		return fmt.Errorf("tenant: ledger needs a name")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.append(storeEntry{Seq: st.nextSeq(), Op: "ledger", Name: name, Ledger: &l}, false)
}

// Registry builds a Registry from the stored specs and returns their
// generation, both read under one lock so a concurrent writer cannot pair
// one generation's policy with another's number. It fails on an empty
// store — a registry that authenticates nobody would lock out the whole
// service, so callers keep their previous registry instead.
func (st *Store) Registry() (*Registry, uint64, error) {
	st.mu.Lock()
	specs, gen := st.specsLocked(), st.gen
	st.mu.Unlock()
	reg, err := NewStoredRegistry(specs)
	return reg, gen, err
}

// Compact checkpoints the store: the full state is committed to a fresh
// snapshot (wal.Commit, atomic on POSIX) and the WAL is truncated. An
// administrative operation — run it from the CLI while no daemon holds
// the store.
func (st *Store) Compact() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	snap := storeSnapshot{Format: storeFormat, Seq: st.seq, Gen: st.gen}
	for _, s := range st.specs {
		snap.Tenants = append(snap.Tenants, snapTenant{Spec: s.spec, Seq: s.seq})
	}
	sort.Slice(snap.Tenants, func(i, j int) bool { return snap.Tenants[i].Spec.Name < snap.Tenants[j].Spec.Name })
	for name, l := range st.ledgers {
		snap.Ledgers = append(snap.Ledgers, snapLedger{Name: name, Ledger: l.ledger, Seq: l.seq})
	}
	sort.Slice(snap.Ledgers, func(i, j int) bool { return snap.Ledgers[i].Name < snap.Ledgers[j].Name })
	data, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		return fmt.Errorf("tenant: encoding snapshot: %w", err)
	}
	if err := wal.Commit(filepath.Join(st.dir, storeSnapName), append(data, '\n'), 0o600); err != nil {
		return fmt.Errorf("tenant: writing snapshot: %w", err)
	}
	if err := os.Truncate(filepath.Join(st.dir, storeWALName), 0); err != nil {
		return fmt.Errorf("tenant: truncating wal: %w", err)
	}
	st.off = 0
	st.tombs = make(map[string]uint64)
	return nil
}

// Close releases the WAL handles. The store must not be used afterwards.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	var first error
	if st.r != nil {
		if err := st.r.Close(); err != nil && first == nil {
			first = err
		}
		st.r = nil
	}
	if st.w != nil {
		if err := st.w.Close(); err != nil && first == nil {
			first = err
		}
		st.w = nil
	}
	return first
}

// NewStoredRegistry builds a Registry from durable specs: the digests are
// installed directly (no raw keys exist), and a spec mid-rotation gets
// its previous digest with the stored overlap expiry.
func NewStoredRegistry(specs []StoredSpec) (*Registry, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("tenant: registry needs at least one tenant")
	}
	if len(specs) > MaxTenants {
		return nil, fmt.Errorf("tenant: %d tenants exceed the %d cap", len(specs), MaxTenants)
	}
	r := &Registry{}
	names := make(map[string]bool, len(specs))
	digests := make(map[[32]byte]bool, len(specs))
	for i := range specs {
		sp, err := validateStored(specs[i])
		if err != nil {
			return nil, err
		}
		if names[sp.Name] {
			return nil, fmt.Errorf("tenant: duplicate name %q", sp.Name)
		}
		names[sp.Name] = true
		d, _ := parseDigest(sp.KeyDigest)
		if digests[d] {
			return nil, fmt.Errorf("tenant %q: key already registered to another tenant", sp.Name)
		}
		digests[d] = true
		t := &Tenant{Spec: sp.Spec, keyDigest: d}
		if sp.PrevKeyDigest != "" && !sp.PrevKeyExpiry.IsZero() {
			pd, _ := parseDigest(sp.PrevKeyDigest)
			t.prevDigest = pd
			t.prevValid = true
			t.prevExpiry = sp.PrevKeyExpiry
		}
		r.tenants = append(r.tenants, t)
	}
	return r, nil
}
