// Package warehouse is an embedded, indexed, append-optimized store for
// campaign records — the results backend that makes million-unit sweeps
// practical where a flat JSONL artifact forces every resume, summary and
// canonicalization to re-read everything.
//
// The shape is a small LSM tree specialized for write-once campaign
// units:
//
//   - Deposits append CRC-framed entries to a write-ahead log (the
//     internal/wal format); a killed process loses at most the torn
//     tail of its last frame, never a half-written unit.
//   - When the active WAL passes a size threshold it is rotated out and a
//     background compactor folds the frozen logs into an immutable,
//     block-compressed segment (DEFLATE blocks of ~BlockSize raw bytes).
//   - Each segment carries a JSON sidecar: block offsets and checksums, a
//     sparse per-block index over (family, n, task, scheme, seed), and
//     the segment's unit bitmap — every unit index and key it holds.
//     Opening a warehouse reads only sidecars and replays the WAL, so
//     resume is a lookup against the unit index, not a scan of records.
//   - Deposits are idempotent by unit key: hedge losers, reassigned
//     leases and resume replays are dropped and counted, which is the
//     same merge contract campaign.Sink gives the cluster coordinator.
//
// The compatibility contract is byte-identity: Export writes exactly the
// canonical JSONL (`campaign canon`) of the records deposited, so a
// warehouse-backed run and a flat-JSONL run of the same spec compare
// equal with cmp.
package warehouse

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"oraclesize/internal/campaign"
	"oraclesize/internal/wal"
)

// Options tune an open warehouse. The zero value is ready for use.
type Options struct {
	// SpecHash, when set, pins the store to one campaign spec: opening a
	// warehouse whose manifest carries a different hash fails, exactly
	// like resuming a JSONL artifact produced by a different spec.
	SpecHash string
	// CompactAt is the active-WAL byte size that triggers background
	// compaction (default 4 MiB; negative disables automatic compaction —
	// Compact still works).
	CompactAt int64
	// BlockSize is the uncompressed byte target per segment block
	// (default 256 KiB).
	BlockSize int
	// Sync fsyncs the WAL after every deposit. Off by default: a crash
	// may then lose the most recent deposits to the OS cache, but never
	// corrupts the store — replay stops at the first torn frame.
	Sync bool
}

func (o Options) withDefaults() Options {
	if o.CompactAt == 0 {
		o.CompactAt = 4 << 20
	}
	if o.BlockSize <= 0 {
		o.BlockSize = 256 << 10
	}
	return o
}

// manifest is the committed segment list, updated atomically on every
// compaction.
type manifest struct {
	Version  int      `json:"version"`
	SpecHash string   `json:"spec_hash,omitempty"`
	Segments []string `json:"segments"`
	NextSeq  int      `json:"next_seq"`
}

const manifestName = "MANIFEST.json"

// frozenWAL is a rotated log awaiting compaction: its live (non-dup)
// entries and the file to delete once a committed segment covers them.
type frozenWAL struct {
	seq     int
	path    string
	bytes   int64
	entries []entry
}

// Stats is a point-in-time snapshot of the store's shape and counters.
type Stats struct {
	// Units and Records cover everything the store holds, segments and
	// WAL together.
	Units   int
	Records int
	// Segments is the committed segment count; SegmentRecords how many
	// records rest in them.
	Segments       int
	SegmentRecords int
	// WALRecords and WALBytes cover the not-yet-compacted tail (active
	// plus frozen logs).
	WALRecords int
	WALBytes   int64
	// Compactions counts segment commits over the store's open lifetime.
	Compactions int64
	// IndexSkips and IndexReads count query block decisions: skipped via
	// the sparse index vs decompressed. The hit rate is
	// IndexSkips/(IndexSkips+IndexReads).
	IndexSkips int64
	IndexReads int64
}

// Warehouse is an open store. It implements campaign.Store, so campaign
// executions and the cluster coordinator deposit into it exactly as they
// would into a JSONL Sink. All methods are safe for concurrent use.
type Warehouse struct {
	dir  string
	opts Options

	idxSkips atomic.Int64
	idxReads atomic.Int64

	mu       sync.Mutex
	man      manifest
	segs     []*segIndex
	wal      *os.File
	walSeq   int
	walBytes int64
	walBuf   []byte
	mem      []entry
	frozen   []frozenWAL
	seenKeys map[string]bool
	seenIdx  bitset
	segRecs  int
	memRecs  int // records in mem + frozen

	flushed, written, deduped int
	compactions               int64

	compacting bool
	compactErr error
	closed     bool
	wg         sync.WaitGroup
	compactMu  sync.Mutex // serializes segment writes
}

var _ campaign.Store = (*Warehouse)(nil)

// Open opens (or creates) the warehouse in dir: the manifest and every
// segment sidecar are loaded, surviving WALs are replayed with
// duplicates from interrupted compactions dropped, and a fresh active
// WAL is started. Blocks are never decompressed on open.
func Open(dir string, opts Options) (*Warehouse, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	w := &Warehouse{
		dir:      dir,
		opts:     opts,
		man:      manifest{Version: 1, NextSeq: 1},
		seenKeys: make(map[string]bool),
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case os.IsNotExist(err):
		// Fresh store.
	case err != nil:
		return nil, fmt.Errorf("warehouse: reading manifest: %w", err)
	default:
		if err := json.Unmarshal(data, &w.man); err != nil {
			return nil, fmt.Errorf("warehouse: manifest: %w", err)
		}
	}
	if opts.SpecHash != "" && w.man.SpecHash != "" && opts.SpecHash != w.man.SpecHash {
		return nil, fmt.Errorf("warehouse: %s holds spec %s, not %s — refusing to open",
			dir, w.man.SpecHash, opts.SpecHash)
	}
	if opts.SpecHash != "" && w.man.SpecHash == "" {
		w.man.SpecHash = opts.SpecHash
		if err := w.commitManifest(w.man); err != nil {
			return nil, err
		}
	}
	for _, name := range w.man.Segments {
		idx, err := loadSegIndex(dir, name)
		if err != nil {
			return nil, err
		}
		w.segs = append(w.segs, idx)
		w.segRecs += idx.Records
		for i, unitIdx := range idx.UnitIndexes {
			w.seenKeys[idx.UnitKeys[i]] = true
			w.seenIdx.set(unitIdx)
		}
	}
	// Replay surviving logs. Any log is frozen — we never append to an
	// old WAL — and logs whose every entry already rests in a segment
	// (the crash window between manifest commit and WAL removal) are
	// deleted on the spot.
	seqs, err := listWALs(dir)
	if err != nil {
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	maxSeq := 0
	for _, seq := range seqs {
		path := filepath.Join(dir, walName(seq))
		entries, validLen, err := replayWAL(path)
		if err != nil {
			return nil, err
		}
		live := entries[:0]
		for _, e := range entries {
			if w.seenKeys[e.key] {
				continue // already compacted before the crash
			}
			w.seenKeys[e.key] = true
			w.seenIdx.set(e.index)
			w.memRecs += e.records()
			live = append(live, e)
		}
		if len(live) == 0 {
			os.Remove(path)
			continue
		}
		w.frozen = append(w.frozen, frozenWAL{seq: seq, path: path, bytes: validLen, entries: live})
		if seq > maxSeq {
			maxSeq = seq
		}
	}
	w.walSeq = maxSeq + 1
	if err := w.openActiveWAL(); err != nil {
		return nil, err
	}
	return w, nil
}

// OpenRun opens the warehouse in dir for a run of spec, pinned to the
// spec's hash so another spec's store is refused. A resume returns the
// done set straight off the unit index (no record is decoded); a fresh run
// refuses a warehouse that already holds units.
func OpenRun(dir string, spec *campaign.Spec, resume bool) (*Warehouse, map[string]bool, error) {
	w, err := Open(dir, Options{SpecHash: spec.Hash()})
	if err != nil {
		return nil, nil, err
	}
	if resume {
		return w, w.SeenUnits(), nil
	}
	if n := w.Units(); n > 0 {
		w.Close()
		return nil, nil, fmt.Errorf("warehouse: %s already holds %d units — resume it or use a new directory", dir, n)
	}
	return w, nil, nil
}

// openActiveWAL starts a fresh log at the current sequence number.
func (w *Warehouse) openActiveWAL() error {
	f, err := os.OpenFile(filepath.Join(w.dir, walName(w.walSeq)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("warehouse: opening wal: %w", err)
	}
	w.wal = f
	w.walBytes = 0
	return nil
}

// commitManifest writes the manifest atomically.
func (w *Warehouse) commitManifest(man manifest) error {
	data, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("warehouse: encoding manifest: %w", err)
	}
	return wal.Commit(filepath.Join(w.dir, manifestName), data, 0o644)
}

// SpecHash returns the spec hash the store is pinned to ("" while empty
// and unpinned).
func (w *Warehouse) SpecHash() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.man.SpecHash
}

// Deposit implements campaign.Store: the unit's records are encoded as
// one WAL frame and the unit key becomes visible to SeenUnits
// immediately. A deposit for a unit key the store already holds is
// dropped and counted — the idempotent-merge contract hedged and
// resumed runs rely on. nil records acknowledge a unit satisfied on
// resume without writing anything.
func (w *Warehouse) Deposit(index int, recs []campaign.Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("warehouse: deposit after Close")
	}
	if err := w.compactErr; err != nil {
		return err
	}
	if len(recs) == 0 {
		w.flushed++
		return nil
	}
	key := recs[0].Unit
	if w.seenKeys[key] {
		w.deduped++
		return nil
	}
	e := entry{index: int64(index), key: key, lines: make([][]byte, 0, len(recs))}
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("warehouse: encoding record %s: %w", rec.Unit, err)
		}
		e.lines = append(e.lines, line)
	}
	w.walBuf = wal.AppendFrame(w.walBuf[:0], func(b []byte) []byte { return appendEntry(b, e) })
	if _, err := w.wal.Write(w.walBuf); err != nil {
		return fmt.Errorf("warehouse: appending to wal: %w", err)
	}
	if w.opts.Sync {
		if err := w.wal.Sync(); err != nil {
			return fmt.Errorf("warehouse: syncing wal: %w", err)
		}
	}
	w.walBytes += int64(len(w.walBuf))
	w.mem = append(w.mem, e)
	w.memRecs += len(recs)
	w.seenKeys[key] = true
	w.seenIdx.set(int64(index))
	w.flushed++
	w.written += len(recs)
	if w.opts.CompactAt > 0 && w.walBytes >= w.opts.CompactAt && !w.compacting {
		if err := w.rotateLocked(); err != nil {
			return err
		}
		w.compacting = true
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.drainFrozen()
		}()
	}
	return nil
}

// rotateLocked freezes the active WAL and starts a new one. Callers hold
// w.mu.
func (w *Warehouse) rotateLocked() error {
	if len(w.mem) == 0 {
		return nil
	}
	if err := w.wal.Sync(); err != nil {
		return fmt.Errorf("warehouse: syncing wal: %w", err)
	}
	if err := w.wal.Close(); err != nil {
		return fmt.Errorf("warehouse: closing wal: %w", err)
	}
	w.frozen = append(w.frozen, frozenWAL{
		seq:     w.walSeq,
		path:    filepath.Join(w.dir, walName(w.walSeq)),
		bytes:   w.walBytes,
		entries: w.mem,
	})
	w.mem = nil
	w.walSeq++
	return w.openActiveWAL()
}

// drainFrozen folds every frozen WAL into one committed segment. It runs
// in the background compactor goroutine and inline under Compact; the
// compactMu serializes segment writes, and w.mu is never held across
// compression or disk IO, so deposits proceed while a segment builds.
func (w *Warehouse) drainFrozen() error {
	w.compactMu.Lock()
	defer w.compactMu.Unlock()
	defer func() {
		w.mu.Lock()
		w.compacting = false
		w.mu.Unlock()
	}()
	for {
		w.mu.Lock()
		if w.compactErr != nil {
			err := w.compactErr
			w.mu.Unlock()
			return err
		}
		frozen := append([]frozenWAL(nil), w.frozen...)
		man := w.man
		w.mu.Unlock()
		if len(frozen) == 0 {
			return nil
		}
		var entries []entry
		for _, fw := range frozen {
			entries = append(entries, fw.entries...)
		}
		// Deterministic layout: segment order is unit order, whatever
		// order deposits arrived in.
		sortEntries(entries)
		name := fmt.Sprintf("seg-%06d", man.NextSeq)
		idx, err := writeSegment(w.dir, name, entries, w.opts.BlockSize)
		if err != nil {
			w.fail(err)
			return err
		}
		next := man
		next.Segments = append(append([]string(nil), man.Segments...), name)
		next.NextSeq++
		if err := w.commitManifest(next); err != nil {
			w.fail(err)
			return err
		}
		w.mu.Lock()
		w.man = next
		w.segs = append(w.segs, idx)
		w.segRecs += idx.Records
		w.memRecs -= idx.Records
		w.frozen = w.frozen[len(frozen):]
		w.compactions++
		w.mu.Unlock()
		// The segment is durable; the logs it covers can go. A crash
		// before this point only means replay re-drops their entries.
		for _, fw := range frozen {
			os.Remove(fw.path)
		}
	}
}

// fail latches a background compaction error; the next Deposit, Compact
// or Close surfaces it.
func (w *Warehouse) fail(err error) {
	w.mu.Lock()
	if w.compactErr == nil {
		w.compactErr = err
	}
	w.mu.Unlock()
}

// Compact synchronously folds everything pending — the active memtable
// and any frozen logs — into a committed segment. A store with nothing
// pending is a no-op.
func (w *Warehouse) Compact() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("warehouse: compact after Close")
	}
	if err := w.rotateLocked(); err != nil {
		w.mu.Unlock()
		return err
	}
	w.mu.Unlock()
	return w.drainFrozen()
}

// Close waits for background compaction and closes the active WAL. It
// does not force a final compaction: anything still in the WAL replays
// on the next Open.
func (w *Warehouse) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	w.mu.Unlock()
	w.wg.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	var err error
	if w.wal != nil {
		if serr := w.wal.Sync(); serr != nil {
			err = serr
		}
		if cerr := w.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
		w.wal = nil
	}
	if w.compactErr != nil {
		return w.compactErr
	}
	return err
}

// Flushed implements campaign.Store.
func (w *Warehouse) Flushed() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushed
}

// Written implements campaign.Store.
func (w *Warehouse) Written() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}

// Deduped implements campaign.Store.
func (w *Warehouse) Deduped() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.deduped
}

// SeenUnits returns the set of unit keys the store holds — the resume
// fast path. It is served entirely from the in-memory unit index built
// off segment sidecars and WAL replay; no record is ever decoded.
func (w *Warehouse) SeenUnits() map[string]bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make(map[string]bool, len(w.seenKeys))
	for k := range w.seenKeys {
		out[k] = true
	}
	return out
}

// SeenIndex reports whether a unit index has been deposited — the
// bitmap-backed point lookup. Unit indexes are stable within one spec;
// the key set (SeenUnits) is the authority across imports.
func (w *Warehouse) SeenIndex(index int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seenIdx.get(int64(index))
}

// Units reports how many distinct units the store holds.
func (w *Warehouse) Units() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.seenKeys)
}

// Stats snapshots the store.
func (w *Warehouse) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	walBytes := w.walBytes
	for _, fw := range w.frozen {
		walBytes += fw.bytes
	}
	return Stats{
		Units:          len(w.seenKeys),
		Records:        w.segRecs + w.memRecs,
		Segments:       len(w.segs),
		SegmentRecords: w.segRecs,
		WALRecords:     w.memRecs,
		WALBytes:       walBytes,
		Compactions:    w.compactions,
		IndexSkips:     w.idxSkips.Load(),
		IndexReads:     w.idxReads.Load(),
	}
}

// bitset is the unit-index bitmap: one bit per unit index in the spec's
// compiled list, grown on demand.
type bitset []uint64

func (b *bitset) set(i int64) {
	if i < 0 {
		return
	}
	word := int(i >> 6)
	for len(*b) <= word {
		*b = append(*b, 0)
	}
	(*b)[word] |= 1 << (uint(i) & 63)
}

func (b bitset) get(i int64) bool {
	if i < 0 {
		return false
	}
	word := int(i >> 6)
	if word >= len(b) {
		return false
	}
	return b[word]&(1<<(uint(i)&63)) != 0
}

// sortEntries orders by unit index, breaking ties by key so imports with
// synthetic indexes stay deterministic.
func sortEntries(entries []entry) {
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].index != entries[j].index {
			return entries[i].index < entries[j].index
		}
		return entries[i].key < entries[j].key
	})
}
