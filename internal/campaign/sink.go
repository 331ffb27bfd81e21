package campaign

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
)

// journalAfter bounds the finished units a Sink with a journal holds only
// in memory.
const journalAfter = 64

// flushChunk bounds the bytes a flush buffers before it writes them.
const flushChunk = 1 << 20

// Sink serializes records as JSONL in unit-index order. Units complete out
// of order under the worker pool and the shard merge, so a finished unit
// waits until every lower-indexed unit has been deposited. This makes the
// byte stream deterministic for a given spec and seed (apart from
// wall-time fields), and an interrupted artifact holds an index-prefix of
// the unit list. Each flush writes its run of ready units in one Write
// (one per flushChunk bytes for a longer run), but a write cut short can
// still tear the last unit; ScanDone leaves such a unit out, so it reruns
// on resume.
//
// A Sink that OpenJSONL opens also keeps a journal, <out>.pending: when a
// deposit leaves more than journalAfter units waiting, every waiting unit
// not yet journaled is appended to it in one Write, in the artifact's
// encoding. A journaled unit keeps only where its bytes sit in the
// journal, and a flush copies those bytes into the artifact. So at most
// journalAfter finished units live only in memory, and a crash loses no
// more than those, however long a unit waits. The journal is truncated
// whenever no unit is left waiting.
type Sink struct {
	mu      sync.Mutex
	w       io.Writer
	next    int
	pending map[int]waitingUnit
	written int
	deduped int    // records of dropped duplicate deposits
	buf     []byte // encoding scratch, reused across flushes and appends

	file        *os.File // the artifact OpenJSONL opened
	journalPath string   // "" for a Sink without a journal
	journal     *os.File // opened on first use
	journalLen  int64
	fresh       []int // the waiting units not yet journaled, and some flushed ones
}

// waitingUnit is a finished unit that waits for a lower one: its records,
// or, once journaled, where its bytes sit in the journal.
type waitingUnit struct {
	recs    []Record // nil once journaled
	records int
	off, n  int64 // the journaled bytes
}

// NewSink wraps w, with no journal; the caller owns closing any underlying
// file.
func NewSink(w io.Writer) *Sink {
	return &Sink{w: w, pending: make(map[int]waitingUnit)}
}

// Deposit hands the sink the records of unit index (nil for a unit skipped
// on resume) and flushes every consecutive ready unit. Safe for concurrent
// use by pool workers.
//
// Deposits are idempotent: a second deposit for an index already pending or
// already flushed — as produced by hedged shard dispatch, a reassigned
// lease whose original holder completed anyway, or a resumed run replaying
// a unit — is dropped and its records counted (see Deduped). The first
// deposit wins; units are deterministic in (spec, seed), so dropped
// duplicates carry the same payload apart from wall-time fields.
func (s *Sink) Deposit(index int, recs []Record) error {
	return s.DepositUnits(index, [][]Record{recs})
}

// DepositUnits deposits batches[k] as unit first+k, each as Deposit does,
// then flushes and journals once for all of them: a merged shard costs one
// artifact Write and at most one journal append.
func (s *Sink) DepositUnits(first int, batches [][]Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, recs := range batches {
		index := first + k
		if _, dup := s.pending[index]; dup || index < s.next {
			s.deduped += len(recs)
			continue
		}
		if recs == nil {
			recs = []Record{}
		}
		s.pending[index] = waitingUnit{recs: recs, records: len(recs)}
		if s.journalPath != "" {
			s.fresh = append(s.fresh, index)
		}
	}
	if err := s.flush(); err != nil || s.journalPath == "" {
		return err
	}
	switch {
	case len(s.pending) == 0 && s.journalLen > 0:
		s.journalLen = 0
		if err := s.journal.Truncate(0); err != nil {
			return fmt.Errorf("campaign: sink: emptying journal: %w", err)
		}
	case len(s.pending) > journalAfter:
		return s.appendJournal()
	case len(s.fresh) > 2*journalAfter:
		s.fresh = s.waiting(s.fresh) // at most journalAfter stay
	}
	return nil
}

// flush writes every consecutive ready unit from s.next on, copying
// journaled units back from the journal.
func (s *Sink) flush() error {
	buf, records, first := s.buf[:0], 0, s.next
	for {
		u, ok := s.pending[s.next]
		if ok {
			delete(s.pending, s.next)
			var err error
			if u.recs != nil {
				buf, err = encodeUnit(buf, u.recs)
			} else if u.n > 0 {
				at := len(buf)
				buf = slices.Grow(buf, int(u.n))[:at+int(u.n)]
				_, err = s.journal.ReadAt(buf[at:], u.off)
			}
			if err != nil {
				return fmt.Errorf("campaign: sink: unit %d: %w", s.next, err)
			}
			records += u.records
			s.next++
		}
		if len(buf) > 0 && (!ok || len(buf) >= flushChunk) {
			if _, err := s.w.Write(buf); err != nil {
				return fmt.Errorf("campaign: sink: writing units %d..%d: %w", first, s.next-1, err)
			}
			s.written += records
			buf, records, first = buf[:0], 0, s.next
		}
		if !ok {
			s.buf = buf
			return nil
		}
	}
}

// encodeUnit appends one unit's records to buf, one JSON line each.
func encodeUnit(buf []byte, recs []Record) ([]byte, error) {
	var err error
	for _, rec := range recs {
		if buf, err = rec.encode(buf); err != nil {
			break
		}
	}
	return buf, err
}

// waiting filters units, in place, down to those still waiting.
func (s *Sink) waiting(units []int) []int {
	return slices.DeleteFunc(units, func(i int) bool {
		_, ok := s.pending[i]
		return !ok
	})
}

// appendJournal appends every waiting unit not yet journaled, in index
// order, creating the journal on first use. Once the append succeeds the
// units keep only their place in the journal.
func (s *Sink) appendJournal() error {
	units := s.waiting(s.fresh)
	s.fresh = s.fresh[:0]
	slices.Sort(units)
	buf := s.buf[:0]
	ends := make([]int, len(units))
	var err error
	for k, i := range units {
		if buf, err = encodeUnit(buf, s.pending[i].recs); err != nil {
			return err
		}
		ends[k] = len(buf)
	}
	s.buf = buf
	if len(buf) == 0 {
		return nil
	}
	if s.journal == nil {
		if s.journal, err = os.OpenFile(s.journalPath, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644); err != nil {
			return fmt.Errorf("campaign: sink: %w", err)
		}
	}
	n, err := s.journal.Write(buf)
	base := s.journalLen
	s.journalLen += int64(n)
	if err != nil {
		return fmt.Errorf("campaign: sink: journaling %d units: %w", len(units), err)
	}
	start := 0
	for k, i := range units {
		u := s.pending[i]
		s.pending[i] = waitingUnit{records: u.records, off: base + int64(start), n: int64(ends[k] - start)}
		start = ends[k]
	}
	return nil
}

// Close journals every unit still waiting, so a run that stops early keeps
// its finished units for a resume. It then closes the artifact and the
// journal, removing the journal if it is empty. Close is a no-op on a Sink
// made by NewSink, and on a closed Sink.
func (s *Sink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.journalPath != "" {
		err = s.appendJournal()
	}
	if s.journal != nil {
		err = errors.Join(err, s.journal.Close())
		if s.journalLen == 0 {
			err = errors.Join(err, removeJournal(s.journalPath))
		}
		s.journal = nil
	}
	if s.file != nil {
		err = errors.Join(err, s.file.Close())
		s.file = nil
	}
	s.journalPath = ""
	return err
}

// Written reports how many records have been written so far.
func (s *Sink) Written() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written
}

// Deduped reports how many records duplicate deposits have carried and
// the sink has dropped so far. A nil re-deposit of a unit skipped on
// resume carries none.
func (s *Sink) Deduped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deduped
}
