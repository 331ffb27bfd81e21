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

// Sink serializes records as JSONL in unit-index order. Units complete out
// of order under the worker pool and the shard merge, so a finished unit
// waits in memory until every lower-indexed unit has been deposited. This
// makes the byte stream deterministic for a given spec and seed (apart
// from wall-time fields), and an interrupted artifact holds an
// index-prefix of the unit list. Each unit's records go out in one Write,
// but a write cut short can still tear the last unit; ScanDone leaves such
// a unit out, so it reruns on resume.
//
// A Sink that OpenJSONL opens also keeps a journal, <out>.pending: when a
// deposit leaves more than journalAfter units waiting, every waiting unit
// not yet journaled is appended to it in one Write, in the artifact's
// encoding. So a crash loses at most journalAfter finished units. The
// journal is truncated whenever no unit is left waiting.
type Sink struct {
	mu      sync.Mutex
	w       io.Writer
	next    int
	pending map[int][]Record
	written int
	deduped int

	file        *os.File // the artifact OpenJSONL opened
	journalPath string   // "" for a Sink without a journal
	journal     *os.File // opened on first use
	journalLen  int64
	fresh       []int // the waiting units not yet journaled, and some flushed ones
}

// NewSink wraps w, with no journal; the caller owns closing any underlying
// file.
func NewSink(w io.Writer) *Sink {
	return &Sink{w: w, pending: make(map[int][]Record)}
}

// Deposit hands the sink the records of unit index (nil for a unit skipped
// on resume) and flushes every consecutive ready unit. Safe for concurrent
// use by pool workers.
//
// Deposits are idempotent: a second deposit for an index already pending or
// already flushed — as produced by hedged shard dispatch, a reassigned
// lease whose original holder completed anyway, or a resumed run replaying
// a unit — is dropped and counted (see Deduped). The first deposit wins;
// units are deterministic in (spec, seed), so dropped duplicates carry the
// same payload apart from wall-time fields.
func (s *Sink) Deposit(index int, recs []Record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.pending[index]; dup || index < s.next {
		s.deduped++
		return nil
	}
	if recs == nil {
		recs = []Record{}
	}
	s.pending[index] = recs
	if err := s.flush(); err != nil || s.journalPath == "" {
		return err
	}
	_, waiting := s.pending[index]
	switch {
	case len(s.pending) == 0 && s.journalLen > 0:
		s.journalLen = 0
		if err := s.journal.Truncate(0); err != nil {
			return fmt.Errorf("campaign: sink: emptying journal: %w", err)
		}
	case waiting:
		s.fresh = append(s.fresh, index)
		if len(s.pending) > journalAfter {
			return s.appendJournal()
		}
		if len(s.fresh) > 2*journalAfter {
			s.fresh = s.waiting(s.fresh) // at most journalAfter stay
		}
	}
	return nil
}

// flush writes every consecutive ready unit from s.next on.
func (s *Sink) flush() error {
	for {
		batch, ok := s.pending[s.next]
		if !ok {
			return nil
		}
		delete(s.pending, s.next)
		if len(batch) > 0 {
			buf, err := encodeUnit(nil, batch)
			if err != nil {
				return err
			}
			if _, err := s.w.Write(buf); err != nil {
				return fmt.Errorf("campaign: sink: writing unit %d: %w", s.next, err)
			}
			s.written += len(batch)
		}
		s.next++
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
// order, creating the journal on first use.
func (s *Sink) appendJournal() error {
	units := s.waiting(s.fresh)
	s.fresh = s.fresh[:0]
	slices.Sort(units)
	var buf []byte
	var err error
	for _, i := range units {
		if buf, err = encodeUnit(buf, s.pending[i]); err != nil {
			return err
		}
	}
	if len(buf) == 0 {
		return nil
	}
	if s.journal == nil {
		if s.journal, err = os.OpenFile(s.journalPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
			return fmt.Errorf("campaign: sink: %w", err)
		}
	}
	n, err := s.journal.Write(buf)
	s.journalLen += int64(n)
	if err != nil {
		return fmt.Errorf("campaign: sink: journaling %d units: %w", len(units), err)
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

// Deduped reports how many duplicate deposits have been dropped so far.
func (s *Sink) Deduped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deduped
}
