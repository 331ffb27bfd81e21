package campaign

import (
	"fmt"
	"io"
	"sync"
)

// Sink serializes records as JSONL in unit-index order. Units complete out
// of order under the worker pool, so out-of-order batches are buffered and
// flushed as soon as every lower-indexed unit has been deposited. This
// makes the byte stream deterministic for a given spec and seed (apart
// from wall-time fields) and means an interrupted sink always holds an
// index-prefix of the unit list plus nothing torn mid-unit: each unit's
// records are written with a single Write call.
type Sink struct {
	mu      sync.Mutex
	w       io.Writer
	next    int
	pending map[int][]Record
	flushed int
	written int
	deduped int
}

// NewSink wraps w; the caller owns closing any underlying file.
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
	for {
		batch, ok := s.pending[s.next]
		if !ok {
			return nil
		}
		delete(s.pending, s.next)
		if len(batch) > 0 {
			var buf []byte
			var err error
			for _, rec := range batch {
				if buf, err = rec.encode(buf); err != nil {
					return err
				}
			}
			if _, err := s.w.Write(buf); err != nil {
				return fmt.Errorf("campaign: sink: writing unit %d: %w", s.next, err)
			}
			s.written += len(batch)
		}
		s.next++
		s.flushed++
	}
}

// Flushed reports how many units have been written (or skipped) so far.
func (s *Sink) Flushed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushed
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
