package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// lineScanner iterates the lines of a JSONL stream while tracking the
// byte offset just past the last complete (newline-terminated) line. It
// tolerates lines of any length — the scratch buffer grows as needed and
// is reused across lines, so scanning allocates O(longest line), not
// O(file).
type lineScanner struct {
	r      *bufio.Reader
	buf    []byte
	offset int64 // bytes consumed through the end of the last terminated line
}

func newLineScanner(r io.Reader) *lineScanner {
	return &lineScanner{r: bufio.NewReaderSize(r, 1<<16)}
}

// next returns the following line without its newline. terminated is
// false for a torn final line with no trailing newline (the offset does
// not advance past it). A nil line with a nil error is clean EOF.
func (ls *lineScanner) next() (line []byte, terminated bool, err error) {
	ls.buf = ls.buf[:0]
	for {
		chunk, err := ls.r.ReadSlice('\n')
		ls.buf = append(ls.buf, chunk...)
		switch err {
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(ls.buf) == 0 {
				return nil, false, nil
			}
			return ls.buf, false, nil
		case nil:
			ls.offset += int64(len(ls.buf))
			return ls.buf[:len(ls.buf)-1], true, nil
		default:
			return nil, false, fmt.Errorf("campaign: reading records: %w", err)
		}
	}
}

// StreamRecords decodes a JSONL stream one record at a time, calling fn
// for each, without retaining previous records — the memory profile is
// O(longest line) plus whatever fn keeps, where DecodeRecords holds the
// whole artifact. Empty lines are skipped; a malformed line (including a
// torn final line that is not valid JSON) stops the stream with an error,
// as does the first error fn returns.
func StreamRecords(r io.Reader, fn func(Record) error) error {
	ls := newLineScanner(r)
	lineNo := 0
	for {
		line, _, err := ls.next()
		if err != nil {
			return err
		}
		if line == nil {
			return nil
		}
		lineNo++
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("campaign: line %d: %w", lineNo, err)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// seenRecord is the slice of a Record the resume fast path needs; parsing
// into it skips the measurement fields, maps and slices a full decode
// would allocate.
type seenRecord struct {
	SpecHash string `json:"spec_hash"`
	Unit     string `json:"unit"`
}

// scanUnits is the reader behind resume, for the artifact and its journal
// alike. It calls decode on each line of r's valid prefix, with the line's
// offset, and returns the prefix's length; the prefix ends before the
// first torn or malformed line (decode fails on the latter). Both files
// hold each unit's records on consecutive lines, so a write cut short
// leaves at most the final unit partial. A task unit is one record, whole or torn, but an experiment
// unit is one record per table row: when the prefix ends in one, its
// first line ends validLen and partial names it, so the unit reruns.
func scanUnits(r io.Reader, decode func(line []byte, off int64) (unit string, err error)) (validLen int64, partial string, err error) {
	ls := newLineScanner(r)
	var last string
	var lastStart int64
	for {
		start := ls.offset
		line, terminated, err := ls.next()
		if err != nil {
			return validLen, "", err
		}
		if line == nil || !terminated {
			break
		}
		if len(line) > 0 {
			unit, err := decode(line, start)
			if err != nil {
				break
			}
			if unit != last {
				last, lastStart = unit, start
			}
		}
		validLen = ls.offset
	}
	if strings.HasPrefix(last, KindExperiment+"/") {
		return lastStart, last, nil
	}
	return validLen, "", nil
}

// ScanDone is the streaming fast path behind resume: one pass over a
// JSONL results stream collecting only the seen unit-key set and the
// first record's spec hash, without decoding measurement fields or
// retaining records. It returns the byte length of the valid JSONL
// prefix; a torn or malformed tail (from a killed run) is tolerated and
// simply ends the scan, and a final experiment unit is left out as
// possibly partial (see scanUnits), so the unit owning either reruns on
// resume.
func ScanDone(r io.Reader) (done map[string]bool, specHash string, validLen int64, err error) {
	done = map[string]bool{}
	validLen, partial, err := scanUnits(r, func(line []byte, _ int64) (string, error) {
		var rec seenRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return "", err
		}
		if specHash == "" {
			specHash = rec.SpecHash
		}
		done[rec.Unit] = true
		return rec.Unit, nil
	})
	delete(done, partial)
	return done, specHash, validLen, err
}

// ScanDoneFile is ScanDone over a file; a missing file reads as empty.
func ScanDoneFile(path string) (done map[string]bool, specHash string, validLen int64, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[string]bool{}, "", 0, nil
	}
	if err != nil {
		return nil, "", 0, fmt.Errorf("campaign: reading results: %w", err)
	}
	defer f.Close()
	return ScanDone(f)
}

// OpenJSONL opens the JSONL artifact at path for a run of spec and returns
// the Sink that writes it, with its journal at path+".pending" (see Sink).
// A fresh run truncates the artifact and removes a stale journal. A resume
// loads the done set with ScanDoneFile, refuses another spec's artifact,
// cuts the artifact back to its valid prefix and restores the journal's
// whole units. The caller closes the Sink.
func OpenJSONL(path string, spec *Spec, resume bool) (*Sink, map[string]bool, error) {
	s := NewSink(nil)
	s.journalPath = path + ".pending"
	var done map[string]bool
	var validLen int64
	if resume {
		var specHash string
		var err error
		if done, specHash, validLen, err = ScanDoneFile(path); err != nil {
			return nil, nil, err
		}
		if err := refuseForeign(path, specHash, spec); err != nil {
			return nil, nil, err
		}
		if err := s.restore(spec, done); err != nil {
			s.Close()
			return nil, nil, err
		}
	} else if err := removeJournal(s.journalPath); err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err == nil {
		s.w, s.file = f, f
		if err = f.Truncate(validLen); err == nil {
			_, err = f.Seek(validLen, io.SeekStart)
		}
	}
	if err != nil {
		s.Close()
		return nil, nil, err
	}
	return s, done, nil
}

// refuseForeign fails when fileHash, read from file, is another spec's.
func refuseForeign(file, fileHash string, spec *Spec) error {
	if hash := spec.Hash(); fileHash != "" && fileHash != hash {
		return fmt.Errorf("campaign: %s was produced by spec %s, not %s — refusing to resume",
			file, fileHash, hash)
	}
	return nil
}

// removeJournal removes the journal at path, if there is one.
func removeJournal(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("campaign: %w", err)
	}
	return nil
}

// restore reads the journal by ScanDone's rules, refuses another spec's,
// and deposits each whole unit in it that done lacks, as a journaled unit
// whose bytes stay in the journal, adding its key to done so Run and
// cluster.New skip it. The journal keeps its valid prefix, so restored
// units are never journaled twice; one with nothing to restore is
// removed.
func (s *Sink) restore(spec *Spec, done map[string]bool) error {
	f, err := os.OpenFile(s.journalPath, os.O_RDWR|os.O_APPEND, 0)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("campaign: reading journal: %w", err)
	}
	held := map[string]waitingUnit{}
	var specHash string
	validLen, partial, err := scanUnits(f, func(line []byte, off int64) (string, error) {
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return "", err
		}
		if specHash == "" {
			specHash = rec.SpecHash
		}
		if !done[rec.Unit] {
			u, seen := held[rec.Unit]
			if !seen {
				u.off = off
			} else if u.off+u.n != off {
				return "", fmt.Errorf("campaign: journal holds unit %s twice", rec.Unit)
			}
			u.n = off + int64(len(line)) + 1 - u.off
			u.records++
			held[rec.Unit] = u
		}
		return rec.Unit, nil
	})
	if err == nil {
		err = refuseForeign(s.journalPath, specHash, spec)
	}
	delete(held, partial)
	if err != nil || len(held) == 0 {
		f.Close()
		if err == nil {
			err = removeJournal(s.journalPath)
		}
		return err
	}
	s.journal, s.journalLen = f, validLen
	if err := f.Truncate(validLen); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	schemes := spec.schemeLists()
	for i, n := 0, int(spec.UnitCount()); i < n && len(held) > 0; i++ {
		key := spec.unit(schemes, i).Key()
		if u, ok := held[key]; ok {
			s.pending[i], done[key] = u, true
			delete(held, key)
		}
	}
	return nil
}
