package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
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

// ScanDone is the streaming fast path behind resume: one pass over a
// JSONL results stream collecting only the seen unit-key set and the
// first record's spec hash, without decoding measurement fields or
// retaining records. It returns the byte length of the valid JSONL
// prefix; a torn or malformed tail (from a killed run) is tolerated and
// simply ends the scan, so the unit owning it re-runs on resume.
func ScanDone(r io.Reader) (done map[string]bool, specHash string, validLen int64, err error) {
	done = map[string]bool{}
	ls := newLineScanner(r)
	for {
		line, terminated, err := ls.next()
		if err != nil {
			return done, specHash, validLen, err
		}
		if line == nil || !terminated {
			return done, specHash, validLen, nil
		}
		if len(line) > 0 {
			var rec seenRecord
			if err := json.Unmarshal(line, &rec); err != nil {
				return done, specHash, validLen, nil
			}
			if specHash == "" {
				specHash = rec.SpecHash
			}
			done[rec.Unit] = true
		}
		validLen = ls.offset
	}
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

// OpenJSONL opens the JSONL artifact at path for a run of spec, positioned
// for appending. A fresh run truncates it. A resume loads the done set with
// ScanDoneFile, refuses an artifact another spec produced, and drops any
// torn final line so the first appended record starts on a line of its
// own. The caller wraps the file in a Sink and closes it.
func OpenJSONL(path string, spec *Spec, resume bool) (*os.File, map[string]bool, error) {
	var done map[string]bool
	var validLen int64
	if resume {
		var specHash string
		var err error
		if done, specHash, validLen, err = ScanDoneFile(path); err != nil {
			return nil, nil, err
		}
		if hash := spec.Hash(); specHash != "" && specHash != hash {
			return nil, nil, fmt.Errorf("campaign: %s was produced by spec %s, not %s — refusing to resume",
				path, specHash, hash)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, done, nil
}
