package warehouse

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"oraclesize/internal/wal"
)

// The write-ahead log is an internal/wal log with one entry per frame. A
// deposit appends exactly one frame with a single write call; replay
// stops at the first torn or corrupt frame, and everything after it is
// the tail of a killed process, truncated away — so an interrupted
// deposit never surfaces as a half-written unit.

// maxFramePayload bounds one frame so a corrupt length prefix cannot
// trigger a giant allocation during replay.
const maxFramePayload = 1 << 28

// replayWAL reads every intact entry from the WAL at path. It returns
// the decoded entries and the byte length of the valid frame prefix;
// content past validLen is torn or corrupt and must be truncated before
// the file is appended to again. A missing file reads as empty.
func replayWAL(path string) (entries []entry, validLen int64, err error) {
	validLen, err = wal.ReplayFile(path, maxFramePayload, func(payload []byte) bool {
		e, rest, err := decodeEntry(payload)
		if err != nil || len(rest) != 0 {
			return false
		}
		entries = append(entries, e)
		return true
	})
	return entries, validLen, err
}

// walName renders the WAL filename for a sequence number.
func walName(seq int) string { return fmt.Sprintf("wal-%06d.log", seq) }

// listWALs returns the (seq, path) of every WAL file in dir, in sequence
// order.
func listWALs(dir string) ([]int, error) {
	names, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, name := range names {
		base := filepath.Base(name)
		numPart := strings.TrimSuffix(strings.TrimPrefix(base, "wal-"), ".log")
		seq, err := strconv.Atoi(numPart)
		if err != nil {
			continue // not ours
		}
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	return seqs, nil
}
