package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func appendPayload(buf, p []byte) []byte {
	return AppendFrame(buf, func(b []byte) []byte { return append(b, p...) })
}

// replayAll replays log and copies out every accepted payload.
func replayAll(t *testing.T, log []byte, maxPayload uint32) ([][]byte, int64) {
	t.Helper()
	var got [][]byte
	n, err := Replay(bytes.NewReader(log), maxPayload, func(p []byte) bool {
		got = append(got, append([]byte(nil), p...))
		return true
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got, n
}

// TestFrameLayout pins the on-disk bytes: big-endian length, big-endian
// CRC-32 (IEEE) of the payload, payload.
func TestFrameLayout(t *testing.T) {
	got := appendPayload([]byte("prefix"), []byte("hello"))
	want := []byte("prefix")
	want = binary.BigEndian.AppendUint32(want, 5)
	want = binary.BigEndian.AppendUint32(want, crc32.ChecksumIEEE([]byte("hello")))
	want = append(want, "hello"...)
	if !bytes.Equal(got, want) {
		t.Fatalf("frame = %x, want %x", got, want)
	}
}

func TestReplayStopsAtCorruptFrame(t *testing.T) {
	var log []byte
	for _, p := range []string{"one", "two", "three"} {
		log = appendPayload(log, []byte(p))
	}
	first := int64(HeaderLen + 3)
	oversize := binary.BigEndian.AppendUint32(append([]byte(nil), log[:first]...), 1<<20)
	zeroed := append(append([]byte(nil), log[:first]...), make([]byte, 64)...)
	for name, tc := range map[string]struct {
		log  []byte
		want int
	}{
		"pristine":     {log, 3},
		"oversize":     {append(oversize, make([]byte, 12)...), 1},
		"zeroed tail":  {zeroed, 1},
		"torn header":  {log[:first+5], 1},
		"torn payload": {log[:len(log)-1], 2},
	} {
		got, n := replayAll(t, tc.log, 1<<10)
		if len(got) != tc.want {
			t.Errorf("%s: replayed %d frames, want %d", name, len(got), tc.want)
		}
		if want := int64(len(appendFrames(got))); n != want {
			t.Errorf("%s: validLen %d, want %d", name, n, want)
		}
	}

	// A payload the decoder refuses ends replay before that frame.
	n, err := Replay(bytes.NewReader(log), 1<<10, func(p []byte) bool { return string(p) != "two" })
	if err != nil || n != first {
		t.Errorf("decoder refusal: validLen %d err %v, want %d", n, err, first)
	}
}

func appendFrames(payloads [][]byte) []byte {
	var log []byte
	for _, p := range payloads {
		log = appendPayload(log, p)
	}
	return log
}

type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errors.New("disk on fire") }

func TestReplayReportsReadErrors(t *testing.T) {
	if _, err := Replay(failingReader{}, 1<<10, func([]byte) bool { return true }); err == nil {
		t.Fatal("a failed read replayed as a clean end of log")
	}
	n, err := ReplayFile(filepath.Join(t.TempDir(), "missing.log"), 1<<10, func([]byte) bool { return true })
	if n != 0 || err != nil {
		t.Fatalf("missing file: validLen %d err %v, want an empty log", n, err)
	}
}

func TestCommit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "MANIFEST.json")
	for _, data := range []string{"first", "second"} {
		if err := Commit(path, []byte(data), 0o600); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != data {
			t.Fatalf("read back %q (%v), want %q", got, err, data)
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o600 {
		t.Errorf("mode %v, want 0600", perm)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temp file left behind: %v", err)
	}
	if err := Commit(filepath.Join(path, "not-a-dir"), nil, 0o600); err == nil {
		t.Error("commit under a regular file succeeded")
	}
}

// FuzzFrames appends random payloads, damages the log — cut at any
// offset, one byte flipped, or both — and requires replay to return a
// prefix of the payloads with validLen on a frame boundary. Truncating to
// validLen and appending again must then replay cleanly.
func FuzzFrames(f *testing.F) {
	f.Add([]byte("hello, write-ahead log"), uint16(17), uint16(3), byte(0x01))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint16(0xffff), uint16(9), byte(0))
	f.Add([]byte{}, uint16(0), uint16(0), byte(0xff))
	f.Fuzz(func(t *testing.T, data []byte, cut, flip uint16, mask byte) {
		// Carve data into non-empty payloads whose lengths the data picks.
		var payloads [][]byte
		for rest := data; len(rest) > 0; {
			n := min(1+int(rest[0])%40, len(rest))
			payloads = append(payloads, rest[:n])
			rest = rest[n:]
		}
		log := appendFrames(payloads)
		ends := []int64{0}
		for i := range payloads {
			ends = append(ends, ends[i]+HeaderLen+int64(len(payloads[i])))
		}
		if len(log) > 0 {
			log[int(flip)%len(log)] ^= mask
			log = log[:int(cut)%(len(log)+1)]
		}

		got, validLen := replayAll(t, log, 64)
		if len(got) > len(payloads) {
			t.Fatalf("replayed %d frames from %d appended", len(got), len(payloads))
		}
		for i := range got {
			if !bytes.Equal(got[i], payloads[i]) {
				t.Fatalf("frame %d replayed %q, appended %q", i, got[i], payloads[i])
			}
		}
		if validLen != ends[len(got)] {
			t.Fatalf("validLen %d is not the end of frame %d (%d)", validLen, len(got), ends[len(got)])
		}

		healed := appendPayload(log[:validLen:validLen], []byte("after recovery"))
		again, n := replayAll(t, healed, 64)
		if len(again) != len(got)+1 || n != int64(len(healed)) ||
			!bytes.Equal(again[len(got)], []byte("after recovery")) {
			t.Fatalf("append after truncation: %d frames, validLen %d of %d", len(again), n, len(healed))
		}
	})
}
