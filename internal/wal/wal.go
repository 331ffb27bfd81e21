// Package wal is the CRC-framed, append-only log format shared by the
// results warehouse and the tenant store, plus the atomic file commit
// both use for their segments, manifests and snapshots.
//
// A log is a sequence of frames:
//
//	[4B big-endian payload length][4B big-endian CRC-32 (IEEE) of payload][payload]
//
// Writers append each frame with a single write call, so a killed process
// leaves at most one torn frame, at the tail. Replay reads frames until
// the log ends or a frame is short, oversized, empty, fails its checksum
// or is refused by the caller's decoder. Everything from that point on is
// a torn or corrupt tail: the caller truncates the file to the valid
// length Replay returns before appending again.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// HeaderLen is the size of a frame header.
const HeaderLen = 8

// AppendFrame appends one frame to buf: it reserves the header, lets
// encode append the payload after it, then fills in the payload's length
// and checksum. The payload is encoded in place, never copied. It must be
// non-empty — replay reads a zero length as a zeroed, corrupt tail.
func AppendFrame(buf []byte, encode func([]byte) []byte) []byte {
	start := len(buf)
	buf = encode(append(buf, 0, 0, 0, 0, 0, 0, 0, 0))
	payload := buf[start+HeaderLen:]
	binary.BigEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(payload))
	return buf
}

// Replay reads frames from r and hands each payload to decode, stopping at
// the end of the log or at the first torn or corrupt frame; decode
// returning false marks its payload undecodable, which stops replay the
// same way. The payload slice is reused between calls. maxPayload bounds
// one frame, so a corrupt length cannot force a giant allocation.
//
// validLen is the byte length of the intact frames decode accepted. A
// short read is a torn tail, not an error; err reports only a failed read.
func Replay(r io.Reader, maxPayload uint32, decode func(payload []byte) bool) (validLen int64, err error) {
	var header [HeaderLen]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, header[:]); err != nil {
			return validLen, tornOK(err)
		}
		length := binary.BigEndian.Uint32(header[:4])
		if length == 0 || length > maxPayload {
			return validLen, nil
		}
		if uint32(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			return validLen, tornOK(err)
		}
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(header[4:]) || !decode(payload) {
			return validLen, nil
		}
		validLen += HeaderLen + int64(length)
	}
}

// tornOK maps the short reads of a torn tail to nil.
func tornOK(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return nil
	}
	return fmt.Errorf("wal: reading frame: %w", err)
}

// ReplayFile replays the log at path (see Replay). A missing file reads
// as an empty log.
func ReplayFile(path string, maxPayload uint32, decode func(payload []byte) bool) (validLen int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("wal: %w", err)
	}
	defer f.Close()
	return Replay(f, maxPayload, decode)
}

// Commit writes data to path atomically: a temp file in the same
// directory, fsync, rename. A crash leaves the old file or the new one,
// plus at worst a stray path+".tmp" that the next Commit overwrites.
func Commit(path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, perm)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: committing %s: %w", path, err)
	}
	return nil
}
