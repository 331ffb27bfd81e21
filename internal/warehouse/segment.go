package warehouse

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"

	"oraclesize/internal/campaign"
	"oraclesize/internal/wal"
)

// Segments are the immutable, block-compressed resting place of
// compacted deposits. A segment file is a short magic header followed by
// back-to-back DEFLATE streams ("blocks"), each holding a run of entries
// totalling about Options.BlockSize uncompressed bytes. All structure —
// block offsets, checksums, and the sparse per-block summaries queries
// prune with — lives in a JSON sidecar (<name>.idx) written before the
// segment is committed, so opening a warehouse touches only sidecars and
// the WAL, never a compressed block.

var segMagic = []byte("OSWHSG1\n")

// blockIndex is one block's entry in the sidecar: where it lives, how to
// check it, and a sparse summary of the records inside that lets a query
// skip the block without decompressing it.
type blockIndex struct {
	Offset  int64  `json:"offset"`
	CompLen int64  `json:"comp_len"`
	RawLen  int64  `json:"raw_len"`
	CRC     uint32 `json:"crc32"`
	Records int    `json:"records"`

	// Sparse index over (family, n, task, scheme, seed): distinct label
	// sets and min/max ranges of every record in the block.
	Kinds    []string `json:"kinds,omitempty"`
	Families []string `json:"families,omitempty"`
	Tasks    []string `json:"tasks,omitempty"`
	Schemes  []string `json:"schemes,omitempty"`
	MinN     int      `json:"min_n,omitempty"`
	MaxN     int      `json:"max_n,omitempty"`
	MinSeed  int64    `json:"min_seed"`
	MaxSeed  int64    `json:"max_seed"`
}

// segIndex is the sidecar: the block table plus the segment's unit
// bitmap — every (unit index, unit key) it holds — which is what makes
// resume a sidecar lookup instead of a record scan.
type segIndex struct {
	Name        string       `json:"name"`
	Records     int          `json:"records"`
	UnitIndexes []int64      `json:"unit_indexes"`
	UnitKeys    []string     `json:"unit_keys"`
	Blocks      []blockIndex `json:"blocks"`
}

func segPath(dir, name string) string { return filepath.Join(dir, name+".seg") }
func idxPath(dir, name string) string { return filepath.Join(dir, name+".idx") }

// stringSet accumulates a sorted distinct-label list.
type stringSet map[string]bool

func (s stringSet) sorted() []string {
	if len(s) == 0 {
		return nil
	}
	out := make([]string, 0, len(s))
	for v := range s {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// summarize folds one record into the block summary being built.
func (b *blockIndex) summarize(rec campaign.Record, kinds, families, tasks, schemes stringSet) {
	kinds[rec.Kind] = true
	if rec.Family != "" {
		families[rec.Family] = true
	}
	if rec.Task != "" {
		tasks[rec.Task] = true
	}
	if rec.Scheme != "" {
		schemes[rec.Scheme] = true
	}
	if b.Records == 0 {
		b.MinN, b.MaxN = rec.N, rec.N
		b.MinSeed, b.MaxSeed = rec.Seed, rec.Seed
	} else {
		b.MinN = min(b.MinN, rec.N)
		b.MaxN = max(b.MaxN, rec.N)
		b.MinSeed = min(b.MinSeed, rec.Seed)
		b.MaxSeed = max(b.MaxSeed, rec.Seed)
	}
	b.Records++
}

// writeSegment writes entries as a new immutable segment <name>.seg plus
// its sidecar <name>.idx in dir, fsyncing both and committing each via
// rename so a crash leaves either a complete pair or junk temp files,
// never a half-segment the manifest could point at. Entries are laid
// down in the given order; callers sort by unit index so the layout is
// deterministic for a given deposit set.
func writeSegment(dir, name string, entries []entry, blockSize int) (*segIndex, error) {
	idx := &segIndex{Name: name}
	var file bytes.Buffer
	file.Write(segMagic)

	var raw []byte
	var comp bytes.Buffer
	var blockEntries []entry
	flush := func() error {
		if len(raw) == 0 {
			return nil
		}
		comp.Reset()
		fw, err := flate.NewWriter(&comp, flate.DefaultCompression)
		if err != nil {
			return err
		}
		if _, err := fw.Write(raw); err != nil {
			return err
		}
		if err := fw.Close(); err != nil {
			return err
		}
		bi := blockIndex{
			Offset:  int64(file.Len()),
			CompLen: int64(comp.Len()),
			RawLen:  int64(len(raw)),
			CRC:     crc32.ChecksumIEEE(comp.Bytes()),
		}
		kinds, families, tasks, schemes := stringSet{}, stringSet{}, stringSet{}, stringSet{}
		for _, e := range blockEntries {
			for _, line := range e.lines {
				var rec campaign.Record
				if err := json.Unmarshal(line, &rec); err != nil {
					return fmt.Errorf("warehouse: record in unit %s is not valid JSON: %w", e.key, err)
				}
				bi.summarize(rec, kinds, families, tasks, schemes)
			}
		}
		bi.Kinds = kinds.sorted()
		bi.Families = families.sorted()
		bi.Tasks = tasks.sorted()
		bi.Schemes = schemes.sorted()
		idx.Blocks = append(idx.Blocks, bi)
		idx.Records += bi.Records
		file.Write(comp.Bytes())
		raw = raw[:0]
		blockEntries = blockEntries[:0]
		return nil
	}

	for _, e := range entries {
		idx.UnitIndexes = append(idx.UnitIndexes, e.index)
		idx.UnitKeys = append(idx.UnitKeys, e.key)
		raw = appendEntry(raw, e)
		blockEntries = append(blockEntries, e)
		if len(raw) >= blockSize {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}

	if err := wal.Commit(segPath(dir, name), file.Bytes(), 0o644); err != nil {
		return nil, err
	}
	sidecar, err := json.Marshal(idx)
	if err != nil {
		return nil, fmt.Errorf("warehouse: encoding segment index: %w", err)
	}
	if err := wal.Commit(idxPath(dir, name), sidecar, 0o644); err != nil {
		return nil, err
	}
	return idx, nil
}

// loadSegIndex reads a sidecar.
func loadSegIndex(dir, name string) (*segIndex, error) {
	data, err := os.ReadFile(idxPath(dir, name))
	if err != nil {
		return nil, fmt.Errorf("warehouse: reading segment index: %w", err)
	}
	var idx segIndex
	if err := json.Unmarshal(data, &idx); err != nil {
		return nil, fmt.Errorf("warehouse: segment index %s: %w", name, err)
	}
	if len(idx.UnitIndexes) != len(idx.UnitKeys) {
		return nil, fmt.Errorf("warehouse: segment index %s: %d unit indexes vs %d keys",
			name, len(idx.UnitIndexes), len(idx.UnitKeys))
	}
	return &idx, nil
}

// readBlock decompresses and decodes one block of a segment file already
// opened for reading, verifying its checksum.
func readBlock(f io.ReaderAt, bi blockIndex) ([]entry, error) {
	comp := make([]byte, bi.CompLen)
	if _, err := f.ReadAt(comp, bi.Offset); err != nil {
		return nil, fmt.Errorf("warehouse: reading block at %d: %w", bi.Offset, err)
	}
	if crc32.ChecksumIEEE(comp) != bi.CRC {
		return nil, fmt.Errorf("warehouse: block at %d fails its checksum", bi.Offset)
	}
	fr := flate.NewReader(bytes.NewReader(comp))
	raw := make([]byte, 0, bi.RawLen)
	buf := bytes.NewBuffer(raw)
	if _, err := io.Copy(buf, fr); err != nil {
		return nil, fmt.Errorf("warehouse: decompressing block at %d: %w", bi.Offset, err)
	}
	if err := fr.Close(); err != nil {
		return nil, err
	}
	if int64(buf.Len()) != bi.RawLen {
		return nil, fmt.Errorf("warehouse: block at %d decompressed to %d bytes, want %d",
			bi.Offset, buf.Len(), bi.RawLen)
	}
	return decodeEntries(buf.Bytes())
}

// checkMagic verifies the segment header.
func checkMagic(f io.ReaderAt) error {
	head := make([]byte, len(segMagic))
	if _, err := f.ReadAt(head, 0); err != nil {
		return fmt.Errorf("warehouse: reading segment header: %w", err)
	}
	if !bytes.Equal(head, segMagic) {
		return fmt.Errorf("warehouse: bad segment magic %q", head)
	}
	return nil
}
