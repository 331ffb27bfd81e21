package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"oraclesize/internal/catalog"
)

// Record is one self-describing JSONL line. Task units emit exactly one;
// experiment units emit one per table row, all sharing the unit key and
// written atomically. Field order (Go struct order) and map-key sorting in
// encoding/json make encoding deterministic; WallNS is the only
// nondeterministic field.
type Record struct {
	// SpecHash ties the record to the spec that produced it.
	SpecHash string `json:"spec_hash"`
	// Unit is the producing unit's key.
	Unit string `json:"unit"`
	// Kind is KindTask or KindExperiment.
	Kind string `json:"kind"`
	// Seed is the unit seed; identical specs reproduce identical seeds.
	Seed int64 `json:"seed"`
	// Trial is the unit's trial index.
	Trial int `json:"trial"`

	// Task-unit fields: the grid point and its measurements.
	Task        string `json:"task,omitempty"`
	Scheme      string `json:"scheme,omitempty"`
	Family      string `json:"family,omitempty"`
	N           int    `json:"n,omitempty"`     // requested size
	Nodes       int    `json:"nodes,omitempty"` // generated size
	Edges       int    `json:"edges,omitempty"`
	AdviceBits  int    `json:"advice_bits,omitempty"`
	Messages    int    `json:"messages,omitempty"`
	MessageBits int    `json:"message_bits,omitempty"`
	Rounds      int    `json:"rounds,omitempty"`

	// Experiment-unit fields: one replayed table row.
	Experiment string             `json:"experiment,omitempty"`
	Row        int                `json:"row,omitempty"`
	Columns    []string           `json:"columns,omitempty"`
	Cells      []string           `json:"cells,omitempty"`
	Labels     map[string]string  `json:"labels,omitempty"`
	Values     map[string]float64 `json:"values,omitempty"`

	// Complete reports task success (all nodes informed) or, for
	// experiment rows, that the table regenerated without error.
	Complete bool `json:"complete"`
	// WallNS is the unit's wall-clock time in nanoseconds — the only field
	// excluded from determinism comparisons.
	WallNS int64 `json:"wall_ns"`
}

// Validate checks the record against the schema for its kind. A task
// record must name a catalog task and scheme, and a record of a scheme with
// a proven bound must be complete and within the bound at its generated
// size; experiment rows are not bound-checked.
func (r Record) Validate() error {
	if r.SpecHash == "" {
		return fmt.Errorf("campaign: record missing spec_hash")
	}
	if r.Unit == "" {
		return fmt.Errorf("campaign: record missing unit key")
	}
	if r.Trial < 0 {
		return fmt.Errorf("campaign: record %s: negative trial %d", r.Unit, r.Trial)
	}
	if r.WallNS < 0 {
		return fmt.Errorf("campaign: record %s: negative wall_ns %d", r.Unit, r.WallNS)
	}
	switch r.Kind {
	case KindTask:
		if r.Task == "" || r.Scheme == "" || r.Family == "" {
			return fmt.Errorf("campaign: task record %s missing task/scheme/family", r.Unit)
		}
		if r.N < 2 || r.Nodes < 2 {
			return fmt.Errorf("campaign: task record %s: n=%d nodes=%d, want >= 2", r.Unit, r.N, r.Nodes)
		}
		if r.Edges < r.Nodes-1 {
			return fmt.Errorf("campaign: task record %s: %d edges cannot connect %d nodes", r.Unit, r.Edges, r.Nodes)
		}
		if r.Messages < 0 || r.MessageBits < 0 || r.AdviceBits < 0 || r.Rounds < 0 {
			return fmt.Errorf("campaign: task record %s: negative measurement", r.Unit)
		}
		run, err := catalog.Resolve(r.Task, r.Scheme, "", "", 0)
		if err != nil {
			return fmt.Errorf("campaign: task record %s: unknown task/scheme %s/%s", r.Unit, r.Task, r.Scheme)
		}
		if run.Scheme.Bound != nil && !r.Complete {
			return fmt.Errorf("campaign: task record %s: %s/%s run incomplete", r.Unit, r.Task, r.Scheme)
		}
		if err := run.CheckBound(r.Nodes, r.Messages, r.AdviceBits); err != nil {
			return fmt.Errorf("campaign: task record %s: %w", r.Unit, err)
		}
	case KindExperiment:
		if r.Experiment == "" {
			return fmt.Errorf("campaign: experiment record %s missing experiment ID", r.Unit)
		}
		if len(r.Columns) == 0 {
			return fmt.Errorf("campaign: experiment record %s has no columns", r.Unit)
		}
		if len(r.Cells) != len(r.Columns) && len(r.Cells) == 0 {
			return fmt.Errorf("campaign: experiment record %s has no cells", r.Unit)
		}
		if r.Row < 0 {
			return fmt.Errorf("campaign: experiment record %s: negative row %d", r.Unit, r.Row)
		}
	default:
		return fmt.Errorf("campaign: record %s: unknown kind %q", r.Unit, r.Kind)
	}
	return nil
}

// StripTiming zeroes the wall-time field for determinism comparisons.
func (r Record) StripTiming() Record {
	r.WallNS = 0
	return r
}

// encode appends the record's JSONL line to buf.
func (r Record) encode(buf []byte) ([]byte, error) {
	line, err := json.Marshal(r)
	if err != nil {
		return buf, fmt.Errorf("campaign: encoding record %s: %w", r.Unit, err)
	}
	buf = append(buf, line...)
	return append(buf, '\n'), nil
}

// Canonicalize returns a copy of the records in canonical order — sorted
// by unit key, then row — with timing stripped. Two result files produced
// from the same spec and seed canonicalize to identical bytes regardless
// of which machine (or fleet) ran which unit, which is the determinism
// contract distributed runs are checked against.
func Canonicalize(recs []Record) []Record {
	out := make([]Record, len(recs))
	for i, r := range recs {
		out[i] = r.StripTiming()
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Unit != out[j].Unit {
			return out[i].Unit < out[j].Unit
		}
		return out[i].Row < out[j].Row
	})
	return out
}

// EncodeRecords writes records as JSONL, one line per record.
func EncodeRecords(w io.Writer, recs []Record) error {
	var buf []byte
	for _, r := range recs {
		var err error
		if buf, err = r.encode(buf[:0]); err != nil {
			return err
		}
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("campaign: writing record %s: %w", r.Unit, err)
		}
	}
	return nil
}

// DecodeRecords parses a JSONL stream. It stops at the first malformed
// line (a torn final line from a killed run counts as malformed) and
// returns the records decoded so far together with the error.
func DecodeRecords(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			return recs, fmt.Errorf("campaign: line %d: %w", lineNo, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return recs, fmt.Errorf("campaign: reading records: %w", err)
	}
	return recs, nil
}
