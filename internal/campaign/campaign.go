// Package campaign orchestrates large experiment sweeps. A declarative
// Spec — graph families × size grid × tasks × oracle schemes × trials,
// plus optional whole-experiment replays from the internal/experiments
// registry — compiles into a deterministic unit-of-work list (see
// Spec.Units). A bounded worker Pool executes the units and streams one
// self-describing JSONL Record per completed unit (per table row for
// experiment units) to an order-preserving Sink, so two runs with the same
// spec and seed are byte-identical apart from wall-time fields. Runs are
// resumable: diffing a partial sink against the unit list (see ScanDone
// and OpenJSONL) yields exactly the missing units. The aggregator folds
// JSONL back into experiments.Table renderers and diffs a run against a
// baseline file.
package campaign

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"

	"oraclesize/internal/experiments"
	"oraclesize/internal/graphgen"
)

// TaskSpec selects one task and the oracle schemes to sweep it under.
type TaskSpec struct {
	// Task names a registered task ("wakeup", "broadcast").
	Task string `json:"task"`
	// Schemes lists oracle/algorithm pairings for the task; empty selects
	// every registered scheme.
	Schemes []string `json:"schemes,omitempty"`
}

// Spec is a declarative campaign: the full cross product of families,
// sizes, task/scheme pairs and trials, each trial with its own
// deterministic seed derived from Seed and the unit key.
type Spec struct {
	// Name labels the campaign in summaries.
	Name string `json:"name"`
	// Seed drives every per-unit seed; equal specs with equal seeds
	// reproduce identical records.
	Seed int64 `json:"seed"`
	// Trials is the number of independent trials per grid point.
	Trials int `json:"trials"`
	// Families lists graphgen family names to sweep.
	Families []string `json:"families,omitempty"`
	// Sizes is the requested-n grid.
	Sizes []int `json:"sizes,omitempty"`
	// Tasks lists the task/scheme pairings to run over the grid.
	Tasks []TaskSpec `json:"tasks,omitempty"`
	// Experiments optionally replays whole experiment tables (by registry
	// ID, e.g. "E5") as campaign units.
	Experiments []string `json:"experiments,omitempty"`
	// Quick selects reduced sweeps for replayed experiments.
	Quick bool `json:"quick,omitempty"`
	// MaxMessages caps per-run sends; 0 selects catalog.MessageBudget.
	MaxMessages int `json:"max_messages,omitempty"`
}

// Validate checks that every referenced family, task, scheme and
// experiment exists and that the grid is non-degenerate.
func (s *Spec) Validate() error {
	if s.Trials < 1 {
		return fmt.Errorf("campaign: trials must be >= 1, got %d", s.Trials)
	}
	if len(s.Tasks) == 0 && len(s.Experiments) == 0 {
		return fmt.Errorf("campaign: spec selects no tasks and no experiments")
	}
	if len(s.Tasks) > 0 {
		if len(s.Families) == 0 {
			return fmt.Errorf("campaign: tasks need at least one family")
		}
		if len(s.Sizes) == 0 {
			return fmt.Errorf("campaign: tasks need at least one size")
		}
	}
	for _, fname := range s.Families {
		if _, err := graphgen.FamilyByName(fname); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	for _, n := range s.Sizes {
		if n < 2 {
			return fmt.Errorf("campaign: sizes must be >= 2, got %d", n)
		}
	}
	for _, ts := range s.Tasks {
		td, err := taskByName(ts.Task)
		if err != nil {
			return err
		}
		for _, sc := range ts.Schemes {
			if _, err := td.SchemeByName(sc); err != nil {
				return fmt.Errorf("campaign: %w", err)
			}
		}
	}
	for _, id := range s.Experiments {
		if _, err := experiments.ByID(id); err != nil {
			return fmt.Errorf("campaign: %w", err)
		}
	}
	return nil
}

// Hash fingerprints the spec: records carry it so a results file can be
// checked against the spec that resumes or summarizes it. The hash covers
// every field (canonical JSON), so any grid change invalidates old sinks.
func (s *Spec) Hash() string {
	data, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("campaign: hashing spec: %v", err))
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%x", sum[:8])
}

// ParseSpec decodes and validates a JSON spec.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("campaign: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads a spec file written by WriteSpec or by hand.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: reading spec: %w", err)
	}
	return ParseSpec(data)
}

// QuickSpec is the built-in smoke campaign: {wakeup, broadcast} × two
// families × two sizes × both schemes × two trials — small enough for CI,
// broad enough to exercise every moving part.
func QuickSpec() *Spec {
	return &Spec{
		Name:     "quick",
		Seed:     1,
		Trials:   2,
		Families: []string{"path", "random-sparse"},
		Sizes:    []int{16, 32},
		Tasks: []TaskSpec{
			{Task: "wakeup", Schemes: []string{"tree", "flooding"}},
			{Task: "broadcast", Schemes: []string{"light-tree", "flooding"}},
		},
		Quick: true,
	}
}
