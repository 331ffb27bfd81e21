package campaign

import (
	"math"
	"strings"
	"testing"
)

func TestQuickSpecValidates(t *testing.T) {
	if err := QuickSpec().Validate(); err != nil {
		t.Fatalf("quick spec invalid: %v", err)
	}
}

func TestSpecHashStableAndSensitive(t *testing.T) {
	a, b := QuickSpec(), QuickSpec()
	if a.Hash() != b.Hash() {
		t.Error("equal specs hash differently")
	}
	b.Seed = 2
	if a.Hash() == b.Hash() {
		t.Error("seed change did not change the hash")
	}
	c := QuickSpec()
	c.Sizes = append(c.Sizes, 64)
	if a.Hash() == c.Hash() {
		t.Error("grid change did not change the hash")
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"zero trials", func(s *Spec) { s.Trials = 0 }, "trials"},
		{"unknown family", func(s *Spec) { s.Families[0] = "moebius" }, "unknown family"},
		{"tiny size", func(s *Spec) { s.Sizes[0] = 1 }, "sizes must be >= 2"},
		{"unknown task", func(s *Spec) { s.Tasks[0].Task = "leader" }, "unknown task"},
		{"unknown scheme", func(s *Spec) { s.Tasks[0].Schemes = []string{"psychic"} }, "no scheme"},
		{"unknown experiment", func(s *Spec) { s.Experiments = []string{"E99"} }, "unknown experiment"},
		{"empty spec", func(s *Spec) { s.Tasks = nil }, "no tasks and no experiments"},
		{"tasks without families", func(s *Spec) { s.Families = nil }, "at least one family"},
		{"tasks without sizes", func(s *Spec) { s.Sizes = nil }, "at least one size"},
	}
	for _, tc := range cases {
		s := QuickSpec()
		tc.mutate(s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	data := []byte(`{
		"name": "mini", "seed": 7, "trials": 1,
		"families": ["path"], "sizes": [8],
		"tasks": [{"task": "broadcast"}],
		"experiments": ["E5"], "quick": true
	}`)
	s, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if s.Name != "mini" || s.Seed != 7 || !s.Quick {
		t.Errorf("parsed spec wrong: %+v", s)
	}
	if _, err := ParseSpec([]byte(`{"trials": 0}`)); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := ParseSpec([]byte(`{broken`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestUnitsDeterministicAndUnique(t *testing.T) {
	spec := QuickSpec()
	spec.Experiments = []string{"E5"}
	a, b := spec.Units(), spec.Units()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("unit counts differ: %d vs %d", len(a), len(b))
	}
	// quick grid: 2 tasks × 2 families × 2 sizes × 2 schemes × 2 trials + 1 experiment
	if want := 2*2*2*2*2 + 1; len(a) != want {
		t.Errorf("got %d units, want %d", len(a), want)
	}
	seen := make(map[string]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("unit %d differs between compilations: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Index != i {
			t.Errorf("unit %d has index %d", i, a[i].Index)
		}
		if seen[a[i].Key()] {
			t.Errorf("duplicate unit key %s", a[i].Key())
		}
		seen[a[i].Key()] = true
	}
}

// TestUnitCountMatchesUnits pins UnitCount to len(Units()) across the spec
// shapes Units handles specially (explicit schemes, default schemes,
// experiment replays), and checks that absurd trial counts saturate
// instead of overflowing — callers use UnitCount to reject such specs
// before compiling them.
func TestUnitCountMatchesUnits(t *testing.T) {
	withExperiments := QuickSpec()
	withExperiments.Experiments = []string{"E5"}
	defaultSchemes := QuickSpec()
	defaultSchemes.Tasks = []TaskSpec{{Task: "wakeup"}}
	for name, spec := range map[string]*Spec{
		"quick":           QuickSpec(),
		"experiments":     withExperiments,
		"default schemes": defaultSchemes,
	} {
		if got, want := spec.UnitCount(), int64(len(spec.Units())); got != want {
			t.Errorf("%s: UnitCount() = %d, len(Units()) = %d", name, got, want)
		}
	}
	huge := QuickSpec()
	huge.Trials = math.MaxInt64 / 2
	if got := huge.UnitCount(); got != math.MaxInt64 {
		t.Errorf("huge spec: UnitCount() = %d, want saturation at MaxInt64", got)
	}
}

func TestUnitsDefaultSchemes(t *testing.T) {
	spec := QuickSpec()
	spec.Tasks = []TaskSpec{{Task: "wakeup"}} // no schemes → all registered
	units := spec.Units()
	schemes := make(map[string]bool)
	for _, u := range units {
		schemes[u.Scheme] = true
	}
	if !schemes["tree"] || !schemes["flooding"] {
		t.Errorf("default schemes missing: %v", schemes)
	}
}

func TestUnitSeedsIndependent(t *testing.T) {
	spec := QuickSpec()
	units := spec.Units()
	seeds := make(map[int64]string)
	for _, u := range units {
		if prev, dup := seeds[u.Seed]; dup {
			t.Errorf("seed collision between %s and %s", prev, u.Key())
		}
		seeds[u.Seed] = u.Key()
	}
	spec.Seed = 2
	for i, u := range spec.Units() {
		if u.Seed == units[i].Seed {
			t.Errorf("unit %s seed unchanged under new spec seed", u.Key())
		}
	}
}

func TestRunTaskUnitWakeupTreeExact(t *testing.T) {
	spec := QuickSpec()
	units := spec.Units()
	var unit Unit
	found := false
	for _, u := range units {
		if u.Task == "wakeup" && u.Scheme == "tree" && u.Family == "path" && u.N == 16 && u.Trial == 0 {
			unit, found = u, true
		}
	}
	if !found {
		t.Fatal("expected unit not compiled")
	}
	recs, err := runUnit(spec, spec.Hash(), unit, NewCache(4, 1))
	if err != nil {
		t.Fatalf("runUnit: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("task unit produced %d records", len(recs))
	}
	r := recs[0]
	// Theorem 2.1: the wakeup tree scheme uses exactly n-1 messages.
	if r.Messages != 15 || !r.Complete || r.Nodes != 16 {
		t.Errorf("wakeup/tree on path n=16: %+v", r)
	}
	if err := r.Validate(); err != nil {
		t.Errorf("record invalid: %v", err)
	}
}
