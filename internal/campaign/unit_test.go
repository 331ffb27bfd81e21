package campaign

import (
	"reflect"
	"slices"
	"testing"

	"oraclesize/internal/catalog"
	"oraclesize/internal/graphgen"
)

// referenceUnits is the nested-loop compiler Units replaced, kept as the
// reference the index decode is checked against: tasks in spec order,
// then families, sizes, schemes and trials; experiment replays follow
// the grid.
func referenceUnits(s *Spec) []Unit {
	var units []Unit
	add := func(u Unit) {
		u.Index = len(units)
		u.Seed = unitSeed(s.Seed, u.Key())
		if u.Kind == KindTask {
			u.InstanceSeed = unitSeed(s.Seed, u.InstanceKey())
		}
		units = append(units, u)
	}
	for _, ts := range s.Tasks {
		schemes := ts.Schemes
		if len(schemes) == 0 {
			td, err := taskByName(ts.Task)
			if err != nil {
				continue
			}
			schemes = td.SchemeNames()
		}
		for _, fname := range s.Families {
			for _, n := range s.Sizes {
				for _, sc := range schemes {
					for trial := 0; trial < s.Trials; trial++ {
						add(Unit{
							Kind:   KindTask,
							Task:   ts.Task,
							Scheme: sc,
							Family: fname,
							N:      n,
							Trial:  trial,
						})
					}
				}
			}
		}
	}
	for _, id := range s.Experiments {
		add(Unit{Kind: KindExperiment, Experiment: id})
	}
	return units
}

// checkUnitsMatchReference compares Units, UnitCount and the decode of
// every index with referenceUnits.
func checkUnitsMatchReference(t *testing.T, name string, spec *Spec) {
	t.Helper()
	want := referenceUnits(spec)
	if got := spec.UnitCount(); got != int64(len(want)) {
		t.Errorf("%s: UnitCount() = %d, reference compiles %d units", name, got, len(want))
	}
	got := spec.Units()
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%s: Units() differs from the reference:\ngot  %+v\nwant %+v", name, got, want)
	}
	schemes := spec.schemeLists()
	for i, w := range want {
		if u := spec.unit(schemes, i); u != w {
			t.Fatalf("%s: unit(%d) = %+v, want %+v", name, i, u, w)
		}
	}
	// Aligned grids: unit j of grid t is task t's run on unit j's instance.
	count, size := spec.Grids()
	if count != len(spec.Tasks) {
		t.Fatalf("%s: Grids() counts %d grids for %d tasks", name, count, len(spec.Tasks))
	}
	if size == 0 {
		return
	}
	if count*size+len(spec.Experiments) != len(want) {
		t.Fatalf("%s: %d grids of %d units and %d replays, but %d units", name, count, size, len(spec.Experiments), len(want))
	}
	for i, u := range want[:count*size] {
		if first := want[i%size]; u.Task != spec.Tasks[i/size].Task || u.InstanceKey() != first.InstanceKey() {
			t.Fatalf("%s: unit %d (%s) is not grid %d's twin of unit %d (%s)", name, i, u.Key(), i/size, i%size, first.Key())
		}
	}
}

// TestUnitsMatchReference pins the compiled unit list to the nested-loop
// reference on the spec shapes that exercise each branch: explicit
// schemes, tasks naming no schemes, experiment replays, a single trial,
// and perfbench's sweep grid.
func TestUnitsMatchReference(t *testing.T) {
	defaultSchemes := QuickSpec()
	defaultSchemes.Tasks = []TaskSpec{{Task: "wakeup"}, {Task: "election"}, {Task: "gossip"}}
	replays := QuickSpec()
	replays.Experiments = []string{"E5", "E1"}
	oneTrial := QuickSpec()
	oneTrial.Trials = 1
	oneTrial.Tasks = append(oneTrial.Tasks, TaskSpec{Task: "gossip"})
	sweep := &Spec{
		Name:     "perfbench-sweep",
		Seed:     1<<20 ^ 3,
		Trials:   6,
		Families: []string{"random-sparse", "random-regular", "grid"},
		Sizes:    []int{256, 512, 1024},
		Tasks: []TaskSpec{
			{Task: "wakeup", Schemes: []string{"tree", "flooding"}},
			{Task: "broadcast", Schemes: []string{"light-tree", "flooding"}},
		},
	}
	onlyReplays := &Spec{Name: "replays", Seed: 9, Trials: 2, Experiments: []string{"E3"}}
	for name, spec := range map[string]*Spec{
		"quick":           QuickSpec(),
		"sweep":           sweep,
		"default schemes": defaultSchemes,
		"replays":         replays,
		"only replays":    onlyReplays,
		"one trial":       oneTrial,
	} {
		if err := spec.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkUnitsMatchReference(t, name, spec)
	}
}

// FuzzUnits checks Units, UnitCount and the decode of every index against
// referenceUnits on random small specs: subsets of families and sizes, one
// to four trials, tasks with default, chosen or reordered schemes, and
// experiment replays.
func FuzzUnits(f *testing.F) {
	f.Add(uint8(0x03), uint8(0x03), uint8(1), uint32(0x0101), uint8(0), int64(1))
	f.Add(uint8(0xff), uint8(0x0f), uint8(3), uint32(0x03020101), uint8(0x05), int64(-7))
	f.Add(uint8(0), uint8(0), uint8(0), uint32(0), uint8(0x07), int64(42))
	families := graphgen.Families()
	tasks := catalog.Tasks()
	sizes := []int{2, 5, 16, 33}
	replays := []string{"E1", "E3", "E5"}
	f.Fuzz(func(t *testing.T, familyMask, sizeMask, trials uint8, taskModes uint32, replayMask uint8, seed int64) {
		spec := &Spec{Name: "fuzz", Seed: seed, Trials: 1 + int(trials%4)}
		for i, fam := range families[:min(8, len(families))] {
			if familyMask&(1<<i) != 0 {
				spec.Families = append(spec.Families, fam.Name)
			}
		}
		for i, n := range sizes {
			if sizeMask&(1<<i) != 0 {
				spec.Sizes = append(spec.Sizes, n)
			}
		}
		// One byte per task: the low two bits pick absent, default schemes,
		// chosen schemes in registry order, or chosen schemes reversed; the
		// rest is the chosen-scheme mask.
		for k, td := range tasks[:min(4, len(tasks))] {
			b := uint8(taskModes >> (8 * k))
			mode, mask := b&3, b>>2
			if mode == 0 {
				continue
			}
			ts := TaskSpec{Task: td.Name}
			if mode >= 2 {
				for i, name := range td.SchemeNames() {
					if mask&(1<<i) != 0 {
						ts.Schemes = append(ts.Schemes, name)
					}
				}
				if mode == 3 {
					slices.Reverse(ts.Schemes)
				}
			}
			spec.Tasks = append(spec.Tasks, ts)
		}
		for i, id := range replays {
			if replayMask&(1<<i) != 0 {
				spec.Experiments = append(spec.Experiments, id)
			}
		}
		checkUnitsMatchReference(t, "fuzz", spec)
	})
}
