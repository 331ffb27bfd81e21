package campaign

import (
	"fmt"
	"hash/fnv"
	"math"
)

// Unit kinds.
const (
	KindTask       = "task"       // one simulated trial of task×scheme×family×n
	KindExperiment = "experiment" // one whole experiments.Runner table
)

// Unit is one schedulable unit of work. Units are identified by Key, which
// is stable across runs of the same spec: resume diffs sink keys against
// the compiled unit list.
type Unit struct {
	// Index is the unit's position in the compiled list; the sink emits
	// records in Index order regardless of completion order.
	Index int
	// Kind is KindTask or KindExperiment.
	Kind string
	// Task, Scheme, Family, N and Trial locate a task unit in the grid.
	Task   string
	Scheme string
	Family string
	N      int
	Trial  int
	// Experiment is the registry ID for experiment units.
	Experiment string
	// Seed is the unit's private seed, derived from the spec seed and Key.
	Seed int64
	// InstanceSeed seeds the graph instance for task units. It is derived
	// from the spec seed and InstanceKey — NOT from Key — so every unit
	// that agrees on (family, n, trial) draws the same graph and competing
	// schemes are measured on identical inputs.
	InstanceSeed int64
}

// Key returns the unit's stable identity within its spec.
func (u Unit) Key() string {
	if u.Kind == KindExperiment {
		return fmt.Sprintf("experiment/%s/t%d", u.Experiment, u.Trial)
	}
	return fmt.Sprintf("task/%s/%s/%s/n%d/t%d", u.Task, u.Scheme, u.Family, u.N, u.Trial)
}

// InstanceKey identifies the graph instance a task unit runs on within its
// spec. Units of different tasks and schemes share instances; trials
// differ. It seeds InstanceSeed; the instance cache keys by that seed, so
// equal keys from different specs never alias a cached graph.
func (u Unit) InstanceKey() string {
	return fmt.Sprintf("instance/%s/n%d/t%d", u.Family, u.N, u.Trial)
}

// unitSeed mixes the spec seed with the unit key so every unit draws from
// an independent, reproducible stream.
func unitSeed(specSeed int64, key string) int64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	const golden = uint64(0x9E3779B97F4A7C15)
	return int64(h.Sum64() ^ uint64(specSeed)*golden)
}

// satMul and satAdd saturate at math.MaxInt64 so UnitCount cannot overflow
// on adversarial specs (e.g. trials near 2^53 from a JSON body).
func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > math.MaxInt64/b {
		return math.MaxInt64
	}
	return a * b
}

func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// schemeLists returns each task's scheme list, in spec order: the named
// schemes, else every registered scheme of the task. An unknown task,
// which Validate rejects, gets none and so compiles to no units.
func (s *Spec) schemeLists() [][]string {
	lists := make([][]string, len(s.Tasks))
	for i, ts := range s.Tasks {
		lists[i] = ts.Schemes
		if len(ts.Schemes) == 0 {
			if td, err := taskByName(ts.Task); err == nil {
				lists[i] = td.SchemeNames()
			}
		}
	}
	return lists
}

// gridSize is the unit count of one task's grid, families × sizes ×
// schemes × trials, saturating at math.MaxInt64.
func (s *Spec) gridSize(schemes int) int64 {
	return satMul(satMul(int64(len(s.Families)), int64(len(s.Sizes))),
		satMul(int64(schemes), int64(s.Trials)))
}

// Grids reports the layout of the spec's task grids, one per TaskSpec, in
// unit order from index 0: their count, and the units in each when every
// grid has the same scheme count (an empty scheme list counting as the
// task's registered schemes). Unit j of every such grid has the same
// family, size and trial, so all of them run on one graph instance. size
// is 0 when the scheme counts differ. Callers must Validate the spec
// first.
func (s *Spec) Grids() (count, size int) {
	lists := s.schemeLists()
	for _, l := range lists {
		if len(l) != len(lists[0]) {
			return len(lists), 0
		}
	}
	if len(lists) == 0 {
		return 0, 0
	}
	return len(lists), int(s.gridSize(len(lists[0])))
}

// UnitCount returns len(s.Units()) without materializing the list, so
// callers can enforce a unit cap before compiling a spec whose cross
// product is enormous — a tiny JSON body can request billions of units.
// The count saturates at math.MaxInt64. Callers must Validate the spec
// first (negative trials would make the count meaningless).
func (s *Spec) UnitCount() int64 {
	var total int64
	for _, schemes := range s.schemeLists() {
		total = satAdd(total, s.gridSize(len(schemes)))
	}
	return satAdd(total, int64(len(s.Experiments)))
}

// unit decodes the unit at index i of the compiled list, 0 <= i <
// UnitCount(), walking the task grids by gridSize as UnitCount does.
// schemes is s.schemeLists().
func (s *Spec) unit(schemes [][]string, i int) Unit {
	j := int64(i)
	for t, sc := range schemes {
		if grid := s.gridSize(len(sc)); j >= grid {
			j -= grid
			continue
		}
		u := Unit{Index: i, Kind: KindTask, Task: s.Tasks[t].Task}
		u.Trial = int(j % int64(s.Trials))
		j /= int64(s.Trials)
		u.Scheme = sc[j%int64(len(sc))]
		j /= int64(len(sc))
		u.N = s.Sizes[j%int64(len(s.Sizes))]
		u.Family = s.Families[j/int64(len(s.Sizes))]
		u.Seed = unitSeed(s.Seed, u.Key())
		u.InstanceSeed = unitSeed(s.Seed, u.InstanceKey())
		return u
	}
	u := Unit{Index: i, Kind: KindExperiment, Experiment: s.Experiments[j]}
	u.Seed = unitSeed(s.Seed, u.Key())
	return u
}

// Units compiles the spec into its deterministic unit list: tasks in spec
// order, then families, sizes, schemes and trials; experiment replays
// follow the grid. Callers must Validate the spec first.
func (s *Spec) Units() []Unit {
	schemes := s.schemeLists()
	units := make([]Unit, s.UnitCount())
	for i := range units {
		units[i] = s.unit(schemes, i)
	}
	return units
}
