package catalog

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"oraclesize/internal/graph"
	"oraclesize/internal/graphgen"
	"oraclesize/internal/scheme"
	"oraclesize/internal/sim"
)

// TestEverySchemeCompletes runs each registered task×scheme pairing on a
// small random graph through Resolve and Do, under every scheduler and on
// both engines, and requires Do's verdict: the task's own completion check
// and, for a bounded scheme, its bound — the registry must only hand out
// pairings that work together.
func TestEverySchemeCompletes(t *testing.T) {
	g, err := graphgen.RandomConnected(48, 96, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range Tasks() {
		for _, sc := range task.Schemes {
			t.Run(task.Name+"/"+sc.Name, func(t *testing.T) {
				for _, order := range append(SchedulerNames(), EngineGoroutines) {
					engine := EngineQueue
					if order == EngineGoroutines {
						engine = order
					}
					t.Run(order, func(t *testing.T) {
						run, err := Resolve(task.Name, sc.Name, engine, order, 3)
						if err != nil {
							t.Fatal(err)
						}
						done, err := run.Do(g, 0)
						if err != nil {
							t.Fatal(err)
						}
						if done.Check != nil {
							t.Errorf("check: %v", done.Check)
						}
						if done.Result.Messages == 0 || done.Wall < 0 {
							t.Errorf("%d messages in %v", done.Result.Messages, done.Wall)
						}
					})
				}
			})
		}
	}
}

// TestDoFailures pins Do's two kinds of failure: a run that finished but
// breaks its scheme's bound reports a Check naming the bound, and a run
// that cannot advise or simulate is an error prefixed "advising: " or
// "run: " (oracled's /v1/run answers 400 with that text).
func TestDoFailures(t *testing.T) {
	g, err := graphgen.RandomConnected(48, 96, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	run, err := Resolve("wakeup", "tree", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	tight := run
	tight.Scheme.Bound = func(n int) (int, int) {
		messages, adviceBits := run.Scheme.Bound(n)
		return messages - 1, adviceBits
	}
	done, err := tight.Do(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := "47 messages exceed the wakeup/tree bound 46 at n=48"
	if done.Check == nil || done.Check.Error() != want {
		t.Errorf("one message over a tightened bound: Check = %v, want %q", done.Check, want)
	}

	disconnected, err := graph.NewBuilder(2).Graph()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Do(disconnected, 0); err == nil || !strings.HasPrefix(err.Error(), "advising: ") {
		t.Errorf("disconnected graph: err = %v, want an advising: error", err)
	}
	capped := run
	capped.MaxMessages = 5
	if _, err := capped.Do(g, 0); err == nil || !strings.HasPrefix(err.Error(), "run: sim: message budget exceeded") ||
		!errors.Is(err, sim.ErrMessageBudget) {
		t.Errorf("5-message cap: err = %v, want a run: %v error", err, sim.ErrMessageBudget)
	}
}

// earlyNodes wraps an algorithm so that every node also says hello on
// port 0 in Init, before anything is delivered to it.
type earlyNodes struct{ scheme.Algorithm }

func (a earlyNodes) NewNode(info scheme.NodeInfo) scheme.Node {
	return earlyNode{a.Algorithm.NewNode(info)}
}

type earlyNode struct{ scheme.Node }

func (nd earlyNode) Init(out []scheme.Send) []scheme.Send {
	return nd.Node.Init(append(out, scheme.Send{Port: 0, Msg: scheme.Message{Kind: scheme.KindHello}}))
}

// TestDoEnforcesWakeupOnBothEngines runs a wakeup scheme whose every node
// transmits before being woken: flooding still informs every node and no
// bound covers it, so only the engine's wakeup check can fail the run, and
// both engines must.
func TestDoEnforcesWakeupOnBothEngines(t *testing.T) {
	g, err := graphgen.RandomConnected(48, 96, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{EngineQueue, EngineGoroutines} {
		run, err := Resolve("wakeup", "flooding", engine, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		run.Scheme.Algo = earlyNodes{run.Scheme.Algo}
		done, err := run.Do(g, 0)
		if err == nil || !strings.HasPrefix(err.Error(), "run: sim: wakeup legality violated") ||
			!errors.Is(err, sim.ErrWakeupViolation) {
			t.Errorf("%s: err = %v, Check = %v; want a run: %v error", engine, err, done.Check, sim.ErrWakeupViolation)
		}
	}
}

// TestBounds pins the bound table: hand-computed (messages, advice bits)
// at n=16 and n=1024, no bound on the six baselines, and equality where a
// formula is exact, so a bound that drifts loose fails here.
func TestBounds(t *testing.T) {
	want := map[string][2][2]int{
		"wakeup/tree":          {{15, 180}, {1023, 20460}},
		"broadcast/light-tree": {{45, 158}, {3069, 10238}},
		"gossip/tree":          {{30, 264}, {2046, 31724}},
		"election/marked-tree": {{15, 196}, {1023, 21484}},
	}
	baselines := 0
	for _, task := range Tasks() {
		for _, sc := range task.Schemes {
			key := task.Name + "/" + sc.Name
			w, bounded := want[key]
			switch {
			case !bounded && sc.Bound != nil:
				t.Errorf("%s: baseline has a bound", key)
			case !bounded:
				baselines++
			case sc.Bound == nil:
				t.Errorf("%s: no bound", key)
			default:
				for i, n := range []int{16, 1024} {
					if m, a := sc.Bound(n); m != w[i][0] || a != w[i][1] {
						t.Errorf("%s at n=%d: bound (%d, %d), want (%d, %d)", key, n, m, a, w[i][0], w[i][1])
					}
				}
			}
		}
	}
	if baselines != 6 {
		t.Errorf("%d unbounded schemes, want the 6 baselines", baselines)
	}

	// Tightness: rooted at an end of a path every node but the last has
	// one child, so the wakeup and election advice meet their bounds; the
	// gossip advice meets its bound on every graph.
	exact := func(task string, g *graph.Graph) {
		t.Helper()
		run, err := Resolve(task, "", "", "", 0)
		if err != nil {
			t.Fatal(err)
		}
		advice, err := run.Scheme.NewOracle(0).Advise(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, bound := run.Scheme.Bound(g.N()); advice.SizeBits() != bound {
			t.Errorf("%s on %d nodes: %d advice bits, bound %d", task, g.N(), advice.SizeBits(), bound)
		}
	}
	for _, name := range FamilyNames() {
		fam, err := FamilyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := fam.Generate(64, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		exact("gossip", g)
		if name == "path" {
			exact("wakeup", g)
			exact("election", g)
		}
	}
}

// TestResolve pins Resolve's defaults, aliases and refusals: every name
// is checked up front, and every task runs on the goroutines engine.
func TestResolve(t *testing.T) {
	cases := []struct {
		name                              string
		task, scheme, engine, scheduler   string
		wantScheme, wantEngine, wantSched string
		wantErr                           string
	}{
		{name: "defaults", task: "broadcast",
			wantScheme: "light-tree", wantEngine: EngineQueue, wantSched: "fifo"},
		{name: "election default", task: "election",
			wantScheme: "marked-tree", wantEngine: EngineQueue, wantSched: "fifo"},
		{name: "alias", task: "wakeup", scheme: "none", scheduler: "lifo",
			wantScheme: "flooding", wantEngine: EngineQueue, wantSched: "lifo"},
		{name: "explicit queue", task: "election", scheme: "mark", engine: EngineQueue, scheduler: "delay",
			wantScheme: "marked-flood", wantEngine: EngineQueue, wantSched: "delay"},
		{name: "goroutines", task: "wakeup", engine: EngineGoroutines,
			wantScheme: "tree", wantEngine: EngineGoroutines},
		{name: "goroutines ignores scheduler", task: "broadcast", engine: EngineGoroutines, scheduler: "random",
			wantScheme: "light-tree", wantEngine: EngineGoroutines},
		{name: "unknown task", task: "teleport", wantErr: `unknown task "teleport"`},
		{name: "unknown scheme", task: "wakeup", scheme: "psychic", wantErr: `has no scheme "psychic"`},
		{name: "unknown scheduler", task: "wakeup", scheduler: "chaos", wantErr: `unknown scheduler "chaos"`},
		{name: "unknown engine", task: "wakeup", engine: "quantum", wantErr: `unknown engine "quantum"`},
		{name: "election on goroutines", task: "election", engine: EngineGoroutines,
			wantScheme: "marked-tree", wantEngine: EngineGoroutines},
		{name: "gossip on goroutines", task: "gossip", engine: EngineGoroutines,
			wantScheme: "tree", wantEngine: EngineGoroutines},
	}
	for _, tc := range cases {
		run, err := Resolve(tc.task, tc.scheme, tc.engine, tc.scheduler, 5)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if run.Task.Name != tc.task || run.Scheme.Name != tc.wantScheme ||
			run.Engine != tc.wantEngine || run.Scheduler != tc.wantSched ||
			run.Seed != 5 || run.MaxMessages != 0 {
			t.Errorf("%s: got task %q scheme %q engine %q scheduler %q seed %d budget %d, want %q %q %q %q 5 0",
				tc.name, run.Task.Name, run.Scheme.Name, run.Engine, run.Scheduler, run.Seed, run.MaxMessages,
				tc.task, tc.wantScheme, tc.wantEngine, tc.wantSched)
		}
	}
}

// TestResolveDoesNotAllocate pins the name check every /v1/run and
// /v1/advice miss, campaign unit and root Wakeup/Broadcast call pays: the
// task table is built once, and scheduler names are checked without
// building the scheduler factories.
func TestResolveDoesNotAllocate(t *testing.T) {
	for _, args := range [][4]string{{"wakeup", "", "", ""}, {"election", "mark", EngineQueue, "delay"}} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := Resolve(args[0], args[1], args[2], args[3], 0); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Resolve%q allocates %.0f times, want 0", args, allocs)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := graphgen.FamilyByName("random-regular"); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("FamilyByName allocates %.0f times, want 0", allocs)
	}
}

// TestExecuteBudget checks Execute's message cap. A zero MaxMessages means
// MessageBudget(g): max-label flooding on a 256-node star sends more than
// the simulator's own default of 64(m+n)+1024 and must still finish. A set
// MaxMessages must reach both engines.
func TestExecuteBudget(t *testing.T) {
	star, err := graphgen.Star(256)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Resolve("election", "max-label-flood", "", "", 1)
	if err != nil {
		t.Fatal(err)
	}
	advice, err := run.Scheme.NewOracle(0).Advise(star, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Execute(star, 0, advice)
	if err != nil {
		t.Fatalf("default budget: %v", err)
	}
	if simDefault := 64*(star.M()+star.N()) + 1024; res.Messages <= simDefault {
		t.Fatalf("%d messages fit the simulator default %d; the case no longer tells the budgets apart", res.Messages, simDefault)
	}
	if err := run.Task.Check(res); err != nil {
		t.Errorf("completion check: %v", err)
	}

	g, err := graphgen.RandomConnected(32, 64, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{EngineQueue, EngineGoroutines} {
		run, err := Resolve("broadcast", "flooding", engine, "", 1)
		if err != nil {
			t.Fatal(err)
		}
		advice, err := run.Scheme.NewOracle(0).Advise(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		run.MaxMessages = 5
		if _, err := run.Execute(g, 0, advice); !errors.Is(err, sim.ErrMessageBudget) {
			t.Errorf("%s: cap of 5 messages: err = %v, want %v", engine, err, sim.ErrMessageBudget)
		}
	}
}

// TestAliasesResolve pins the historical oraclesim -oracle names onto their
// canonical schemes.
func TestAliasesResolve(t *testing.T) {
	cases := []struct {
		task, alias, canonical string
	}{
		{"wakeup", "paper", "tree"},
		{"wakeup", "none", "flooding"},
		{"broadcast", "paper", "light-tree"},
		{"broadcast", "none", "flooding"},
		{"gossip", "paper", "tree"},
		{"election", "paper", "marked-tree"},
		{"election", "none", "max-label-flood"},
		{"election", "mark", "marked-flood"},
	}
	for _, tc := range cases {
		task, err := TaskByName(tc.task)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := task.SchemeByName(tc.alias)
		if err != nil {
			t.Errorf("%s/%s: %v", tc.task, tc.alias, err)
			continue
		}
		if sc.Name != tc.canonical {
			t.Errorf("%s/%s resolved to %q, want %q", tc.task, tc.alias, sc.Name, tc.canonical)
		}
		// The canonical name must resolve to itself too.
		if direct, err := task.SchemeByName(tc.canonical); err != nil || direct.Name != tc.canonical {
			t.Errorf("%s/%s: canonical lookup failed (%v)", tc.task, tc.canonical, err)
		}
	}
}

func TestUnknownNamesRejected(t *testing.T) {
	if _, err := TaskByName("teleport"); err == nil {
		t.Error("unknown task accepted")
	}
	task, err := TaskByName("wakeup")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := task.SchemeByName("psychic"); err == nil {
		t.Error("unknown scheme accepted")
	}
	if _, err := FamilyByName("moebius"); err == nil {
		t.Error("unknown family accepted")
	}
	if _, err := schedulerFactory("chaos", 1); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

func TestRegistriesNonEmpty(t *testing.T) {
	if got := TaskNames(); len(got) < 4 {
		t.Errorf("tasks = %v, want at least wakeup/broadcast/gossip/election", got)
	}
	if got := FamilyNames(); len(got) == 0 {
		t.Error("no families")
	}
	names := SchedulerNames()
	var registered []string
	for name := range sim.Schedulers(3) {
		registered = append(registered, name)
	}
	sorted := slices.Clone(names)
	slices.Sort(sorted)
	slices.Sort(registered)
	if !slices.Equal(sorted, registered) {
		t.Errorf("schedulers = %v, sim registers %v", names, registered)
	}
	for _, name := range names {
		f, err := schedulerFactory(name, 3)
		if err != nil || f() == nil {
			t.Errorf("scheduler %s: %v", name, err)
		}
	}
	for _, task := range Tasks() {
		if task.DefaultScheme().Algo == nil {
			t.Errorf("task %s default scheme has no algorithm", task.Name)
		}
	}
}
