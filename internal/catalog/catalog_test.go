package catalog

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"oraclesize/internal/graphgen"
	"oraclesize/internal/sim"
)

// TestEverySchemeCompletes runs each registered task×scheme pairing on a
// small random graph through Resolve and Execute and checks the task's own
// completion criterion — the registry must only hand out pairings that
// actually work together.
func TestEverySchemeCompletes(t *testing.T) {
	g, err := graphgen.RandomConnected(48, 96, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range Tasks() {
		for _, sc := range task.Schemes {
			t.Run(task.Name+"/"+sc.Name, func(t *testing.T) {
				run, err := Resolve(task.Name, sc.Name, "", "", 0)
				if err != nil {
					t.Fatal(err)
				}
				advice, err := run.Scheme.NewOracle(0).Advise(g, 0)
				if err != nil {
					t.Fatal(err)
				}
				res, err := run.Execute(g, 0, advice)
				if err != nil {
					t.Fatal(err)
				}
				if err := task.Check(res); err != nil {
					t.Errorf("completion check: %v", err)
				}
			})
		}
	}
}

// TestResolve pins Resolve's defaults, aliases and refusals: every name
// is checked up front, and the goroutines engine is refused for tasks
// that need node states.
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
		{name: "goroutines ignores scheduler", task: "gossip", engine: EngineGoroutines, scheduler: "random",
			wantScheme: "tree", wantEngine: EngineGoroutines},
		{name: "unknown task", task: "teleport", wantErr: `unknown task "teleport"`},
		{name: "unknown scheme", task: "wakeup", scheme: "psychic", wantErr: `has no scheme "psychic"`},
		{name: "unknown scheduler", task: "wakeup", scheduler: "chaos", wantErr: `unknown scheduler "chaos"`},
		{name: "unknown engine", task: "wakeup", engine: "quantum", wantErr: `unknown engine "quantum"`},
		{name: "election needs queue", task: "election", engine: EngineGoroutines,
			wantErr: "election verification needs the queue engine"},
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
	if len(names) < 4 {
		t.Errorf("schedulers = %v, want fifo/lifo/random/delay", names)
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
