// Package experiments implements the per-experiment runners E1–E8 indexed
// in DESIGN.md: each runner regenerates one of the paper's results (a
// theorem, claim, or the headline separation) as a table of measurements.
// The cmd/benchtables binary prints all of them; the root bench_test.go
// exposes one benchmark per experiment; EXPERIMENTS.md records the output.
package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"oraclesize/internal/catalog"
	"oraclesize/internal/graph"
)

// Config tunes experiment scale. The zero value selects full-size sweeps;
// Quick shrinks them for use inside unit tests and benchmarks.
type Config struct {
	// Seed drives all randomness; runs are reproducible per seed.
	Seed int64
	// Quick selects reduced sweeps (smaller n, fewer trials).
	Quick bool
}

// seed derives the seed of one experiment's randomness from c.Seed and a
// per-site salt.
func (c Config) seed(salt int64) int64 { return c.Seed*1000003 + salt }

// rng returns a generator seeded with c.seed(salt).
func (c Config) rng(salt int64) *rand.Rand {
	return rand.New(rand.NewSource(c.seed(salt)))
}

// sizes returns the experiment's n sweep.
func (c Config) sizes(full, quick []int) []int {
	if c.Quick {
		return quick
	}
	return full
}

// Cell is one table cell: the formatted text shown by the renderers plus
// the underlying numeric value when the cell came from a number. Cells are
// the single source of truth — Rows mirrors their Text for callers that
// only need strings.
type Cell struct {
	Text  string
	Num   float64
	IsNum bool
}

// Table is one experiment's result: a titled grid of rows plus free-form
// notes (e.g. the paper's predicted shape).
type Table struct {
	ID      string
	Title   string
	Columns []string
	// Records holds the typed cells, one slice per row; AddRow is the only
	// writer. The renderers and RowRecords both consume Records.
	Records [][]Cell
	// Rows mirrors Records cell texts for string-only consumers.
	Rows  [][]string
	Notes []string
}

// AddRow appends a formatted row; values are rendered with %v and numeric
// values additionally retain their machine-readable form.
func (t *Table) AddRow(values ...interface{}) {
	cells := make([]Cell, len(values))
	row := make([]string, len(values))
	for i, v := range values {
		cells[i] = makeCell(v)
		row[i] = cells[i].Text
	}
	t.Records = append(t.Records, cells)
	t.Rows = append(t.Rows, row)
}

func makeCell(v interface{}) Cell {
	switch x := v.(type) {
	case float64:
		return Cell{Text: formatFloat(x), Num: x, IsNum: true}
	case int:
		return Cell{Text: strconv.Itoa(x), Num: float64(x), IsNum: true}
	case int64:
		return Cell{Text: strconv.FormatInt(x, 10), Num: float64(x), IsNum: true}
	default:
		return Cell{Text: fmt.Sprintf("%v", v)}
	}
}

// RowRecord is the stable machine-readable form of one table row: the
// experiment ID plus the row's cells keyed by column name — numeric cells
// under Values, everything else under Labels. Extra cells beyond the column
// count keep positional keys ("col7"). Non-finite numbers are demoted to
// Labels so records always survive JSON encoding.
type RowRecord struct {
	Experiment string
	Labels     map[string]string
	Values     map[string]float64
}

// RowRecords exports every row of the table in machine-readable form.
func (t *Table) RowRecords() []RowRecord {
	out := make([]RowRecord, len(t.Records))
	for i, cells := range t.Records {
		rec := RowRecord{
			Experiment: t.ID,
			Labels:     make(map[string]string),
			Values:     make(map[string]float64),
		}
		for j, c := range cells {
			key := fmt.Sprintf("col%d", j)
			if j < len(t.Columns) {
				key = t.Columns[j]
			}
			if c.IsNum && !math.IsNaN(c.Num) && !math.IsInf(c.Num, 0) {
				rec.Values[key] = c.Num
			} else {
				rec.Labels[key] = c.Text
			}
		}
		out[i] = rec
	}
	return out
}

func formatFloat(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x >= 1e6 || x <= -1e6:
		return fmt.Sprintf("%.3e", x)
	case x >= 100 || x <= -100:
		return fmt.Sprintf("%.1f", x)
	default:
		return fmt.Sprintf("%.3f", x)
	}
}

// Render lays the table out as aligned plain text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Records {
		for i, cell := range row {
			if i < len(widths) && len(cell.Text) > widths[i] {
				widths[i] = len(cell.Text)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	rule := make([]string, len(t.Columns))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	writeRow(rule)
	for _, row := range t.Records {
		writeRow(cellTexts(row))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// RenderMarkdown lays the table out as a GitHub-flavored markdown table.
func (t *Table) RenderMarkdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Columns, " | ") + " |\n")
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.Records {
		b.WriteString("| " + strings.Join(cellTexts(row), " | ") + " |\n")
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n*%s*\n", n)
	}
	return b.String()
}

func cellTexts(cells []Cell) []string {
	texts := make([]string, len(cells))
	for i, c := range cells {
		texts[i] = c.Text
	}
	return texts
}

// Runner executes one experiment.
type Runner struct {
	ID  string
	Run func(Config) (*Table, error)
}

// All lists every experiment in DESIGN.md order.
func All() []Runner {
	return []Runner{
		{ID: "E1", Run: E1WakeupUpper},
		{ID: "E2a", Run: E2aAdversaryGame},
		{ID: "E2b", Run: E2bWakeupLower},
		{ID: "E2c", Run: E2cWakeupReduction},
		{ID: "E3", Run: E3BroadcastUpper},
		{ID: "E4a", Run: E4aBudgetedBroadcast},
		{ID: "E4b", Run: E4bBroadcastLower},
		{ID: "E5", Run: E5Separation},
		{ID: "E6", Run: E6Subdivision},
		{ID: "E7", Run: E7Asynchrony},
		{ID: "E8", Run: E8Baselines},
		{ID: "E9", Run: E9Gossip},
		{ID: "E10", Run: E10TreeAblation},
		{ID: "E11", Run: E11CodecAblation},
		{ID: "E12", Run: E12Exploration},
		{ID: "E13", Run: E13Election},
		{ID: "E14", Run: E14Spanner},
		{ID: "E15", Run: E15Bandwidth},
		{ID: "E16", Run: E16BFSTree},
		{ID: "E17", Run: E17MST},
		{ID: "E18", Run: E18Radio},
		{ID: "E19", Run: E19BroadcastTreeTradeoff},
		{ID: "E20", Run: E20Neighborhood},
	}
}

// ByID returns the named runner.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

func boolMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

// do runs a catalog scheme from src through catalog.Run.Do, under FIFO
// delivery and the catalog's message budget.
func do(task, scheme string, g *graph.Graph, src graph.NodeID) (catalog.Outcome, error) {
	run, err := catalog.Resolve(task, scheme, "", "", 0)
	if err != nil {
		return catalog.Outcome{}, err
	}
	return judged(run.Do(g, src))
}

// judged fails an experiment on a run that did not complete its task
// within its scheme's bound: no table reports one.
func judged(done catalog.Outcome, err error) (catalog.Outcome, error) {
	if err == nil {
		err = done.Check
	}
	return done, err
}
