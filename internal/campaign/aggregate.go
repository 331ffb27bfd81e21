package campaign

import (
	"fmt"
	"sort"

	"oraclesize/internal/experiments"
)

// aggKey locates one aggregated cell group: a grid point averaged over
// trials.
type aggKey struct {
	task   string
	family string
	n      int
	scheme string
}

// aggCell accumulates one grid point's trials.
type aggCell struct {
	trials      int
	nodes       float64
	edges       float64
	adviceBits  float64
	messages    float64
	messageBits float64
	rounds      float64
	complete    bool
}

func (c *aggCell) add(r Record) {
	c.trials++
	c.nodes += float64(r.Nodes)
	c.edges += float64(r.Edges)
	c.adviceBits += float64(r.AdviceBits)
	c.messages += float64(r.Messages)
	c.messageBits += float64(r.MessageBits)
	c.rounds += float64(r.Rounds)
	if c.trials == 1 {
		c.complete = r.Complete
	} else {
		c.complete = c.complete && r.Complete
	}
}

func (c *aggCell) mean(sum float64) float64 { return sum / float64(c.trials) }

// Aggregator folds records into summary tables one record at a time, so
// callers can stream an artifact (StreamRecords) through it without ever
// holding the record list. Task records reduce
// to O(grid) running cells; experiment replays are the one part that
// must be retained, because their table cells are reproduced verbatim.
type Aggregator struct {
	order    []aggKey
	cells    map[aggKey]*aggCell
	expOrder []string
	expRows  map[string][]Record
}

// NewAggregator returns an empty aggregator ready for Add.
func NewAggregator() *Aggregator {
	return &Aggregator{
		cells:   make(map[aggKey]*aggCell),
		expRows: make(map[string][]Record),
	}
}

// Add folds one record into the running aggregate.
func (a *Aggregator) Add(r Record) {
	switch r.Kind {
	case KindTask:
		k := aggKey{task: r.Task, family: r.Family, n: r.N, scheme: r.Scheme}
		c, ok := a.cells[k]
		if !ok {
			c = &aggCell{}
			a.cells[k] = c
			a.order = append(a.order, k)
		}
		c.add(r)
	case KindExperiment:
		if _, ok := a.expRows[r.Experiment]; !ok {
			a.expOrder = append(a.expOrder, r.Experiment)
		}
		a.expRows[r.Experiment] = append(a.expRows[r.Experiment], r)
	}
}

// fold groups task records by grid point in first-appearance order.
func fold(records []Record) *Aggregator {
	a := NewAggregator()
	for _, r := range records {
		a.Add(r)
	}
	return a
}

// Tables renders the aggregate in experiments.Table form: one table per
// task (trial means per grid point) followed by one table per replayed
// experiment, reconstructed cell-for-cell.
func (a *Aggregator) Tables() []*experiments.Table {
	var tables []*experiments.Table
	byTask := make(map[string]*experiments.Table)
	for _, k := range a.order {
		t, ok := byTask[k.task]
		if !ok {
			t = &experiments.Table{
				ID:    "campaign-" + k.task,
				Title: fmt.Sprintf("campaign aggregate: %s (means over trials)", k.task),
				Columns: []string{
					"family", "n", "scheme", "trials", "nodes", "edges",
					"advice-bits", "messages", "message-bits", "rounds", "complete",
				},
			}
			byTask[k.task] = t
			tables = append(tables, t)
		}
		c := a.cells[k]
		t.AddRow(
			k.family, k.n, k.scheme, c.trials,
			c.mean(c.nodes), c.mean(c.edges), c.mean(c.adviceBits),
			c.mean(c.messages), c.mean(c.messageBits), c.mean(c.rounds),
			completeMark(c.complete),
		)
	}
	tables = append(tables, a.replayTables()...)
	return tables
}

// Aggregate folds a record list and renders it; streaming callers should
// feed an Aggregator directly instead of materializing the slice.
func Aggregate(records []Record) []*experiments.Table {
	return fold(records).Tables()
}

// replayTables rebuilds experiment tables from experiment-kind records.
func (a *Aggregator) replayTables() []*experiments.Table {
	var tables []*experiments.Table
	for _, id := range a.expOrder {
		recs := append([]Record(nil), a.expRows[id]...)
		sort.SliceStable(recs, func(i, j int) bool {
			if recs[i].Trial != recs[j].Trial {
				return recs[i].Trial < recs[j].Trial
			}
			return recs[i].Row < recs[j].Row
		})
		t := &experiments.Table{
			ID:      id,
			Title:   "replayed from campaign JSONL",
			Columns: recs[0].Columns,
		}
		for _, r := range recs {
			vals := make([]interface{}, len(r.Cells))
			for i, cell := range r.Cells {
				vals[i] = cell
			}
			t.AddRow(vals...)
		}
		tables = append(tables, t)
	}
	return tables
}

// Summary compares a run against a baseline; streaming callers should
// fold both sides into Aggregators and call SummaryOf.
func Summary(current, baseline []Record) []*experiments.Table {
	return SummaryOf(fold(current), fold(baseline))
}

// SummaryOf compares two aggregates, grid point by grid point: each
// metric cell shows the current mean plus its delta to the baseline
// mean. Grid points absent from the baseline are flagged "new"; baseline
// points absent from the run are appended as "dropped".
func SummaryOf(current, baseline *Aggregator) []*experiments.Table {
	curOrder, curCells := current.order, current.cells
	baseOrder, baseCells := baseline.order, baseline.cells
	var tables []*experiments.Table
	byTask := make(map[string]*experiments.Table)
	tableFor := func(task string) *experiments.Table {
		t, ok := byTask[task]
		if !ok {
			t = &experiments.Table{
				ID:    "campaign-summary-" + task,
				Title: fmt.Sprintf("campaign summary: %s (current vs baseline)", task),
				Columns: []string{
					"family", "n", "scheme", "trials", "status",
					"advice-bits", "Δadvice", "messages", "Δmessages",
					"message-bits", "Δmsg-bits", "rounds", "Δrounds", "complete",
				},
			}
			byTask[task] = t
			tables = append(tables, t)
		}
		return t
	}
	for _, k := range curOrder {
		c := curCells[k]
		b, inBase := baseCells[k]
		status := "="
		if !inBase {
			status = "new"
		}
		delta := func(cur, base func(*aggCell) float64) string {
			if !inBase {
				return "-"
			}
			return formatDelta(cur(c) - base(b))
		}
		advice := func(a *aggCell) float64 { return a.mean(a.adviceBits) }
		msgs := func(a *aggCell) float64 { return a.mean(a.messages) }
		bits := func(a *aggCell) float64 { return a.mean(a.messageBits) }
		rounds := func(a *aggCell) float64 { return a.mean(a.rounds) }
		tableFor(k.task).AddRow(
			k.family, k.n, k.scheme, c.trials, status,
			advice(c), delta(advice, advice),
			msgs(c), delta(msgs, msgs),
			bits(c), delta(bits, bits),
			rounds(c), delta(rounds, rounds),
			completeMark(c.complete),
		)
	}
	for _, k := range baseOrder {
		if _, inCur := curCells[k]; inCur {
			continue
		}
		b := baseCells[k]
		tableFor(k.task).AddRow(
			k.family, k.n, k.scheme, b.trials, "dropped",
			b.mean(b.adviceBits), "-", b.mean(b.messages), "-",
			b.mean(b.messageBits), "-", b.mean(b.rounds), "-",
			completeMark(b.complete),
		)
	}
	return tables
}

func formatDelta(d float64) string {
	switch {
	case d == 0:
		return "0"
	case d > 0:
		return "+" + trimFloat(d)
	default:
		return "-" + trimFloat(-d)
	}
}

func trimFloat(x float64) string {
	if x == float64(int64(x)) {
		return fmt.Sprintf("%d", int64(x))
	}
	return fmt.Sprintf("%.3f", x)
}

func completeMark(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}
