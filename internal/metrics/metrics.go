// Package metrics writes the Prometheus text exposition format (version
// 0.0.4) for the /metrics pages of oracled and oracleherd, and holds the
// two instruments their request paths update: a status-code table and a
// sharded latency histogram. Both instruments are lock-free — observing
// is bounds checks and atomic adds — so they stay on in the serve path's
// fast lane.
//
// The repository is stdlib-only, and a page is a fixed sequence of
// counter, gauge and histogram families, so Page writes it in order
// rather than keeping a registry.
package metrics

import (
	"io"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ContentType is the media type of a page Page writes.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// Page writes one exposition page. Labels are given as name, value pairs;
// names are constants of the caller, values are escaped per the format.
// Write errors are dropped: a scraper that hangs up mid-page has nothing
// to be told.
type Page struct{ w io.Writer }

// NewPage starts a page on w.
func NewPage(w io.Writer) *Page { return &Page{w: w} }

// Family writes a family's HELP and TYPE lines; typ is "counter", "gauge"
// or "histogram". Samples of the family follow.
func (p *Page) Family(name, typ, help string) {
	io.WriteString(p.w, "# HELP "+name+" "+help+"\n# TYPE "+name+" "+typ+"\n")
}

// Counter writes a counter family with one unlabelled sample.
func (p *Page) Counter(name, help string, v int64) {
	p.Family(name, "counter", help)
	p.Int(name, v)
}

// Gauge writes a gauge family with one unlabelled sample.
func (p *Page) Gauge(name, help string, v int64) {
	p.Family(name, "gauge", help)
	p.Int(name, v)
}

// GaugeFloat writes a gauge family with one unlabelled float sample.
func (p *Page) GaugeFloat(name, help string, v float64) {
	p.Family(name, "gauge", help)
	p.Float(name, v)
}

// Int writes one integer sample.
func (p *Page) Int(name string, v int64, labels ...string) {
	p.sample(name, labels, strconv.FormatInt(v, 10))
}

// Float writes one float sample.
func (p *Page) Float(name string, v float64, labels ...string) {
	p.sample(name, labels, formatFloat(v))
}

// Codes writes one sample per status code c has counted, with a code
// label after the given labels. Codes never seen are suppressed, so an
// idle table costs no page bytes.
func (p *Page) Codes(name string, c *Codes, labels ...string) {
	for code := range c {
		if n := c[code].Load(); n > 0 {
			p.Int(name, n, append(labels[:len(labels):len(labels)], "code", strconv.Itoa(code))...)
		}
	}
}

// Histogram writes h's cumulative _bucket series (an le label after the
// given labels, ending in +Inf), then _sum in seconds and _count.
func (p *Page) Histogram(name string, h *Histogram, labels ...string) {
	bucket, le := name+"_bucket", append(labels[:len(labels):len(labels)], "le", "")
	var cum, count, sumNS int64
	for i, ub := range h.bounds {
		for s := range h.shards {
			cum += h.shards[s].bins[i].Load()
		}
		le[len(le)-1] = formatFloat(ub)
		p.Int(bucket, cum, le...)
	}
	for s := range h.shards {
		count += h.shards[s].count.Load()
		sumNS += h.shards[s].sumNS.Load()
	}
	le[len(le)-1] = "+Inf"
	p.Int(bucket, count, le...)
	p.Float(name+"_sum", float64(sumNS)/1e9, labels...)
	p.Int(name+"_count", count, labels...)
}

// labelEscaper applies the format's only three label-value escapes.
// Anything else, a tab or a non-ASCII byte included, is written as is;
// Go's %q escapes such as \t and \x.. are not part of the format.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func (p *Page) sample(name string, labels []string, value string) {
	if len(labels) > 0 {
		pairs := make([]string, 0, len(labels)/2)
		for i := 0; i+1 < len(labels); i += 2 {
			pairs = append(pairs, labels[i]+`="`+labelEscaper.Replace(labels[i+1])+`"`)
		}
		name += "{" + strings.Join(pairs, ",") + "}"
	}
	io.WriteString(p.w, name+" "+value+"\n")
}

// formatFloat renders a float the Prometheus way: the shortest
// representation that round-trips.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Codes counts finished requests by HTTP status, indexed directly by
// code. 600 counters cost ~5 KiB; in exchange observing is one bounds
// check and one atomic add, with no map and no lock.
type Codes [600]atomic.Int64

// Observe counts one response with the given status. Codes outside
// [0, 600) are not counted.
func (c *Codes) Observe(code int) {
	if code >= 0 && code < len(c) {
		c[code].Add(1)
	}
}

// Buckets is the number of finite buckets in every Histogram.
const Buckets = 14

// Bounds are a histogram's finite bucket upper bounds in seconds,
// strictly ascending. A literal must fill all Buckets entries: a missing
// one reads as a trailing 0 bound.
type Bounds [Buckets]float64

// histShards is how many independently updated copies of its counters a
// Histogram keeps; concurrent observers mostly land on different shards
// and never serialize.
const histShards = 8

type histShard struct {
	bins  [Buckets]atomic.Int64
	count atomic.Int64
	sumNS atomic.Int64
}

// Histogram is a lock-free latency histogram. Observations land on one
// of histShards shards; a Page sums across them when it renders.
type Histogram struct {
	bounds *Bounds
	shards [histShards]histShard
}

// NewHistogram returns an empty histogram over bounds, which it keeps and
// never modifies.
func NewHistogram(bounds *Bounds) *Histogram { return &Histogram{bounds: bounds} }

// Observe records one duration. The shard is chosen from the duration's
// low bits — effectively random across observations, and free of shared
// state.
func (h *Histogram) Observe(d time.Duration) {
	sh := &h.shards[uint64(d)%histShards]
	secs := d.Seconds()
	for i, ub := range h.bounds {
		if secs <= ub {
			sh.bins[i].Add(1)
			break
		}
	}
	sh.count.Add(1)
	sh.sumNS.Add(int64(d))
}
