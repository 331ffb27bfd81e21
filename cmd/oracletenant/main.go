// Command oracletenant administers a durable tenant store (see
// internal/tenant): the versioned control plane oracled serves from when
// started with -tenant-store.
//
//	oracletenant show      -store dir
//	oracletenant add       -store dir -name N -key K [quota flags]
//	oracletenant import    -store dir -keyfile tenants.json
//	oracletenant set-quota -store dir -name N [quota flags]
//	oracletenant rotate    -store dir -name N -key NEWKEY [-overlap 15m]
//	oracletenant del       -store dir -name N
//	oracletenant report    -store dir
//	oracletenant compact   -store dir
//
// Every mutating subcommand appends to the store's write-ahead log with an
// fsync, so a concurrently running oracled picks the change up on its next
// reload (SIGHUP or POST /v1/admin/tenants/reload). Pass -reload URL
// -api-key KEY to any mutating subcommand to trigger that reload
// immediately over the admin endpoint — the key must belong to a tenant
// with "admin": true. Every oracled serving from the store reloads on its
// own; nothing propagates a reload between daemons.
//
// "import" reads a JSON keyfile ({"tenants": [...]}, see docs/TENANCY.md)
// and writes nothing unless the whole file builds a registry: no short
// key, duplicate name or duplicate key. It is how a keyfile deployment
// moves onto a store: import, then start oracled -tenant-store DIR.
//
// "rotate" keeps the old key valid for -overlap (default 15m): both keys
// authenticate inside the window, then the old one stops — clients migrate
// without a hard cut-over. "report" prints the persisted usage ledgers
// (requests, units, queue-seconds, bytes); totals survive daemon restarts
// because oracled flushes them to the store. "compact" folds the WAL into
// the snapshot.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"oraclesize/internal/tenant"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: oracletenant <show|add|import|set-quota|rotate|del|report|compact> [flags]

subcommands:
  show       list stored tenants and the current policy generation
  add        register a tenant (raw key digested immediately, never stored)
  import     add every tenant of a JSON keyfile, or none if any is invalid
  set-quota  change a stored tenant's limits (only flags you pass change)
  rotate     install a new key, keeping the old one valid for -overlap
  del        remove a tenant (its usage ledger is kept)
  report     print the persisted per-tenant usage ledgers
  compact    fold the write-ahead log into the snapshot

Mutating subcommands accept -reload URL and -api-key KEY to trigger
POST /v1/admin/tenants/reload on a running oracled afterwards.
`

func run(args []string, out, errOut io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(errOut, usage)
		return 2
	}
	switch args[0] {
	case "show":
		return cmdShow(args[1:], out, errOut)
	case "add":
		return cmdAdd(args[1:], out, errOut)
	case "import":
		return cmdImport(args[1:], out, errOut)
	case "set-quota":
		return cmdSetQuota(args[1:], out, errOut)
	case "rotate":
		return cmdRotate(args[1:], out, errOut)
	case "del":
		return cmdDel(args[1:], out, errOut)
	case "report":
		return cmdReport(args[1:], out, errOut)
	case "compact":
		return cmdCompact(args[1:], out, errOut)
	default:
		fmt.Fprintf(errOut, "oracletenant: unknown subcommand %q\n%s", args[0], usage)
		return 2
	}
}

// openStore opens the -store directory, required by every subcommand.
func openStore(dir string, errOut io.Writer) (*tenant.Store, int) {
	if dir == "" {
		fmt.Fprintln(errOut, "oracletenant: -store is required")
		return nil, 2
	}
	st, err := tenant.OpenStore(dir)
	if err != nil {
		fmt.Fprintf(errOut, "oracletenant: %v\n", err)
		return nil, 1
	}
	return st, 0
}

// reloadFlags are the optional post-mutation reload trigger, shared by the
// mutating subcommands.
type reloadFlags struct {
	url, key string
}

func (rf *reloadFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&rf.url, "reload", "", "oracled base URL to POST /v1/admin/tenants/reload after the change")
	fs.StringVar(&rf.key, "api-key", "", "admin tenant API key for -reload")
}

// trigger fires the admin reload when -reload was given. Failures are
// reported but do not fail the subcommand: the store mutation is already
// durable and the daemon will converge on its next reload either way.
func (rf *reloadFlags) trigger(out, errOut io.Writer) {
	if rf.url == "" {
		return
	}
	req, err := http.NewRequest("POST", strings.TrimRight(rf.url, "/")+"/v1/admin/tenants/reload", nil)
	if err != nil {
		fmt.Fprintf(errOut, "oracletenant: reload request: %v\n", err)
		return
	}
	req.Header.Set("X-API-Key", rf.key)
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		fmt.Fprintf(errOut, "oracletenant: reload: %v (store change is durable; the daemon will pick it up on its next reload)\n", err)
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(errOut, "oracletenant: reload: status %d: %s\n", resp.StatusCode, strings.TrimSpace(string(body)))
		return
	}
	var ack struct {
		Generation uint64 `json:"generation"`
		Tenants    int    `json:"tenants"`
	}
	if err := json.Unmarshal(body, &ack); err == nil {
		fmt.Fprintf(out, "oracletenant: daemon reloaded: %d tenants, generation %d\n", ack.Tenants, ack.Generation)
	} else {
		fmt.Fprintln(out, "oracletenant: daemon reloaded")
	}
}

// quotaFlags registers the spec limit flags; set tracks which were passed
// explicitly so set-quota changes only those.
type quotaFlags struct {
	weight      int
	rate, burst float64
	maxBody     int64
	maxUnits    int
	maxSlots    int
	admin       bool
}

func (qf *quotaFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&qf.weight, "weight", 0, "deficit-round-robin share (0 = default 1)")
	fs.Float64Var(&qf.rate, "rate", 0, "admission tokens per second (0 = unlimited)")
	fs.Float64Var(&qf.burst, "burst", 0, "token bucket burst (0 = one second of rate)")
	fs.Int64Var(&qf.maxBody, "max-body", 0, "request body byte cap (0 = server cap alone)")
	fs.IntVar(&qf.maxUnits, "max-units", 0, "spec unit cap per /v1/shard request (0 = server cap alone)")
	fs.IntVar(&qf.maxSlots, "max-slots", 0, "work queue slot cap (0 = unlimited)")
	fs.BoolVar(&qf.admin, "admin", false, "grant the admin endpoints (reload, tenant report)")
}

// apply copies the explicitly set flags onto sp.
func (qf *quotaFlags) apply(fs *flag.FlagSet, sp *tenant.Spec) {
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "weight":
			sp.Weight = qf.weight
		case "rate":
			sp.RatePerSec = qf.rate
		case "burst":
			sp.Burst = qf.burst
		case "max-body":
			sp.MaxBodyBytes = qf.maxBody
		case "max-units":
			sp.MaxCampaignUnits = qf.maxUnits
		case "max-slots":
			sp.MaxQueueSlots = qf.maxSlots
		case "admin":
			sp.Admin = qf.admin
		}
	})
}

func cmdShow(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("oracletenant show", flag.ContinueOnError)
	fs.SetOutput(errOut)
	dir := fs.String("store", "", "tenant store directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	st, code := openStore(*dir, errOut)
	if st == nil {
		return code
	}
	defer st.Close()
	specs := st.Specs()
	fmt.Fprintf(out, "store %s: generation %d, %d tenants\n", st.Dir(), st.Generation(), len(specs))
	for _, sp := range specs {
		var limits []string
		if sp.Weight != 1 {
			limits = append(limits, fmt.Sprintf("weight=%d", sp.Weight))
		}
		if sp.RatePerSec > 0 {
			limits = append(limits, fmt.Sprintf("rate=%g/s burst=%g", sp.RatePerSec, sp.Burst))
		}
		if sp.MaxBodyBytes > 0 {
			limits = append(limits, fmt.Sprintf("max-body=%d", sp.MaxBodyBytes))
		}
		if sp.MaxCampaignUnits > 0 {
			limits = append(limits, fmt.Sprintf("max-units=%d", sp.MaxCampaignUnits))
		}
		if sp.MaxQueueSlots > 0 {
			limits = append(limits, fmt.Sprintf("max-slots=%d", sp.MaxQueueSlots))
		}
		if sp.Admin {
			limits = append(limits, "admin")
		}
		if !sp.PrevKeyExpiry.IsZero() && sp.PrevKeyDigest != "" {
			limits = append(limits, fmt.Sprintf("rotating(prev key valid until %s)", sp.PrevKeyExpiry.Format(time.RFC3339)))
		}
		line := strings.Join(limits, " ")
		if line == "" {
			line = "no limits"
		}
		fmt.Fprintf(out, "  %-20s %s\n", sp.Name, line)
	}
	return 0
}

func cmdAdd(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("oracletenant add", flag.ContinueOnError)
	fs.SetOutput(errOut)
	dir := fs.String("store", "", "tenant store directory")
	name := fs.String("name", "", "tenant name")
	key := fs.String("key", "", "tenant API key (at least 8 bytes; digested, never stored)")
	var qf quotaFlags
	qf.register(fs)
	var rf reloadFlags
	rf.register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	st, code := openStore(*dir, errOut)
	if st == nil {
		return code
	}
	defer st.Close()
	sp := tenant.Spec{Name: *name, Key: *key}
	qf.apply(fs, &sp)
	if _, err := st.PutKey(sp); err != nil {
		fmt.Fprintf(errOut, "oracletenant: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "oracletenant: added %q (generation %d)\n", *name, st.Generation())
	rf.trigger(out, errOut)
	return 0
}

func cmdImport(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("oracletenant import", flag.ContinueOnError)
	fs.SetOutput(errOut)
	dir := fs.String("store", "", "tenant store directory")
	keyfile := fs.String("keyfile", "", `JSON keyfile to import: {"tenants": [{"name": ..., "key": ..., quota fields}]}`)
	var rf reloadFlags
	rf.register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *keyfile == "" {
		fmt.Fprintln(errOut, "oracletenant: -keyfile is required")
		return 2
	}
	st, code := openStore(*dir, errOut)
	if st == nil {
		return code
	}
	defer st.Close()
	n, err := st.ImportKeyfile(*keyfile)
	if err != nil {
		fmt.Fprintf(errOut, "oracletenant: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "oracletenant: imported %d tenants from %s (generation %d)\n", n, *keyfile, st.Generation())
	rf.trigger(out, errOut)
	return 0
}

func cmdSetQuota(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("oracletenant set-quota", flag.ContinueOnError)
	fs.SetOutput(errOut)
	dir := fs.String("store", "", "tenant store directory")
	name := fs.String("name", "", "tenant name")
	var qf quotaFlags
	qf.register(fs)
	var rf reloadFlags
	rf.register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	st, code := openStore(*dir, errOut)
	if st == nil {
		return code
	}
	defer st.Close()
	cur, ok := st.Get(*name)
	if !ok {
		fmt.Fprintf(errOut, "oracletenant: no stored tenant %q\n", *name)
		return 1
	}
	qf.apply(fs, &cur.Spec)
	if err := st.Put(cur); err != nil {
		fmt.Fprintf(errOut, "oracletenant: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "oracletenant: updated %q (generation %d)\n", *name, st.Generation())
	rf.trigger(out, errOut)
	return 0
}

func cmdRotate(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("oracletenant rotate", flag.ContinueOnError)
	fs.SetOutput(errOut)
	dir := fs.String("store", "", "tenant store directory")
	name := fs.String("name", "", "tenant name")
	key := fs.String("key", "", "new API key (at least 8 bytes)")
	overlap := fs.Duration("overlap", 15*time.Minute, "how long the old key stays valid alongside the new one (0 cuts over immediately)")
	var rf reloadFlags
	rf.register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	st, code := openStore(*dir, errOut)
	if st == nil {
		return code
	}
	defer st.Close()
	sp, err := st.Rotate(*name, *key, *overlap, time.Now())
	if err != nil {
		fmt.Fprintf(errOut, "oracletenant: %v\n", err)
		return 1
	}
	if sp.PrevKeyDigest != "" {
		fmt.Fprintf(out, "oracletenant: rotated %q, old key valid until %s (generation %d)\n",
			*name, sp.PrevKeyExpiry.Format(time.RFC3339), st.Generation())
	} else {
		fmt.Fprintf(out, "oracletenant: rotated %q, old key invalid immediately (generation %d)\n",
			*name, st.Generation())
	}
	rf.trigger(out, errOut)
	return 0
}

func cmdDel(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("oracletenant del", flag.ContinueOnError)
	fs.SetOutput(errOut)
	dir := fs.String("store", "", "tenant store directory")
	name := fs.String("name", "", "tenant name")
	var rf reloadFlags
	rf.register(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	st, code := openStore(*dir, errOut)
	if st == nil {
		return code
	}
	defer st.Close()
	if err := st.Delete(*name); err != nil {
		fmt.Fprintf(errOut, "oracletenant: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "oracletenant: deleted %q, usage ledger kept (generation %d)\n", *name, st.Generation())
	rf.trigger(out, errOut)
	return 0
}

func cmdReport(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("oracletenant report", flag.ContinueOnError)
	fs.SetOutput(errOut)
	dir := fs.String("store", "", "tenant store directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	st, code := openStore(*dir, errOut)
	if st == nil {
		return code
	}
	defer st.Close()
	ledgers := st.Ledgers()
	names := make([]string, 0, len(ledgers))
	for name := range ledgers {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "store %s: generation %d\n", st.Dir(), st.Generation())
	fmt.Fprintf(out, "%-20s %12s %12s %14s %14s\n", "tenant", "requests", "units", "queue_seconds", "bytes")
	for _, name := range names {
		l := ledgers[name]
		fmt.Fprintf(out, "%-20s %12d %12d %14.3f %14d\n",
			name, l.Requests, l.Units, l.QueueSeconds(), l.Bytes)
	}
	return 0
}

func cmdCompact(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("oracletenant compact", flag.ContinueOnError)
	fs.SetOutput(errOut)
	dir := fs.String("store", "", "tenant store directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	st, code := openStore(*dir, errOut)
	if st == nil {
		return code
	}
	defer st.Close()
	if err := st.Compact(); err != nil {
		fmt.Fprintf(errOut, "oracletenant: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "oracletenant: compacted %s (generation %d)\n", st.Dir(), st.Generation())
	return 0
}
