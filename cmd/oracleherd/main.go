// Command oracleherd fans a campaign sweep out over a fleet of oracled
// workers (see internal/cluster). It compiles the spec into deterministic
// unit shards, leases them to workers over POST /v1/shard, and merges the
// results into the same resumable JSONL artifact a local `campaign run`
// writes — byte-identical apart from wall_ns.
//
//	oracleherd -workers http://a:8080,http://b:8080 (-quick | -spec spec.json)
//	           -out results.jsonl [-resume] [-seed S]
//	           [-shard-min 4] [-shard-max 512] [-shard-target 2s]
//	           [-slots 2] [-lease 2m] [-hedge-after 30s]
//	           [-retries 8] [-metrics :9090]
//	           [-listen :8090] [-member-ttl 10s] [-target-makespan 0]
//	           [-api-key KEY] [-tls-cert c.pem -tls-key k.pem]
//	           [-tls-ca ca.pem] [-tls-client-ca ca.pem]
//
// One oracleherd drives one campaign. To run several over one fleet, start
// one oracleherd per campaign and give each a -slots share in proportion to
// its weight.
//
// With -listen the fleet is elastic: oracled workers self-register over
// POST /v1/fleet/join (oracled -join), re-joining as their heartbeat, into
// the coordinator's own fleet, the one table that both lists members and
// hands out leases.
// Joins admit workers before or during the campaign; a member silent past
// -member-ttl is probed over /healthz and, unless it answers, evicted with
// its leases requeued immediately; a draining worker keeps its leases but
// is handed no new ones. -workers may then be empty — the run waits for
// members. GET /v1/fleet lists members plus the autoscaling advice for
// -target-makespan, for an external provisioner to act on. See
// docs/FLEET.md.
//
// Multi-tenant fleets (oracled -tenant-store) meter the coordinator like any
// other tenant: -api-key rides every dispatch and fleet call as X-API-Key.
// With -tls-cert/-tls-key the coordinator presents a client certificate to
// mTLS workers (trusting -tls-ca) and, under -listen, serves the fleet
// endpoint over TLS — add -tls-client-ca to require joining workers to
// present certificates of their own. Each worker reloads its own tenant
// policy (SIGHUP or POST /v1/admin/tenants/reload); the coordinator does
// not distribute it. See docs/TENANCY.md.
//
// To run a campaign on a single oracled, pass that daemon alone as
// -workers; the artifact is the same as a local `campaign run` writes.
//
// Shard sizes adapt by default: the coordinator tracks an EWMA of each
// worker's per-unit service time and carves leases aiming at -shard-target
// of work, clamped to [-shard-min, -shard-max] and shrunk near the
// campaign tail so no worker holds a long lease while others idle. When
// every task of the spec has the same scheme count, adaptive carving also
// hands a worker the same ranges of the later task grids, which run on
// the instances it just built (see docs/CLUSTER.md). Set -shard-min and
// -shard-max equal to pin every shard at that size.
//
// The fleet may be unreliable: failed dispatches retry with backoff
// honoring Retry-After, repeatedly failing workers are circuit-broken,
// expired leases are reassigned, and stragglers are hedged to idle workers
// with duplicate results dropped by the idempotent merge. With -metrics,
// the coordinator serves its own Prometheus page while the run is active.
//
// Finished units waiting for a lower-indexed one are journaled to
// results.jsonl.pending (see campaign.Sink). -resume opens the artifact
// and its journal through campaign.OpenJSONL, as `campaign resume` does.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"oraclesize/internal/campaign"
	"oraclesize/internal/cluster"
	"oraclesize/internal/membership"
	"oraclesize/internal/tenant"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("oracleherd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		workers     = fs.String("workers", "", "comma-separated oracled base URLs (optional with -listen)")
		quick       = fs.Bool("quick", false, "use the built-in quick smoke spec")
		resume      = fs.Bool("resume", false, "resume the artifact: dispatch only the units it is missing")
		seed        = fs.Int64("seed", 0, "override the spec seed")
		shardMin    = fs.Int("shard-min", 4, "adaptive sizing: smallest shard carved (also the first probe lease); equal to -shard-max pins a fixed size")
		shardMax    = fs.Int("shard-max", 512, "adaptive sizing: largest shard carved")
		shardTarget = fs.Duration("shard-target", 2*time.Second, "adaptive sizing: wall-clock of work to aim at per lease")
		slots       = fs.Int("slots", 2, "shards leased to one worker at a time; concurrent campaigns split the fleet in proportion to their -slots")
		lease       = fs.Duration("lease", 2*time.Minute, "per-shard lease; an expired lease is reassigned")
		hedgeAfter  = fs.Duration("hedge-after", 30*time.Second, "re-dispatch a shard in flight this long (negative disables)")
		retries     = fs.Int("retries", 8, "per-shard failed dispatches before the run fails; 503 and 429 sheds are not counted")
		metrics     = fs.String("metrics", "", "serve coordinator Prometheus metrics on this address")
		listen      = fs.String("listen", "", "serve the elastic fleet endpoints (/v1/fleet*, combined /metrics) on this address; workers join with oracled -join")
		memberTTL   = fs.Duration("member-ttl", 10*time.Second, "evict a fleet member this long after its last join (its heartbeat)")
		targetSpan  = fs.Duration("target-makespan", 0, "autoscaling advisor target for the remaining campaign (0 disables the recommendation)")
		apiKey      = fs.String("api-key", "", "tenant API key sent as X-API-Key on every worker call (multi-tenant oracled)")
		tlsCert     = fs.String("tls-cert", "", "client certificate presented to mTLS workers; with -listen, also serves the fleet endpoint over TLS")
		tlsKey      = fs.String("tls-key", "", "private key for -tls-cert")
		tlsCA       = fs.String("tls-ca", "", "trust worker certificates signed by this CA when dispatching and probing over https")
		tlsClientCA = fs.String("tls-client-ca", "", "with -listen: require joining workers to present client certificates signed by this CA")
	)
	var specPath, outPath string
	fs.Func("spec", "campaign spec file (JSON)", setOnce(&specPath))
	fs.Func("out", "merged results JSONL file (required)", setOnce(&outPath))
	if err := fs.Parse(args); err != nil {
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *workers == "" && *listen == "" {
		fmt.Fprintln(errOut, "oracleherd: need -workers, -listen, or both")
		return 2
	}
	if *listen == "" {
		for _, name := range []string{"member-ttl", "target-makespan", "tls-client-ca"} {
			if set[name] {
				fmt.Fprintf(errOut, "oracleherd: -%s requires -listen\n", name)
				return 2
			}
		}
	}
	if outPath == "" {
		fmt.Fprintln(errOut, "oracleherd: -out is required")
		return 2
	}
	var urls []string
	for _, u := range strings.Split(*workers, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}

	// One client serves every worker-bound call (dispatches and /healthz
	// probes): plain HTTP by default, mTLS when the certificate flags are
	// set. Each call is bounded by its own context (lease or probe
	// timeout), so the client sets no global timeout.
	httpClient := &http.Client{}
	if *tlsCA != "" || *tlsCert != "" {
		clientCfg, err := tenant.ClientTLS(*tlsCert, *tlsKey, *tlsCA)
		if err != nil {
			fmt.Fprintf(errOut, "oracleherd: %v\n", err)
			return 2
		}
		httpClient.Transport = &http.Transport{TLSClientConfig: clientCfg}
	}

	var spec *campaign.Spec
	switch {
	case specPath != "":
		s, err := campaign.LoadSpec(specPath)
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		spec = s
	case *quick:
		spec = campaign.QuickSpec()
	default:
		fmt.Fprintln(errOut, "oracleherd: need -spec file or -quick")
		return 2
	}
	if set["seed"] {
		spec.Seed = *seed
	}

	// The artifact opens exactly as under `campaign run|resume`: the same
	// helper loads the done set and the journaled units, refuses another
	// spec's artifact, and drops a torn tail.
	sink, done, err := campaign.OpenJSONL(outPath, spec, *resume)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	defer sink.Close()

	coord, err := cluster.New(cluster.Config{
		Workers:             urls,
		Elastic:             *listen != "",
		MinShardSize:        *shardMin,
		MaxShardSize:        *shardMax,
		TargetShardDuration: *shardTarget,
		Slots:               *slots,
		LeaseTimeout:        *lease,
		HedgeAfter:          *hedgeAfter,
		MaxAttempts:         *retries,
		MemberTTL:           *memberTTL,
		Client:              httpClient,
		APIKey:              *apiKey,
		Logf:                func(format string, a ...any) { fmt.Fprintf(errOut, format+"\n", a...) },
	}, spec, sink, done)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}

	// The elastic fleet endpoint: workers self-register over
	// POST /v1/fleet/join straight into the coordinator's fleet and re-join
	// as their heartbeat (a join admits the worker mid-run, a draining
	// report stops new leases, a leave requeues its leases at once), a
	// sweeper evicts members whose joins stop, and the advisor recommends a
	// fleet size for -target-makespan, for an external provisioner.
	fleetCtx, fleetStop := context.WithCancel(context.Background())
	defer fleetStop()
	if *listen != "" {
		advise := func() membership.Advice {
			core := coord.Core()
			backlog, unitSec := core.Backlog(), core.MeanUnitSeconds()
			a := membership.Advice{BacklogUnits: backlog, UnitSeconds: unitSec}
			if *targetSpan > 0 {
				a.TargetSeconds = targetSpan.Seconds()
				a.RecommendedWorkers = membership.Recommend(backlog, unitSec, *targetSpan, 1, 0)
			}
			return a
		}
		fleetSrv := &membership.Server{Fleet: coord, Advise: advise}
		mux := http.NewServeMux()
		fleetSrv.Routes(mux)
		mux.Handle("GET /metrics", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			coord.Metrics().ServeHTTP(w, r)
			fleetSrv.WriteMetrics(w)
		}))
		fsrv := &http.Server{Addr: *listen, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		serveFleet := fsrv.ListenAndServe
		fleetScheme := "http"
		if *tlsCert != "" {
			// The fleet endpoint mirrors the workers' transport security:
			// serve TLS with the coordinator's certificate, and with a
			// client CA demand that joining workers prove their identity.
			srvCfg, err := tenant.ServerTLS(*tlsCert, *tlsKey, *tlsClientCA)
			if err != nil {
				fmt.Fprintf(errOut, "oracleherd: %v\n", err)
				return 2
			}
			fsrv.TLSConfig = srvCfg
			serveFleet = func() error { return fsrv.ListenAndServeTLS("", "") }
			fleetScheme = "https"
		}
		go func() {
			if err := serveFleet(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(errOut, "oracleherd: fleet server: %v\n", err)
			}
		}()
		defer fsrv.Close()
		fmt.Fprintf(errOut, "oracleherd: fleet endpoint on %s (%s, member TTL %s)\n", *listen, fleetScheme, *memberTTL)

		sweepEvery := *memberTTL / 2
		if sweepEvery <= 0 {
			sweepEvery = time.Second
		}
		go func() {
			t := time.NewTicker(sweepEvery)
			defer t.Stop()
			for {
				select {
				case <-fleetCtx.Done():
					return
				case <-t.C:
					coord.Sweep(fleetCtx)
				}
			}
		}()
	}

	if *metrics != "" {
		mux := http.NewServeMux()
		mux.Handle("GET /metrics", coord.Metrics())
		msrv := &http.Server{Addr: *metrics, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(errOut, "oracleherd: metrics server: %v\n", err)
			}
		}()
		defer msrv.Close()
		fmt.Fprintf(errOut, "oracleherd: metrics on %s\n", *metrics)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	stats, err := coord.Run(ctx)
	if err == nil {
		err = sink.Close()
	}
	if err != nil {
		// The artifact still holds a valid prefix, and the journal the
		// finished units after it; -resume completes it.
		fmt.Fprintln(errOut, err)
		return 1
	}
	fmt.Fprintf(errOut, "oracleherd %s %s: %d units in %d shards (%d resumed), sizes %d/%d/%d min/med/max, %d records, %d retries, %d hedges, %d reassignments, %d dedup drops, wall %v\n",
		spec.Name, spec.Hash(), stats.Units, stats.Shards, stats.Skipped,
		stats.ShardSizeMin, stats.ShardSizeMedian, stats.ShardSizeMax, stats.Records,
		stats.Retries, stats.Hedges, stats.Reassignments, stats.DedupDropped,
		time.Since(start).Round(time.Millisecond))
	names := make([]string, 0, len(stats.WorkerShards))
	for u := range stats.WorkerShards {
		names = append(names, u)
	}
	sort.Strings(names)
	for _, u := range names {
		fmt.Fprintf(out, "  %s: %d shards\n", u, stats.WorkerShards[u])
	}
	return 0
}

// setOnce returns a flag setter that refuses a second value: oracleherd
// drives exactly one campaign and writes exactly one artifact.
func setOnce(dst *string) func(string) error {
	given := false
	return func(v string) error {
		if given {
			return errors.New("given twice: oracleherd drives one campaign; run one oracleherd per campaign, with -slots split by weight")
		}
		*dst, given = v, true
		return nil
	}
}
