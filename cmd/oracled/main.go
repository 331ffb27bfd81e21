// Command oracled serves this repository's oracle constructions and
// simulation engines as a long-running HTTP/JSON daemon:
//
//	POST /v1/advice                generate an instance, run an oracle, report advice sizes
//	POST /v1/run                   one task/oracle/scheduler simulation (oraclesim as an API)
//	POST /v1/shard                 execute a contiguous unit range of a campaign spec
//	POST /v1/admin/tenants/reload  rebuild the tenant table from its store (admin key)
//	GET  /v1/admin/tenants         the live tenant table and usage ledgers (admin key)
//	GET  /healthz                  liveness and load snapshot
//	GET  /metrics                  Prometheus text-format metrics
//
// To run a whole campaign on one daemon, point oracleherd at it
// (oracleherd -workers URL); the merged artifact is resumable and equals
// a local `campaign run` after `campaign canon`.
//
// Load is bounded end to end: simulation requests pass through a fixed-size
// work queue (full queue: 503 + Retry-After), every request carries a
// deadline (expiry: 504), and request sizes are capped. On SIGINT/SIGTERM
// the daemon stops accepting connections and drains in-flight requests up
// to -drain before exiting.
//
// With -join URL the daemon joins that oracleherd's elastic fleet and
// re-joins every -heartbeat; each re-join is its heartbeat (docs/FLEET.md).
//
// Without -tenant-store the daemon serves anonymously. With -tenant-store
// DIR it serves the tenants of a durable store that oracletenant
// administers (a JSON keyfile moves in with `oracletenant import`), and
// tenant policy reloads on SIGHUP or POST /v1/admin/tenants/reload.
//
// With -pprof addr, net/http/pprof is served on a separate listener (keep
// it on localhost) so serve-path profiles can be captured under load
// without exposing the profile endpoints on the service port.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"oraclesize/internal/catalog"
	"oraclesize/internal/membership"
	"oraclesize/internal/service"
	"oraclesize/internal/tenant"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// advertiseFromAddr derives the base URL a coordinator can reach this
// daemon at from the listen address: ":8080" becomes
// "http://127.0.0.1:8080", "10.0.0.5:8080" is used as-is. Multi-host
// deployments should pass -advertise explicitly. scheme is "http" or
// "https" depending on whether the daemon serves TLS.
func advertiseFromAddr(addr, scheme string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return scheme + "://" + addr
	}
	if host == "" || host == "::" || host == "0.0.0.0" {
		host = "127.0.0.1"
	}
	return scheme + "://" + net.JoinHostPort(host, port)
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("oracled", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		workers     = fs.Int("workers", 0, "simulation workers (0 = GOMAXPROCS)")
		queue       = fs.Int("queue", 64, "work queue depth; a full queue sheds load with 503")
		timeout     = fs.Duration("timeout", 30*time.Second, "per-request deadline (queue wait + execution)")
		drain       = fs.Duration("drain", 15*time.Second, "graceful shutdown drain budget")
		maxNodes    = fs.Int("max-nodes", 4096, "largest accepted n")
		maxEdges    = fs.Int("max-edges", 1<<20, "largest accepted instance edge count")
		cache       = fs.Int("cache", 128, "instance cache capacity (entries)")
		shardUnits  = fs.Int("max-shard-units", 1<<10, "largest unit batch accepted by POST /v1/shard")
		respCap     = fs.Int("response-cache", 0, "response cache capacity in entries (0 = default 4096, negative disables)")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
		joinURL     = fs.String("join", "", "register with this oracleherd fleet endpoint (its -listen address) and re-join every -heartbeat until shutdown")
		advertise   = fs.String("advertise", "", "base URL the coordinator should dispatch to (default derived from -addr)")
		heartbeat   = fs.Duration("heartbeat", 2*time.Second, "re-join cadence when -join is set: each re-join is the member's heartbeat")
		tenantDir   = fs.String("tenant-store", "", "durable tenant store directory (snapshot + WAL), administered with oracletenant: API-key auth, per-tenant quotas, weighted-fair scheduling, key rotation and persistent usage ledgers; SIGHUP and POST /v1/admin/tenants/reload fold in its changes (empty = serve anonymously)")
		tlsCert     = fs.String("tls-cert", "", "serve TLS with this certificate (PEM); also presented as client identity to the coordinator")
		tlsKey      = fs.String("tls-key", "", "private key for -tls-cert")
		tlsClientCA = fs.String("tls-client-ca", "", "require client certificates signed by this CA (mutual TLS)")
		tlsCA       = fs.String("tls-ca", "", "trust coordinator certificates signed by this CA when joining over https")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Tenancy is one store: -tenant-store opens a durable one; without it
	// the store is empty and in memory, and the daemon serves anonymously.
	store := tenant.NewMemStore()
	if *tenantDir != "" {
		st, err := tenant.OpenStore(*tenantDir)
		if err != nil {
			fmt.Fprintf(errOut, "oracled: %v\n", err)
			return 2
		}
		defer st.Close()
		store = st
	}

	svc, err := service.New(service.Config{
		Workers:               *workers,
		QueueDepth:            *queue,
		RequestTimeout:        *timeout,
		MaxNodes:              *maxNodes,
		MaxEdges:              *maxEdges,
		CacheCapacity:         *cache,
		MaxShardUnits:         *shardUnits,
		ResponseCacheCapacity: *respCap,
		TenantStore:           store,
	})
	if err != nil {
		fmt.Fprintf(errOut, "oracled: %v\n", err)
		return 2
	}
	if n := store.Len(); n > 0 {
		fmt.Fprintf(out, "oracled: multi-tenant mode, %d tenants (generation %d)\n", n, svc.TenantGeneration())
	} else if *tenantDir != "" {
		fmt.Fprintf(out, "oracled: tenant store %s is empty, serving anonymously until a reload\n", *tenantDir)
	}

	// SIGHUP hot-reloads tenant policy without dropping in-flight requests:
	// the store folds in what other processes appended. Errors keep the
	// running table untouched.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for range hup {
			gen, n, err := svc.ReloadFromStore()
			if err != nil {
				fmt.Fprintf(errOut, "oracled: SIGHUP reload: %v (keeping current tenants)\n", err)
				continue
			}
			fmt.Fprintf(out, "oracled: SIGHUP reload: %d tenants, generation %d\n", n, gen)
		}
	}()

	if *pprofAddr != "" {
		// Profiles ride a separate listener so they can stay bound to
		// localhost while the service port is public, and so profile
		// scrapes never compete with serving for the main mux.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{Addr: *pprofAddr, Handler: pm, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(errOut, "oracled: pprof listener: %v\n", err)
			}
		}()
		defer pprofSrv.Close()
		fmt.Fprintf(out, "oracled pprof on %s\n", *pprofAddr)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	scheme := "http"
	if *tlsCert != "" {
		tlsCfg, err := tenant.ServerTLS(*tlsCert, *tlsKey, *tlsClientCA)
		if err != nil {
			fmt.Fprintf(errOut, "oracled: %v\n", err)
			return 2
		}
		httpSrv.TLSConfig = tlsCfg
		scheme = "https"
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() {
		if scheme == "https" {
			serveErr <- httpSrv.ListenAndServeTLS("", "")
		} else {
			serveErr <- httpSrv.ListenAndServe()
		}
	}()
	fmt.Fprintf(out, "oracled listening on %s (%s)\n", *addr, scheme)

	// With -join the daemon is an elastic fleet member: it joins with its
	// load signals every -heartbeat, which also re-registers it if evicted.
	// The agent outlives the listener during shutdown so the final joins
	// carry the draining flag, then deregisters cleanly.
	var agent *membership.Agent
	agentCtx, agentStop := context.WithCancel(context.Background())
	defer agentStop()
	agentDone := make(chan error, 1)
	if *joinURL != "" {
		id := *advertise
		if id == "" {
			id = advertiseFromAddr(*addr, scheme)
		}
		agent = &membership.Agent{
			Coordinator: strings.TrimRight(*joinURL, "/"),
			ID:          id,
			Fingerprint: catalog.Fingerprint(),
			Build:       service.Build(),
			Interval:    *heartbeat,
			Report: func() membership.Heartbeat {
				depth, unitSec, draining := svc.FleetReport()
				return membership.Heartbeat{
					QueueDepth:  depth,
					UnitSeconds: unitSec,
					Draining:    draining,
				}
			},
			Logf: func(format string, a ...any) { fmt.Fprintf(errOut, format+"\n", a...) },
		}
		if *tlsCA != "" || *tlsCert != "" {
			// Joining an mTLS coordinator: trust its CA and present our own
			// certificate as client identity on every join and leave.
			clientCfg, err := tenant.ClientTLS(*tlsCert, *tlsKey, *tlsCA)
			if err != nil {
				fmt.Fprintf(errOut, "oracled: %v\n", err)
				return 2
			}
			agent.Client = &http.Client{
				Timeout:   5 * time.Second,
				Transport: &http.Transport{TLSClientConfig: clientCfg},
			}
		}
		go func() { agentDone <- agent.Run(agentCtx) }()
		fmt.Fprintf(out, "oracled joining fleet %s as %s\n", *joinURL, id)
	}

	select {
	case <-ctx.Done():
		// Graceful drain: advertise the drain first so re-joins and
		// health probes flip to draining (the coordinator stops handing us
		// leases instead of evicting us), then stop accepting connections,
		// let in-flight requests finish, retire the worker set, and finally
		// deregister from the fleet.
		fmt.Fprintf(out, "oracled: signal received, draining (budget %s)\n", *drain)
		svc.BeginDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(errOut, "oracled: drain incomplete: %v\n", err)
		}
		svc.Stop()
		if agent != nil {
			leaveCtx, leaveCancel := context.WithTimeout(context.Background(), 5*time.Second)
			if err := agent.Leave(leaveCtx); err != nil {
				fmt.Fprintf(errOut, "oracled: fleet leave: %v\n", err)
			}
			leaveCancel()
			agentStop()
			<-agentDone
		}
		fmt.Fprintln(out, "oracled: drained cleanly")
		return 0
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(errOut, "oracled: %v\n", err)
			return 1
		}
		return 0
	}
}
