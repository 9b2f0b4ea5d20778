// Command spatialjoinserve serves spatial queries over HTTP from a
// catalog of prebuilt relation stores — the "build once, serve many"
// deployment of the multi-step processor. Every request runs on its own
// per-query access context, so one process serves any number of
// concurrent join, window, point and nearest-neighbour queries, each
// response carrying the paper's per-step statistics for that query
// alone.
//
// Usage:
//
//	spatialjoinserve [-addr :8080] -rel name=path [-rel name=path ...]
//	                 [-engine trstar|planesweep|quadratic]
//	                 [-conservative 5C|RMBR|CH|4C|MBC|MBE] [-progressive MER|MEC]
//	                 [-no-filter] [-page 4096] [-buffer 131072] [-policy lru|fifo|clock]
//	                 [-cache-bytes 67108864]
//	                 [-drain 15s] [-timeout 0] [-max-timeout 0]
//	                 [-max-inflight 0] [-max-queue 0] [-queue-wait 100ms]
//	                 [-faults spec]
//	spatialjoinserve [-addr :8080] -demo 810
//
// A -rel path is a store directory (cmd/datagen -store, any -shards N);
// a single-file store or a store of another format version is refused
// and quarantined with a reason that says to rebuild it. The
// configuration flags must match the ones the stores were built with; a
// mismatch is rejected at startup via the stores' config fingerprint
// (manifest and every tile file). -demo skips the stores and serves a
// generated relation pair (demo-r, demo-s) instead — handy for a
// first run:
//
//	datagen -n 810 -store r.store && datagen -n 810 -strategy A -store s.store
//	spatialjoinserve -rel R=r.store -rel S=s.store &
//	curl 'localhost:8080/join?r=R&s=S&limit=3'
//
// Requests plan through the planner by default (see internal/serve); a
// request opts out with &plan=off and runs the build configuration
// verbatim. GET /explain reports the per-tile-pair plans without (or
// with run=1, alongside) executing the join.
//
// Responses are served through the multi-query execution layer
// (DESIGN.md §12): repeated requests answer from a fingerprint-keyed
// LRU cache (-cache-bytes budgets it; <=0 disables) and identical
// concurrent requests coalesce into one execution; any other join runs
// its own traversal at once. GET /stats reports the cache and
// coalesce counters, per-endpoint request counts with latency
// percentiles, and the process RSS.
//
// The server is resilient by configuration (DESIGN.md §14): -timeout /
// -max-timeout bound each query request server-side (requests may set
// ?timeout_ms=; a fired deadline answers 504), -max-inflight /
// -max-queue / -queue-wait shed excess load with 429 + Retry-After, a
// relation store that fails to open is quarantined (503 with the
// reason) while the healthy ones keep serving, and -faults (or
// $SPATIALJOIN_FAULTS) arms the deterministic fault-injection harness
// for chaos testing. GET /readyz reports readiness — 503 once draining
// begins or when nothing is loaded.
//
// The server shuts down gracefully: SIGINT or SIGTERM flips /readyz to
// draining, stops accepting new connections and lets in-flight queries
// finish (bounded by -drain) before exiting, so a load balancer
// rotating instances never sees mid-response resets.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"spatialjoin/internal/data"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/resilience/fault"
	"spatialjoin/internal/serve"
	"spatialjoin/internal/shard"
)

// relFlags collects repeated -rel name=path arguments in order.
type relFlags []struct{ name, path string }

func (r *relFlags) String() string {
	var parts []string
	for _, e := range *r {
		parts = append(parts, e.name+"="+e.path)
	}
	return strings.Join(parts, ",")
}

func (r *relFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*r = append(*r, struct{ name, path string }{name, path})
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	var rels relFlags
	flag.Var(&rels, "rel", "serve a relation store directory as name=path (repeatable)")
	demo := flag.Int("demo", 0, "serve a generated demo relation pair of this many objects instead of stores")
	seed := flag.Int64("seed", 9401, "with -demo: generation seed")
	config := multistep.ConfigFlags(flag.CommandLine)
	maxPairs := flag.Int("max-pairs", serve.DefaultMaxJoinPairs, "cap on join pairs returned inline per request")
	cacheBytes := flag.Int64("cache-bytes", serve.DefaultCacheBytes, "result/tile cache budget in bytes (<=0 disables caching)")
	drain := flag.Duration("drain", 15*time.Second, "how long to let in-flight requests drain on SIGINT/SIGTERM before closing connections")
	timeout := flag.Duration("timeout", 0, "default server-side deadline per query request (0 = none; requests may set ?timeout_ms=)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on every request deadline, default or ?timeout_ms= (0 = uncapped)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrently executing query requests (0 disables admission control)")
	maxQueue := flag.Int("max-queue", 0, "admission wait-queue bound beyond -max-inflight; excess requests are shed with 429")
	queueWait := flag.Duration("queue-wait", 100*time.Millisecond, "how long a queued request waits for a slot before being shed")
	faults := flag.String("faults", os.Getenv("SPATIALJOIN_FAULTS"),
		"arm fault injections, e.g. tile-query:error@5 (default $SPATIALJOIN_FAULTS; testing only)")
	flag.Parse()

	if err := fault.Arm(*faults); err != nil {
		fatal(err)
	}
	if fault.Enabled() {
		log.Printf("WARNING: fault injection armed (%q) — this server WILL fail requests on purpose", *faults)
	}

	cfg, err := config()
	if err != nil {
		fatal(err)
	}

	if len(rels) == 0 && *demo <= 0 {
		fatal(fmt.Errorf("nothing to serve: pass at least one -rel name=path, or -demo N"))
	}

	cat := serve.NewCatalog()
	for _, e := range rels {
		// A failed store does not take the server down: the name is
		// quarantined (answers 503 with the reason) and the healthy
		// relations keep serving.
		if err := cat.LoadDir(e.name, e.path, cfg); err != nil {
			log.Printf("QUARANTINED %q: %v", e.name, err)
			continue
		}
		entry, _ := cat.Get(e.name)
		pages := 0
		for _, t := range entry.Sh.Tiles {
			pages += t.Rel.Tree.Pages()
		}
		log.Printf("opened %s: relation %q, %d objects in %d tile(s), %d tree pages",
			e.path, e.name, entry.Sh.Objects(), entry.Sh.Shards(), pages)
	}
	if *demo > 0 {
		log.Printf("generating demo relations (%d objects each)...", *demo)
		rp := data.GenerateMap(data.MapConfig{Cells: *demo, TargetVerts: 84, HoleFraction: 0.06, Seed: *seed})
		sp := data.StrategyA(rp, 0.45)
		cat.Add("demo-r", shard.Build("demo-r", rp, 1, cfg))
		cat.Add("demo-s", shard.Build("demo-s", sp, 1, cfg))
		log.Printf("serving demo-r and demo-s")
	}

	srv := serve.NewServer(cat)
	srv.MaxJoinPairs = *maxPairs
	srv.CacheBytes = *cacheBytes
	srv.RequestTimeout = *timeout
	srv.MaxRequestTimeout = *maxTimeout
	srv.MaxInFlight = *maxInflight
	srv.MaxQueue = *maxQueue
	srv.QueueWait = *queueWait

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Graceful shutdown: on SIGINT/SIGTERM stop accepting connections,
	// let in-flight queries drain up to -drain, then exit. A second
	// signal aborts immediately (signal.NotifyContext restores the
	// default handler once the context fires).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	log.Printf("serving %d relation(s) on %s — try /healthz, /relations, /stats, /window, /point, /nearest, /join, /explain",
		len(cat.Names()), *addr)

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
		stop()
		// Flip readiness first so orchestrators stop routing here, then
		// drain: /readyz answers 503 while in-flight requests finish.
		srv.SetDraining(true)
		log.Printf("shutdown signal received; draining in-flight requests (up to %s)...", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("drain incomplete: %v; closing remaining connections", err)
			_ = httpSrv.Close()
			os.Exit(1)
		}
		log.Printf("shutdown complete")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "spatialjoinserve:", err)
	os.Exit(1)
}
