// Command loadtest drives a live spatialjoinserve with the fixed
// scale-factor query flight of internal/loadgen and reports QPS and
// latency percentiles per query class.
//
// Usage:
//
//	loadtest -base http://127.0.0.1:8080 -sf 1
//	         [-mode closed|open] [-rate 50] [-workers 4] [-mix uniform|zipf]
//	         [-warmup 2s] [-duration 10s] [-seed 1]
//
// The server must already expose the two relations of the scale-factor
// dataset (sf1-R and sf1-S for -sf 1), built by cmd/datagen -sf:
//
//	datagen -sf 1 -side R -shards 8 -store sf1-R.store
//	datagen -sf 1 -side S -shards 8 -store sf1-S.store
//	spatialjoinserve -rel sf1-R=sf1-R.store -rel sf1-S=sf1-S.store &
//	loadtest -base http://127.0.0.1:8080 -sf 1 -workers 4 -duration 30s
//
// Before measuring, the harness calibrates: every query of the flight
// runs once and its response cardinality is recorded; during the run,
// every response is checked against it, so a load test is also a
// continuous correctness assertion. Closed mode runs -workers clients
// back to back; open mode fires requests at -rate per second and
// measures from the intended start time, so queueing delay at a
// saturated server shows up in the percentiles instead of silently
// thinning the arrival stream (no coordinated omission).
//
// The full report is printed as JSON on stdout; the exit status is
// non-zero on any request error or cardinality mismatch. Measurements
// that are compared across commits come from the repository benchmark
// (bench/README.md), not from here.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"spatialjoin/internal/loadgen"
	"spatialjoin/internal/mqe"
)

func main() {
	base := flag.String("base", "http://127.0.0.1:8080", "server base URL")
	sf := flag.Float64("sf", 0.01, "scale factor of the dataset the server exposes")
	mode := flag.String("mode", "closed", "load loop: closed (workers back to back) or open (fixed arrival rate)")
	rate := flag.Float64("rate", 0, "open mode: target arrival rate in requests/second")
	workers := flag.Int("workers", 4, "closed mode: concurrent clients")
	mix := flag.String("mix", "uniform", "query mix: uniform or zipf (skewed toward cheap queries)")
	warmup := flag.Duration("warmup", 2*time.Second, "unmeasured warm-up before the window")
	duration := flag.Duration("duration", 10*time.Second, "measured window")
	seed := flag.Int64("seed", 1, "request-sequence seed")
	flag.Parse()

	spec, err := loadgen.For(*sf)
	if err != nil {
		fatal(err)
	}
	flight := loadgen.NewFlight(spec)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := &http.Client{}
	cacheOn, err := serverCacheOn(ctx, client, *base)
	if err != nil {
		fatal(fmt.Errorf("server not reachable at %s: %w", *base, err))
	}
	fmt.Fprintf(os.Stderr, "loadtest: calibrating %d queries against %s (SF=%g, cache %s)...\n",
		len(flight.Queries), *base, *sf, onOff(cacheOn))
	if err := flight.Calibrate(ctx, client, *base); err != nil {
		fatal(err)
	}
	for _, q := range flight.Queries {
		fmt.Fprintf(os.Stderr, "loadtest:   %-18s expect %d\n", q.Name, q.Expected)
	}

	rep, err := loadgen.Run(ctx, flight, loadgen.Options{
		BaseURL:  *base,
		Workers:  *workers,
		Mode:     *mode,
		RateQPS:  *rate,
		Mix:      *mix,
		Warmup:   *warmup,
		Duration: *duration,
		Seed:     *seed,
	})
	if err != nil {
		fatal(err)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fatal(err)
	}
	if rep.Overall.Shed+rep.Overall.TimedOut+rep.Overall.Degraded > 0 {
		fmt.Fprintf(os.Stderr, "loadtest: resilience outcomes: %d shed (429), %d timed out (504), %d degraded of %d requests\n",
			rep.Overall.Shed, rep.Overall.TimedOut, rep.Overall.Degraded, rep.Overall.Requests)
	}
	if rep.Overall.Errors > 0 {
		fmt.Fprintf(os.Stderr, "loadtest: %d/%d requests errored (samples: %v)\n",
			rep.Overall.Errors, rep.Overall.Requests, rep.ErrorSamples)
	}

	if rep.Overall.Errors > 0 {
		os.Exit(1)
	}
}

// serverCacheOn probes GET /stats for whether the server's result cache
// has a budget.
func serverCacheOn(ctx context.Context, client *http.Client, base string) (bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return false, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	var v struct {
		Cache mqe.CacheStats `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return false, err
	}
	return v.Cache.MaxBytes > 0, nil
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadtest:", err)
	os.Exit(1)
}
