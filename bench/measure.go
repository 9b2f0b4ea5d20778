package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"spatialjoin/internal/multistep"
	"spatialjoin/internal/shard"
)

// runMeasured is the --trace 0 run: build the stores, compute the
// oracle, time the set-up several times, then measure one closed-loop
// window with tracing off and check every answer.
func (b *bench) runMeasured() error {
	if err := b.initSpec(); err != nil {
		return err
	}
	w := b.opt.workload

	// join_intersects pays for the store build inside its timed set-up,
	// so preprocessing work shows in its setup_s; the other workloads
	// build once, untimed, and time only what a server start costs.
	if w != wJoinIntersects {
		if err := b.buildStores(); err != nil {
			return err
		}
	}
	var (
		sys     *system
		drv     driver
		orc     *oracle
		setupsS []float64
	)
	for i := 0; i < b.sz.setups; i++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		start := time.Now()
		if w == wJoinIntersects {
			if err := b.buildStores(); err != nil {
				return err
			}
		}
		var err error
		if sys, err = b.open(); err != nil {
			return err
		}
		ready := time.Since(start)
		// The oracle needs the opened geometry and the warm-up needs
		// the oracle (it checks what it inserts); its cost is excluded.
		if orc == nil {
			orc = newOracle(sys.r, sys.s, b.cfg.Filter, b.cell())
		}
		start = time.Now()
		drv = b.newDriver(sys, orc)
		if err := drv.warm(); err != nil {
			return err
		}
		setupsS = append(setupsS, (ready + time.Since(start)).Seconds())
	}
	defer sys.close()

	clients := drv.clients()
	b.rec.Clients = clients

	// The measured window: closed-loop clients until the deadline (or, at
	// smoke-test sizes, an operation count).
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(time.Duration(b.opt.seconds * float64(time.Second)))
	perClient := 0
	if b.sz.maxOps > 0 {
		perClient = max(b.sz.maxOps/clients, 1)
	}
	done := make([][]time.Duration, clients)
	errs := make([][]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline) && (perClient == 0 || i < perClient); i++ {
				lat, err := drv.op(c)
				done[c] = append(done[c], lat)
				if err != nil {
					errs[c] = append(errs[c], err)
				}
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	rss := peakRSSMB()

	var all []time.Duration
	for c := range done {
		all = append(all, done[c]...)
		for _, err := range errs[c] {
			b.rec.fail("%v", err)
		}
	}
	ops := len(all)
	if ops == 0 {
		return fmt.Errorf("%s: no operation completed in %v", w, wall)
	}
	b.rec.Attempted = int64(ops)
	// Checks that would disturb the window (linear scans) were deferred.
	for _, err := range drv.verify() {
		b.rec.fail("%v", err)
	}

	// One estimator on every workload: operations over wall time, and
	// percentiles of the whole window's latencies. (Medians of
	// one-second slices were tried and measured no steadier on the same
	// runs; see README.md, "Noise".)
	slices.Sort(all)
	_, tailNote := tail(w, all)
	n := float64(ops)
	sort.Float64s(setupsS)
	b.rec.set("setup_s", median(setupsS), "s")
	b.rec.set("throughput_ops_s", n/wall.Seconds(), "1/s")
	b.rec.set("latency_p50_ms", ms(quantile(all, 0.5)), "ms")
	b.rec.set("cpu_ms_per_op", ms(cpu)/n, "ms")
	b.rec.set("alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/n, "KiB")
	b.rec.set("peak_rss_mb", rss, "MiB")
	b.rec.set("success_ratio", 1-float64(b.rec.Failed)/n, "ratio")
	b.rec.Notes = append(b.rec.Notes,
		fmt.Sprintf("setup_s samples %v", setupsS),
		fmt.Sprintf("measured window %.3f s, %d operations, %d clients, closed loop", wall.Seconds(), ops, clients),
		tailNote)
	b.rec.Notes = append(b.rec.Notes, drv.notes()...)
	return nil
}

// tail reads latency_tail_ms from sorted latencies. The percentile is
// fixed per workload, so that it never changes with the machine's
// speed: p90 on the join workloads (hundreds to a few thousand
// operations a window), p99 on the serve workloads (tens of thousands).
// The note states the percentile, the sample count and how many samples
// lie beyond it; below ten the value is one slow outlier more than a
// measurement.
func tail(workload string, sorted []time.Duration) (time.Duration, string) {
	pct := 99
	if workload == wJoinIntersects || workload == wJoinWithin {
		pct = 90
	}
	i := min(pct*len(sorted)/100, len(sorted)-1)
	return sorted[i], fmt.Sprintf("latency_tail_ms is p%d = %.4f ms of %d samples, %d beyond it",
		pct, ms(sorted[i]), len(sorted), len(sorted)-1-i)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(sorted []float64) float64 {
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quantile reads the q-quantile of sorted samples (nearest rank).
func quantile(sorted []time.Duration, q float64) time.Duration {
	i := int(q * float64(len(sorted)))
	return sorted[min(i, len(sorted)-1)]
}

// driver is one workload's closed-loop client logic.
type driver interface {
	// clients is the number of concurrent callers (never above nproc).
	clients() int
	// warm runs the untimed-by-the-window warm-up; it is part of set-up.
	warm() error
	// op runs client c's next operation and returns its latency. The
	// error reports a failed or wrong operation.
	op(c int) (time.Duration, error)
	// verify runs the checks deferred out of the window.
	verify() []error
	notes() []string
}

func (b *bench) newDriver(sys *system, orc *oracle) driver {
	switch b.opt.workload {
	case wJoinIntersects:
		return &joinIntersects{sys: sys, want: orc.join(0)}
	case wJoinWithin:
		return &joinWithin{b: b, sys: sys, orc: orc, rng: rand.New(rand.NewSource(subSeed(b.opt.seed, 3)))}
	case wServeScan:
		return newServeScan(b, sys, orc)
	default:
		return newServeHot(b, sys, orc)
	}
}

// joinIntersects is the paper's workload: bare shard.Join calls under
// the build configuration with default workers, one caller.
type joinIntersects struct {
	sys *system
	// want is the oracle's answer. The bare join runs the build
	// configuration, filter on, so the filter's false hits (see oracle)
	// are all present and the expected pair set is exact.
	want *answer[multistep.Pair]
}

func (d *joinIntersects) clients() int    { return 1 }
func (d *joinIntersects) verify() []error { return nil }
func (d *joinIntersects) notes() []string {
	return []string{fmt.Sprintf("%d of the %d expected pairs are false hits of the filter", d.want.falseHits, len(d.want.items))}
}

func (d *joinIntersects) warm() error {
	for i := 0; i < 3; i++ {
		if _, err := d.op(0); err != nil {
			return err
		}
	}
	return nil
}

func (d *joinIntersects) op(int) (time.Duration, error) {
	start := time.Now()
	pairs, st, err := shard.Join(context.Background(), d.sys.r, d.sys.s)
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	return lat, checkJoin(pairs, st, d.want)
}

// checkJoin verifies a complete intersection-join response: cardinality
// and an order-independent hash of the pair set.
func checkJoin(pairs []multistep.Pair, st shard.JoinStats, want *answer[multistep.Pair]) error {
	if n := len(want.items); st.ResultPairs != int64(n) || len(pairs) != n || pairHash(pairs) != pairHash(want.items) {
		return fmt.Errorf("intersection join: %d pairs (stats %d), oracle %d, or different members", len(pairs), st.ResultPairs, n)
	}
	return nil
}

// joinWithin sends within-ε joins through the whole serving path, one
// client, every request with its own ε so that nothing is cached.
type joinWithin struct {
	b   *bench
	sys *system
	orc *oracle
	rng *rand.Rand
	// done keeps every response for the oracle check, which walks
	// 28 000 candidate pairs and so runs after the window has closed.
	done []withinResponse
}

type withinResponse struct {
	eps  float64
	body []byte
}

func (d *joinWithin) clients() int    { return 1 }
func (d *joinWithin) notes() []string { return nil }

func (d *joinWithin) warm() error {
	for i := 0; i < 2; i++ {
		if _, err := d.op(0); err != nil {
			return err
		}
	}
	errs := d.verify()
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

func (d *joinWithin) op(int) (time.Duration, error) {
	eps := withinEps(d.b.cell(), d.rng)
	path := d.sys.withinPath(eps)
	start := time.Now()
	body, err := d.sys.get(path)
	lat := time.Since(start)
	if err == nil {
		d.done = append(d.done, withinResponse{eps, body})
	}
	return lat, err
}

func (d *joinWithin) verify() []error {
	var errs []error
	for _, r := range d.done {
		if err := d.orc.checkJoinBody(r.body, r.eps, withinLimit, true); err != nil {
			errs = append(errs, err)
		}
	}
	d.done = nil
	return errs
}

// sampleEvery is the share of serve_scan operations checked against a
// linear scan: 1 in 64.
const sampleEvery = 64

// serveScan is the miss path: never-repeating single-relation requests
// against a cache smaller than the working set.
type serveScan struct {
	b       *bench
	sys     *system
	orc     *oracle
	streams []*queryStream
	// sampled keeps every 64th response for the deferred oracle check.
	sampled [][]sampledResponse
	cached  []int
}

type sampledResponse struct {
	q    query
	body []byte
}

func serveClients(procs int) int { return min(procs, 2) }

func newServeScan(b *bench, sys *system, orc *oracle) *serveScan {
	n := serveClients(b.procs)
	d := &serveScan{b: b, sys: sys, orc: orc, sampled: make([][]sampledResponse, n), cached: make([]int, n)}
	for c := 0; c < n; c++ {
		d.streams = append(d.streams, newQueryStream(b.spec, subSeed(b.opt.seed, 10+uint64(c))))
	}
	return d
}

func (d *serveScan) clients() int { return len(d.streams) }

// warm sends requests until the cache has started evicting, so the
// measured window runs in the steady state the workload is about.
func (d *serveScan) warm() error {
	for sent := 0; ; sent += 256 {
		for i := 0; i < 256; i++ {
			if _, err := d.op(0); err != nil {
				return err
			}
		}
		st, err := serverStats(d.sys)
		if err != nil {
			return err
		}
		if st.Cache.Evictions > 0 {
			d.sampled[0] = nil
			return nil
		}
		if sent > 1<<20 {
			return fmt.Errorf("serve_scan: no eviction after %d requests; cache of %d bytes too large", sent, st.Cache.MaxBytes)
		}
	}
}

func (d *serveScan) op(c int) (time.Duration, error) {
	qs := d.streams[c]
	q := qs.next()
	start := time.Now()
	body, err := d.sys.get(q.path)
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if isCached(body) {
		d.cached[c]++
	}
	if qs.n%sampleEvery == 0 {
		d.sampled[c] = append(d.sampled[c], sampledResponse{q, body})
	}
	return lat, nil
}

func (d *serveScan) verify() []error {
	var errs []error
	for c := range d.sampled {
		for _, s := range d.sampled[c] {
			if err := d.orc.checkQueryBody(s.q, s.body); err != nil {
				errs = append(errs, err)
			}
		}
		if d.cached[c] > 0 {
			errs = append(errs, fmt.Errorf("serve_scan: %d never-repeating requests were served from the cache", d.cached[c]))
		}
	}
	return errs
}

func (d *serveScan) notes() []string {
	n := 0
	for _, s := range d.sampled {
		n += len(s)
	}
	return []string{fmt.Sprintf("%d responses checked against a linear scan", n)}
}

// serveHot is the hit path: Zipf(1.1) draws from a pool of distinct
// requests that was inserted during set-up, so every measured request
// is answered from the result cache.
type serveHot struct {
	b     *bench
	sys   *system
	orc   *oracle
	pool  []string
	first []uint64 // hash of each pool entry's first response
	draws []*rand.Zipf
}

func newServeHot(b *bench, sys *system, orc *oracle) *serveHot {
	d := &serveHot{b: b, sys: sys, orc: orc}
	for c := 0; c < serveClients(b.procs); c++ {
		rng := rand.New(rand.NewSource(subSeed(b.opt.seed, 20+uint64(c))))
		d.draws = append(d.draws, rand.NewZipf(rng, 1.1, 1, uint64(b.sz.hotPool-1)))
	}
	return d
}

func (d *serveHot) clients() int    { return len(d.draws) }
func (d *serveHot) verify() []error { return nil }
func (d *serveHot) notes() []string { return nil }

// warm builds the pool — the flight's four joins at fixed ranks among
// seeded placements of the eight query shapes — and inserts every entry
// once. Those first responses are computed, so they are checked against
// the oracle where it has an answer, and their hashes become the
// reference of every later repeat.
func (d *serveHot) warm() error {
	d.pool, d.first = d.pool[:0], d.first[:0]
	qs := newQueryStream(d.b.spec, subSeed(d.b.opt.seed, 4))
	joins := joinRequests(d.b, d.sys)
	for len(d.pool) < d.b.sz.hotPool {
		rank := len(d.pool)
		// One join every 16 ranks near the head, so the popular end of
		// the Zipf draw mixes all twelve flight shapes whatever the seed.
		if rank%16 == 15 && rank/16 < len(joins) {
			j := joins[rank/16]
			body, err := d.sys.get(j.path)
			if err != nil {
				return err
			}
			if j.eps >= 0 {
				if err := d.orc.checkJoinBody(body, j.eps, 10, false); err != nil {
					return err
				}
			}
			d.pool, d.first = append(d.pool, j.path), append(d.first, bodyHash(body))
			continue
		}
		q := qs.next()
		body, err := d.sys.get(q.path)
		if err != nil {
			return err
		}
		if rank%sampleEvery == 0 {
			if err := d.orc.checkQueryBody(q, body); err != nil {
				return err
			}
		}
		d.pool, d.first = append(d.pool, q.path), append(d.first, bodyHash(body))
	}
	return nil
}

func (d *serveHot) op(c int) (time.Duration, error) {
	i := d.draws[c].Uint64()
	start := time.Now()
	body, err := d.sys.get(d.pool[i])
	lat := time.Since(start)
	if err != nil {
		return lat, err
	}
	if !isCached(body) {
		return lat, fmt.Errorf("serve_hot: pool entry %d was not served from the cache", i)
	}
	if bodyHash(body) != d.first[i] {
		return lat, fmt.Errorf("serve_hot: pool entry %d differs from its first response", i)
	}
	return lat, nil
}
