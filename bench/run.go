package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The four workloads. README.md says why each exists.
const (
	wJoinIntersects = "join_intersects"
	wJoinWithin     = "join_within"
	wServeScan      = "serve_scan"
	wServeHot       = "serve_hot"
)

var workloadNames = []string{wJoinIntersects, wJoinWithin, wServeScan, wServeHot}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	outDir   string
	record   string
}

// sizes are the fixed parameters of a run. Everything that is not the
// seed or the window length is a constant here, so two runs of one
// commit do the same work.
type sizes struct {
	sf    float64
	tiles int
	// bufferBytes is the page buffer of each tile's R*-tree, part of
	// the build configuration (see initSpec).
	bufferBytes int
	// setups is how many times the timed set-up runs; setup_s is the
	// median.
	setups int
	// scanCacheBytes is serve_scan's result-cache budget: small enough
	// that the warm-up fills it, so the measured window evicts on every
	// insertion.
	scanCacheBytes int64
	// hotPool is the number of distinct requests serve_hot draws from.
	hotPool int
	// traceOps is the fixed operation count of the traced pass.
	traceOps map[string]int
	// maxOps caps the measured window by count (quick mode only).
	maxOps int
}

func sizesFor(quick bool) sizes {
	if quick {
		return sizes{
			sf: 0.002, tiles: 4, bufferBytes: 8 << 10, setups: 1, scanCacheBytes: 64 << 10, hotPool: 48, maxOps: 48,
			traceOps: map[string]int{wJoinIntersects: 3, wJoinWithin: 3, wServeScan: 32, wServeHot: 32},
		}
	}
	return sizes{
		sf: 0.01, tiles: 4, bufferBytes: 32 << 10, setups: 3, scanCacheBytes: 2 << 20, hotPool: 1024,
		traceOps: map[string]int{wJoinIntersects: 24, wJoinWithin: 12, wServeScan: 2048, wServeHot: 4096},
	}
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the full output of one run: the metrics plus everything
// needed to judge whether two runs are comparable.
type record struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      int               `json:"trace"`
	Seconds    float64           `json:"seconds"`
	Quick      bool              `json:"quick,omitempty"`
	SF         float64           `json:"sf"`
	Objects    int               `json:"objects_per_side"`
	Tiles      int               `json:"tiles"`
	Clients    int               `json:"clients"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Source     string            `json:"bench_source"`
	LoadStart  string            `json:"loadavg_start"`
	LoadEnd    string            `json:"loadavg_end"`
	BusyStart  float64           `json:"others_busy_cpus_start"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	TracedOps  int               `json:"traced_ops,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Notes      []string          `json:"notes,omitempty"`
	Warnings   []string          `json:"warnings,omitempty"`
	Failures   []string          `json:"failures,omitempty"`
}

func (r *record) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail counts one failed operation and keeps the first few reasons.
func (r *record) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// run executes one workload and returns its record. It is the whole
// benchmark apart from flag parsing and printing, so the smoke test
// drives it directly.
func run(o options) (*record, error) {
	if !slices.Contains(workloadNames, o.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", o.workload, workloadNames)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	sz := sizesFor(o.quick)

	// min(nproc, 4) processors: the reference box has 2, and a wider
	// machine must not change what a run measures beyond recognition.
	nproc := runtime.NumCPU()
	procs := min(nproc, 4)
	runtime.GOMAXPROCS(procs)

	rec := &record{
		Workload: o.workload, Seed: o.seed, Trace: o.trace, Seconds: o.seconds, Quick: o.quick,
		SF: sz.sf, Tiles: sz.tiles,
		NProc: nproc, GOMAXPROCS: procs, GoVersion: runtime.Version(), Commit: buildCommit, Source: buildSource,
		LoadStart: loadavg(),
		Metrics:   map[string]metric{},
	}
	// The noise guard: a warning, never a failure. /proc/loadavg is
	// recorded, but its 1-minute average still carries the previous run
	// of a set a minute after that has ended, so the warning reads what
	// runs now: the processors other processes keep busy while this one
	// sleeps. (Smoke tests skip the sleep.)
	if !o.quick {
		rec.BusyStart = othersBusy(200 * time.Millisecond)
	}
	if rec.BusyStart > 0.25 {
		rec.Warnings = append(rec.Warnings,
			fmt.Sprintf("other processes keep %.2f of %d processors busy (load average %s): timings will be noisy", rec.BusyStart, nproc, rec.LoadStart))
	}

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.outDir, "stores-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	b := &bench{opt: o, sz: sz, rec: rec, scratch: scratch, procs: procs}
	if o.trace == 1 {
		err = b.runTraced()
	} else {
		err = b.runMeasured()
	}
	if err != nil {
		return nil, err
	}
	rec.LoadEnd = loadavg()
	return rec, nil
}

// buildCommit is the commit the binary was built from; bench/run.sh sets
// it with -ldflags when the checkout is a git repository (the driver's
// is not).
var buildCommit = "unknown"

// buildSource is a hash of this directory's sources, set by bench/run.sh
// the same way: two records are comparable only if it agrees, whatever
// commit of the system they measured.
var buildSource = "unknown"

func loadavg() string {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(raw))
}

// othersBusy sleeps for d and returns how many processors were busy
// meanwhile (from /proc/stat; 0 where that is unreadable). The benchmark
// itself is asleep, so it is the load of everything else.
func othersBusy(d time.Duration) float64 {
	read := func() (busy, total float64, ok bool) {
		raw, err := os.ReadFile("/proc/stat")
		if err != nil {
			return 0, 0, false
		}
		line, _, _ := strings.Cut(string(raw), "\n")
		f := strings.Fields(line)
		if len(f) < 5 || f[0] != "cpu" {
			return 0, 0, false
		}
		for i, field := range f[1:] {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return 0, 0, false
			}
			// Fields 4 and 5 are idle and iowait; guest time (9, 10) is
			// already counted in user and nice.
			if i < 8 {
				total += v
				if i != 3 && i != 4 {
					busy += v
				}
			}
		}
		return busy, total, true
	}
	b0, t0, ok0 := read()
	time.Sleep(d)
	b1, t1, ok1 := read()
	if !ok0 || !ok1 || t1 <= t0 {
		return 0
	}
	return (b1 - b0) / (t1 - t0) * float64(runtime.NumCPU())
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return err
	})
	return n, err
}
