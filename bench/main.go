// Command bench is the repository benchmark named by BENCHMARK.json: one
// invocation builds a seeded scale-factor dataset, sets the system up,
// runs one of four closed-loop workloads for a fixed time, checks every
// answer against a brute-force oracle, and prints the metrics.
//
//	bench --workload join_intersects --seed 1 --seconds 15 --trace 0
//	bench --workload serve_scan --seed 1 --seconds 15 --trace 1
//	bench --compare A.jsonl B.jsonl
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off. With --trace 1 it replays a fixed number of operations
// stage by stage through the layers' public functions, records one span
// per call, and reports the per-layer metrics. README.md in this
// directory explains the workloads and the metric-to-layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	var o options
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the datasets, query positions and epsilon stream")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the stage replay")
	flag.BoolVar(&o.quick, "quick", false, "smoke-test sizes (SF 0.002, a few dozen operations)")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for span files and scratch stores")
	flag.StringVar(&o.record, "record", "", "append the full run record to this JSON-lines file")
	flag.BoolVar(&compare, "compare", false, "compare two run-record files: bench --compare A.jsonl B.jsonl")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark definition (metric names, units, bounds)")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("--compare takes two run-record files, got %d arguments", flag.NArg()))
		}
		ok, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	rec, err := run(o)
	if err != nil {
		fatal(err)
	}
	printRecord(rec)
	if o.record != "" {
		if err := appendRecord(o.record, rec); err != nil {
			fatal(err)
		}
	}
	// The last line of standard output is the result the driver reads.
	last, err := json.Marshal(result{
		Correct:   rec.Failed == 0,
		Attempted: rec.Attempted,
		Failed:    rec.Failed,
		Metrics:   rec.Metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(last))
	if rec.Failed != 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// result is the driver-facing last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printRecord lists every metric by name with its unit, then the run
// record and any failed checks.
func printRecord(rec *record) {
	fmt.Printf("workload %s  seed %d  trace %d  sf %g  ops %d  failed %d\n",
		rec.Workload, rec.Seed, rec.Trace, rec.SF, rec.Attempted, rec.Failed)
	fmt.Printf("nproc %d  GOMAXPROCS %d  %s  commit %s  bench source %s\n",
		rec.NProc, rec.GOMAXPROCS, rec.GoVersion, rec.Commit, rec.Source)
	fmt.Printf("loadavg %s -> %s  other processes kept %.2f processors busy at start\n",
		rec.LoadStart, rec.LoadEnd, rec.BusyStart)
	for _, w := range rec.Warnings {
		fmt.Println("warning:", w)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Printf("  %-36s %16.6f %s\n", n, m.Value, m.Unit)
	}
	for _, note := range rec.Notes {
		fmt.Println("  note:", note)
	}
	for _, f := range rec.Failures {
		fmt.Println("FAILED:", f)
	}
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
