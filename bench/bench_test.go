package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// quickRun runs one workload at smoke-test sizes.
func quickRun(t *testing.T, workload string, trace int, out string) *record {
	t.Helper()
	rec, err := run(options{workload: workload, seed: 7, seconds: 0.5, trace: trace, quick: true, outDir: out})
	if err != nil {
		t.Fatalf("%s trace %d: %v", workload, trace, err)
	}
	if rec.Failed != 0 {
		t.Fatalf("%s trace %d: %d of %d operations failed their check: %v", workload, trace, rec.Failed, rec.Attempted, rec.Failures)
	}
	if rec.Attempted < 1 {
		t.Fatalf("%s trace %d: no operation attempted", workload, trace)
	}
	return rec
}

// TestSmoke runs all four workloads, measured and traced, at -quick
// sizes and holds the output to the contract of BENCHMARK.json.
func TestSmoke(t *testing.T) {
	def, err := readDefinition(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(def.Workloads), len(workloadNames))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	out := t.TempDir()

	// Counts of the single-caller workloads must repeat exactly.
	exact := []string{"rstar.candidates_per_op", "exact.tests_per_op", "storage.page_accesses_per_op", "shard.subjoins_per_op"}

	for i, wl := range def.Workloads {
		if wl.Name != workloadNames[i] {
			t.Fatalf("BENCHMARK.json workload %d is %q, the benchmark has %q", i, wl.Name, workloadNames[i])
		}
		for trace, defs := range [][]metricDef{def.EndToEnd, def.PerLayer} {
			rec := quickRun(t, wl.Name, trace, out)
			if len(rec.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics emitted, BENCHMARK.json names %d", wl.Name, trace, len(rec.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rec.Metrics[d.Name]
				switch {
				case !nameRE.MatchString(d.Name):
					t.Errorf("metric name %q breaks the naming rule", d.Name)
				case !ok:
					t.Errorf("%s trace %d: metric %s not emitted", wl.Name, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", wl.Name, d.Name, m.Unit, d.Unit)
				case trace == 0 && !(m.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, d.Name, m.Value)
				}
			}
			if trace == 0 {
				continue
			}
			layers := checkSpans(t, filepath.Join(out, "trace-"+wl.Name+".json"))
			if wl.Name == wJoinIntersects {
				// The three steps and the two self times account for the
				// traced shard.Join time.
				sum := 0.0
				for _, name := range []string{"rstar.join_ms_per_op", "approx.filter_ms_per_op", "trstar.exact_ms_per_op",
					"multistep.join_self_ms_per_op", "shard.join_self_ms_per_op"} {
					sum += rec.Metrics[name].Value
				}
				traced := ms(layers[spShardJoin].total) / float64(rec.TracedOps)
				if math.Abs(sum-traced) > 0.05*traced {
					t.Errorf("join_intersects: step and self times sum to %.3f ms per op, the traced shard.Join takes %.3f ms", sum, traced)
				}
			}
			if wl.Name == wJoinIntersects || wl.Name == wJoinWithin {
				again := quickRun(t, wl.Name, 1, out)
				for _, name := range exact {
					if a, b := rec.Metrics[name].Value, again.Metrics[name].Value; a != b {
						t.Errorf("%s: count metric %s differs between two runs of one seed: %v vs %v", wl.Name, name, a, b)
					}
				}
				if rec.Metrics["rstar.candidates_per_op"].Value <= 0 {
					t.Errorf("%s: no step-1 candidates counted", wl.Name)
				}
			}
		}
	}
}

// replayShape says which spans may decompose which: the stage replay's
// tree. A span recorded under the wrong parent would move time from one
// layer's self time to another's without changing any total.
var replayShape = map[string][]string{
	spBuildStore: {spStreamMap, spWriteTile},
	spWriteTile:  {spApprox, spTRBuild, spRInsert},
	spRoundTrip:  {spHandler},
	spHandler:    {spShardJoin, spShardQuery},
	spShardJoin:  {spMSJoin},
	spMSJoin:     {spChoose, spRJoin, spClassify, spExact},
	spShardQuery: {spSession, spMSQuery},
	spMSQuery:    {spRWindow, spRNearest, spClassifyWin, spExactWin},
}

// checkSpans reads a span file and checks the stage replay's
// bookkeeping: every span ends after it starts, and decomposes an
// earlier span of its own operation that replayShape allows. It returns
// the layers.
//
// Timing is held to a gross limit only. At smoke-test sizes a level is
// a few dozen sub-millisecond calls (or, for the store build, two), and
// the reference box changes speed by a quarter between a call and its
// replay: of three smoke runs in a row, one measured the replays under
// loadgen.BuildStore at 119 % of it and one those under multistep.Query
// at 107 %. Every traced run prints the shares; at full size the
// largest in the committed run sets is 109.6 % (multistep.Query, whose
// stages last microseconds) and 101.7 % elsewhere.
func checkSpans(t *testing.T, path string) map[string]*layerTime {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	for i, s := range spans {
		if s.ID != i+1 || s.Parent >= s.ID || s.End < s.Start || s.Name == "" {
			t.Fatalf("%s: malformed span %+v", path, s)
		}
		if s.Parent == 0 {
			continue
		}
		if p := spans[s.Parent-1]; p.Op != s.Op || !slices.Contains(replayShape[p.Name], s.Name) || s.Start < p.End {
			t.Fatalf("%s: span %+v may not decompose span %+v", path, s, p)
		}
	}
	layers := (&tracer{spans: spans}).layers()
	for name, lt := range layers {
		if float64(lt.self) < -0.5*float64(lt.total) {
			t.Errorf("%s: the replays under %s take %v, far above the %v of the calls they decompose", path, name, lt.total-lt.self, lt.total)
		}
	}
	return layers
}

// TestCompare holds the gate to its two jobs: a regression beyond the
// bound fails, and so does every way of having nothing to compare.
func TestCompare(t *testing.T) {
	def, err := readDefinition(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files := 0
	// mk writes a run set: every workload on seeds 1..runs, every
	// end-to-end metric at 100 except throughput, after edit has had its
	// way with each record.
	mk := func(tput float64, runs int, edit func(*record)) string {
		files++
		path := filepath.Join(dir, fmt.Sprintf("set%d.jsonl", files))
		for _, wl := range def.Workloads {
			for seed := int64(1); seed <= int64(runs); seed++ {
				rec := &record{Workload: wl.Name, Seed: seed, Seconds: 15, SF: 0.01, Source: "abc", Attempted: 10, Metrics: map[string]metric{}}
				for _, d := range def.EndToEnd {
					rec.Metrics[d.Name] = metric{Value: 100, Unit: d.Unit}
				}
				rec.Metrics["throughput_ops_s"] = metric{Value: tput + float64(seed), Unit: "1/s"}
				if edit != nil {
					edit(rec)
				}
				if err := appendRecord(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	spec := filepath.Join("..", "BENCHMARK.json")
	base := mk(1000, 5, nil)
	for _, tc := range []struct {
		name string
		a, b string
		want bool
	}{
		{"1% slower", base, mk(990, 5, nil), true},
		{"40% slower", base, mk(600, 5, nil), false},
		{"67% faster", mk(600, 5, nil), base, true},
		{"a workload missing from B", base, mk(1000, 5, func(r *record) {
			if r.Workload == wServeHot {
				r.Workload = "other"
			}
		}), false},
		{"a metric missing from B", base, mk(1000, 5, func(r *record) { delete(r.Metrics, "latency_p50_ms") }), false},
		{"a metric missing from one run of B", base, mk(1000, 5, func(r *record) {
			if r.Seed == 3 {
				delete(r.Metrics, "cpu_ms_per_op")
			}
		}), false},
		{"A's median is zero", mk(1000, 5, func(r *record) { r.Metrics["setup_s"] = metric{Unit: "s"} }), base, false},
		{"four runs a side", mk(1000, 4, nil), mk(1000, 4, nil), false},
		{"one run against five", base, mk(1000, 1, nil), false},
		{"different seeds", base, mk(1000, 5, func(r *record) { r.Seed += 10 }), false},
		{"quick against full", base, mk(1000, 5, func(r *record) { r.Quick, r.SF = true, 0.002 }), false},
		{"different window", base, mk(1000, 5, func(r *record) { r.Seconds = 5 }), false},
		{"different benchmark source", base, mk(1000, 5, func(r *record) { r.Source = "def" }), false},
		{"a failed check", base, mk(1000, 5, func(r *record) { r.Failed = 1 }), false},
	} {
		ok, err := compareFiles(io.Discard, spec, tc.a, tc.b)
		if err != nil || ok != tc.want {
			t.Errorf("%s: ok=%v err=%v, want ok=%v", tc.name, ok, err, tc.want)
		}
	}
}
