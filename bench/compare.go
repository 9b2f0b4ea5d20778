package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// definition is BENCHMARK.json, as far as the benchmark itself reads it.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDefinition(path string) (*definition, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def definition
	if err := json.Unmarshal(raw, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// readRecords loads a run set: one record per line, as --record writes.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// summary is one metric's values over a run set.
type summary struct {
	n      int
	median float64
	// spread is the interquartile range as a share of the median (the
	// driver's steadiness measure); NaN below four values.
	spread float64
}

func summarize(vals []float64) summary {
	s := summary{n: len(vals), median: math.NaN(), spread: math.NaN()}
	if len(vals) == 0 {
		return s
	}
	sort.Float64s(vals)
	s.median = median(vals)
	if len(vals) >= 4 && s.median != 0 {
		q1, q3 := quartiles(vals)
		s.spread = (q3 - q1) / math.Abs(s.median)
	}
	return s
}

// quartiles are the first and third quartile by the exclusive method,
// as Python's statistics.quantiles(values, n=4) computes them.
func quartiles(sorted []float64) (q1, q3 float64) {
	at := func(p float64) float64 {
		h := p * float64(len(sorted)+1)
		lo := int(math.Floor(h))
		switch {
		case lo < 1:
			return sorted[0]
		case lo >= len(sorted):
			return sorted[len(sorted)-1]
		}
		return sorted[lo-1] + (h-float64(lo))*(sorted[lo]-sorted[lo-1])
	}
	return at(0.25), at(0.75)
}

// measured selects the measured (--trace 0) records of one workload.
func measured(recs []record, workload string) []record {
	var out []record
	for _, r := range recs {
		if r.Workload == workload && r.Trace == 0 {
			out = append(out, r)
		}
	}
	return out
}

func collect(recs []record, workload string, trace int, name string) []float64 {
	var vals []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
			vals = append(vals, m.Value)
		}
	}
	return vals
}

// minRuns is the number of measured runs per workload a side needs
// before its median is compared against a bound.
const minRuns = 5

// comparableSets reports why two run sets cannot be compared, or nil: every
// record of both must come from one benchmark source at the same sizes
// and window length, and both sides must have measured the same seeds
// of every workload, at least minRuns of them.
func comparableSets(def *definition, a, b []record) []string {
	var why []string
	all := append(slices.Clone(a), b...)
	if len(all) == 0 {
		return []string{"both run sets are empty"}
	}
	first := all[0]
	for _, r := range all[1:] {
		if r.Source != first.Source || r.SF != first.SF || r.Quick != first.Quick || r.Seconds != first.Seconds {
			why = append(why, fmt.Sprintf("records differ in benchmark source, sizes or window: %s sf %g quick %v %g s (%s seed %d) against %s sf %g quick %v %g s (%s seed %d)",
				first.Source, first.SF, first.Quick, first.Seconds, first.Workload, first.Seed,
				r.Source, r.SF, r.Quick, r.Seconds, r.Workload, r.Seed))
			break
		}
	}
	seeds := func(recs []record) []int64 {
		var out []int64
		for _, r := range recs {
			out = append(out, r.Seed)
		}
		slices.Sort(out)
		return out
	}
	for _, wl := range def.Workloads {
		sa, sb := seeds(measured(a, wl.Name)), seeds(measured(b, wl.Name))
		switch {
		case len(sa) < minRuns || len(sb) < minRuns:
			why = append(why, fmt.Sprintf("%s: %d and %d measured runs, need at least %d on each side", wl.Name, len(sa), len(sb), minRuns))
		case !slices.Equal(sa, sb):
			why = append(why, fmt.Sprintf("%s: the sides measured different seeds: %v against %v", wl.Name, sa, sb))
		}
	}
	return why
}

// compareFiles prints, per workload and metric, both sides' medians and
// spreads, how much worse side B is, and the metric's bound. It reports
// false when an end-to-end metric of B is worse than A's by more than
// its bound, when a gated metric is missing from a run or is not a
// positive number, when a run on either side failed a correctness
// check, or when the sets are not comparable (see comparableSets).
// Comparing two run sets of one commit is the same-code agreement
// check; comparing a parent's set with a change's is the regression
// gate.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	def, err := readDefinition(specPath)
	if err != nil {
		return false, err
	}
	a, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	for _, why := range comparableSets(def, a, b) {
		fmt.Fprintln(w, "NOT COMPARABLE:", why)
		ok = false
	}
	for _, side := range [][]record{a, b} {
		for _, r := range side {
			if r.Failed > 0 {
				fmt.Fprintf(w, "FAILED CHECKS: %s seed %d trace %d: %d of %d operations\n", r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted)
				ok = false
			}
		}
	}
	for _, wl := range def.Workloads {
		fmt.Fprintf(w, "\n%s\n", wl.Name)
		fmt.Fprintf(w, "  %-34s %14s %7s %14s %7s %8s %6s\n", "metric", "median A", "iqr A", "median B", "iqr B", "B worse", "bound")
		na, nb := len(measured(a, wl.Name)), len(measured(b, wl.Name))
		row := func(d metricDef, trace int, gated bool) {
			sa := summarize(collect(a, wl.Name, trace, d.Name))
			sb := summarize(collect(b, wl.Name, trace, d.Name))
			if sa.n == 0 && sb.n == 0 && !gated {
				return
			}
			// worse > 0: B is worse than A by that share of A's median.
			worse := (sb.median - sa.median) / math.Abs(sa.median)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			bound := "-"
			if gated {
				bound = fmt.Sprintf("%g", d.Bound)
				switch {
				case sa.n != na || sb.n != nb || !(sa.median > 0) || !(sb.median > 0):
					// A gate never passes on data that is not there.
					verdict = fmt.Sprintf("  MISSING (%d of %d and %d of %d runs report a value; medians must be positive)", sa.n, na, sb.n, nb)
					ok = false
				case worse > d.Bound:
					verdict = "  REGRESSION"
					ok = false
				}
			}
			fmt.Fprintf(w, "  %-34s %14.5g %6.1f%% %14.5g %6.1f%% %+7.1f%% %6s%s\n",
				d.Name, sa.median, 100*sa.spread, sb.median, 100*sb.spread, 100*worse, bound, verdict)
		}
		for _, d := range def.EndToEnd {
			row(d, 0, true)
		}
		// The windows are time-bounded, so the operation counts differ
		// from run to run; they are shown so that a reader sees by how
		// much.
		opsOf := func(recs []record) []float64 {
			var out []float64
			for _, r := range measured(recs, wl.Name) {
				out = append(out, float64(r.Attempted))
			}
			return out
		}
		oa, ob := summarize(opsOf(a)), summarize(opsOf(b))
		fmt.Fprintf(w, "  %-34s %14.5g %6.1f%% %14.5g %6.1f%%\n", "(operations per measured window)", oa.median, 100*oa.spread, ob.median, 100*ob.spread)
		for _, d := range def.PerLayer {
			row(d, 1, false)
		}
	}
	if ok {
		fmt.Fprintln(w, "\nevery end-to-end metric of B is within its bound of A")
	}
	return ok, nil
}
