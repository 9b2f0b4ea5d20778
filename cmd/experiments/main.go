// Command experiments regenerates every table and figure of the paper's
// evaluation (Brinkhoff, Kriegel, Schneider, Seeger: Multi-Step Processing
// of Spatial Joins, SIGMOD 1994) on the synthetic cartographic analogs.
//
// Usage:
//
//	experiments [-big N] [-only table2,figure18] [-skip-big]
//
// -big sets the size of the section 3.4/3.5/5 relations (the paper uses
// 130,000 objects; the default 20,000 preserves every reported shape and
// runs in minutes).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"spatialjoin/internal/experiments"
)

func main() {
	bigN := flag.Int("big", 20000, "objects per big relation (paper: 130000)")
	only := flag.String("only", "", "comma-separated experiment names to run (default all)")
	skipBig := flag.Bool("skip-big", false, "skip the big-relation experiments (figures 10, 11, 18)")
	flag.Parse()

	selected := map[string]bool{}
	for _, name := range strings.Split(*only, ",") {
		if name = strings.TrimSpace(strings.ToLower(name)); name != "" {
			selected[name] = true
		}
	}
	want := func(name string) bool { return len(selected) == 0 || selected[name] }

	env := experiments.NewEnv()
	big := experiments.DefaultBigParams()
	big.N = *bigN

	type exp struct {
		name string
		big  bool
		run  func() *experiments.Table
	}
	exps := []exp{
		{"figure2", false, func() *experiments.Table { return experiments.Figure2(env) }},
		{"table1", false, func() *experiments.Table { return experiments.Table1(env) }},
		{"table2", false, func() *experiments.Table { return experiments.Table2(env) }},
		{"table3", false, func() *experiments.Table { return experiments.Table3(env) }},
		{"table4", false, func() *experiments.Table { return experiments.Table4(env) }},
		{"table5", false, func() *experiments.Table { return experiments.Table5(env) }},
		{"figure4", false, func() *experiments.Table { return experiments.Figure4(env) }},
		{"figure5", false, func() *experiments.Table { return experiments.Figure5(env) }},
		{"figure8", false, func() *experiments.Table { return experiments.Figure8(env) }},
		{"figure12", false, func() *experiments.Table { return experiments.Figure12(env) }},
		{"table6", false, func() *experiments.Table { return experiments.Table6() }},
		{"table7", false, func() *experiments.Table { t, _ := experiments.Table7(env); return t }},
		{"figure16", false, func() *experiments.Table { t, _ := experiments.Figure16(env); return t }},
		{"figure17", false, func() *experiments.Table { t, _ := experiments.Figure17(env); return t }},
		{"figure10", true, func() *experiments.Table { return experiments.Figure10(big) }},
		{"figure11", true, func() *experiments.Table { t, _ := experiments.Figure11(big); return t }},
		{"figure18", true, func() *experiments.Table { t, _ := experiments.Figure18(big); return t }},
		// Ablations beyond the paper's own figures (DESIGN.md §8).
		{"ablation-decomp", false, func() *experiments.Table { return experiments.AblationDecomposition(env) }},
		{"ablation-trcap", false, func() *experiments.Table { return experiments.AblationTRCapacityWide(env) }},
		{"ablation-filters", false, func() *experiments.Table { return experiments.AblationFilterCombos(env) }},
		{"figure18-wall", true, func() *experiments.Table { return experiments.Figure18Wall(big) }},
		{"ablation-parallel", true, func() *experiments.Table { return experiments.AblationParallelism(big) }},
		{"ablation-buffer", true, func() *experiments.Table { return experiments.AblationBufferPolicy(big) }},
	}

	start := time.Now()
	ran := 0
	for _, e := range exps {
		if !want(e.name) {
			continue
		}
		if e.big && *skipBig {
			continue
		}
		t0 := time.Now()
		tab := e.run()
		fmt.Println(tab)
		fmt.Printf("[%s in %.1fs]\n\n", e.name, time.Since(t0).Seconds())
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "no experiments selected; known names:")
		for _, e := range exps {
			fmt.Fprintln(os.Stderr, "  "+e.name)
		}
		os.Exit(2)
	}
	fmt.Printf("total: %d experiments in %.1fs (big relations: %d objects)\n",
		ran, time.Since(start).Seconds(), big.N)
}
