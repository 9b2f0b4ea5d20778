// Command datagen emits a generated cartographic relation: as
// tab-separated WKT-like polygons on stdout (the default, for inspection
// or external tools), as the compact binary polygon format (-bin), or as
// a fully preprocessed relation store directory (-store) that
// cmd/spatialjoin, cmd/spatialjoinserve and OpenRelation reopen
// instantly — build once, serve many.
//
// Usage:
//
//	datagen [-n 810] [-verts 84] [-holes 0.06] [-seed 9401] [-stats]
//	        [-bin out.sjr]
//	        [-store out.store] [-shards N] [-strategy ""|A|B|B2] [-name NAME]
//	        [-engine trstar] [-conservative 5C] [-progressive MER]
//	        [-no-filter] [-page 4096] [-buffer 131072] [-policy lru]
//	        [-sf F] [-side R|S]
//
// The map comes from data.StreamMap, the one generator, which emits the
// polygons one at a time: -stats, -bin and the WKT output never hold the
// whole relation, and -store streams it through a spill file into the
// store directory (loadgen.BuildStore; the same bytes as
// shard.Save(shard.Build(...))), so -n in the millions builds in bounded
// memory. -sf F builds one side of the scale-factor dataset pair of
// internal/loadgen instead — object count, extent and seeds derive from
// F, -side picks the R or S relation, and the store name defaults to the
// spec's (sf1-R style) so cmd/loadtest finds it.
//
// With -store, the configuration flags select the preprocessing
// (approximations, exact engine, page geometry, buffer policy) and are
// fingerprinted into the store; opening it later requires the same
// configuration. The store is a directory (shard.Save layout): a
// manifest plus one file per tile, -shards N Z-order tiles (default 1,
// the paper's single R*-tree). -strategy transforms the generated map
// into the paper's test-series counterpart before preprocessing: A is
// the shifted copy, and B/B2 are the two randomized placements
// cmd/spatialjoin joins as R and S under its -strategy B. The
// transforms need the whole map, so -strategy materialises it and is
// not available with -sf.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/loadgen"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/shard"
)

func main() {
	n := flag.Int("n", 810, "number of polygons")
	verts := flag.Int("verts", 84, "average vertices per polygon")
	holes := flag.Float64("holes", 0.06, "fraction of polygons with a hole")
	seed := flag.Int64("seed", 9401, "generation seed")
	statsOnly := flag.Bool("stats", false, "print relation statistics instead of geometry")
	binOut := flag.String("bin", "", "write the relation in binary form to this file instead of WKT on stdout")
	storeOut := flag.String("store", "", "preprocess the relation and write it as a relation store to this directory")
	strategy := flag.String("strategy", "", "with -store: transform the map first: A (shifted copy), B (random placement, R side) or B2 (random placement, S side)")
	name := flag.String("name", "", "with -store: relation name (default: the store path)")
	config := multistep.ConfigFlags(flag.CommandLine)
	shards := flag.Int("shards", 1, "with -store: partition the relation into this many Z-order tiles")
	sf := flag.Float64("sf", 0, "build a scale-factor dataset side instead of -n/-verts/-holes/-seed (see -side)")
	side := flag.String("side", "R", "with -sf: which relation of the dataset pair to build: R or S")
	flag.Parse()

	cfg, err := config()
	if err != nil {
		fatal(err)
	}
	mc := data.MapConfig{Cells: *n, TargetVerts: *verts, HoleFraction: *holes, Seed: *seed}
	relName := *name
	if *sf > 0 {
		if *strategy != "" {
			fatal(fmt.Errorf("-strategy is not available with -sf: the test-series transforms need the materialized map"))
		}
		spec, err := loadgen.For(*sf)
		if err != nil {
			fatal(err)
		}
		if mc, err = spec.MapConfig(strings.ToUpper(*side)); err != nil {
			fatal(err)
		}
		if relName == "" {
			relName = spec.RelationName(strings.ToUpper(*side))
		}
		fmt.Fprintf(os.Stderr, "datagen: SF=%g side %s: %d objects over [0, %.3f]²\n",
			*sf, strings.ToUpper(*side), mc.Cells, mc.Extent)
	}
	if relName == "" {
		relName = *storeOut
	}

	switch {
	case *statsOnly:
		var st data.VertexStats
		if _, err := data.StreamMap(mc, func(_ int32, p *geom.Polygon) error {
			st.Add(p)
			return nil
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("objects=%d m_avg=%.1f m_min=%d m_max=%d with_holes=%d\n",
			st.Objects, st.Avg, st.Min, st.Max, st.WithHoles)
	case *binOut != "":
		f, err := os.Create(*binOut)
		if err != nil {
			fatal(err)
		}
		rw, err := data.NewRelationWriter(f, mc.Cells)
		if err != nil {
			fatal(err)
		}
		if _, err := data.StreamMap(mc, func(_ int32, p *geom.Polygon) error { return rw.Append(p) }); err != nil {
			fatal(err)
		}
		if err := rw.Close(); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	case *storeOut != "" && *strategy == "":
		bs, err := loadgen.BuildStore(*storeOut, relName, mc, *shards, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: relation %q, %d objects streamed into %d tile(s) (%.1f MB spill, %d seams, %d quad fallbacks; engine %s, filter %s+%s, page %d, policy %s)\n",
			*storeOut, relName, bs.Objects, bs.Tiles, float64(bs.SpillBytes)/(1<<20), bs.Seams, bs.QuadFallbacks,
			cfg.Engine, cfg.Filter.Conservative, cfg.Filter.Progressive, cfg.PageSize, cfg.BufferPolicy)
	case *storeOut != "":
		// The seed offsets mirror cmd/spatialjoin's test-series pairs:
		// its strategy B joins StrategyB(base, seed+1) with
		// StrategyB(base, seed+2), so B emits the R side and B2 the S
		// side — the prebuilt stores reproduce the generate path
		// exactly for both strategies.
		rel := data.GenerateMap(mc)
		switch strings.ToUpper(*strategy) {
		case "A":
			rel = data.StrategyA(rel, 0.45)
		case "B":
			rel = data.StrategyB(rel, *seed+1)
		case "B2":
			rel = data.StrategyB(rel, *seed+2)
		default:
			fatal(fmt.Errorf("unknown strategy %q", *strategy))
		}
		sh := shard.Build(relName, rel, *shards, cfg)
		if err := shard.Save(*storeOut, sh); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: relation %q, %d objects preprocessed into %d tile(s) (strategy %s; engine %s, filter %s+%s, page %d, policy %s)\n",
			*storeOut, relName, sh.Objects(), sh.Shards(), strings.ToUpper(*strategy),
			cfg.Engine, cfg.Filter.Conservative, cfg.Filter.Progressive, cfg.PageSize, cfg.BufferPolicy)
	default:
		w := bufio.NewWriter(os.Stdout)
		if _, err := data.StreamMap(mc, func(id int32, p *geom.Polygon) error {
			_, err := fmt.Fprintf(w, "%d\t%s\n", id, wkt(p))
			return err
		}); err != nil {
			fatal(err)
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
	}
}

// wkt renders a polygon in WKT syntax: POLYGON ((outer), (hole), ...).
func wkt(p *geom.Polygon) string {
	var b strings.Builder
	b.WriteString("POLYGON (")
	writeRing := func(r geom.Ring) {
		b.WriteByte('(')
		for i, pt := range r {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "%.6f %.6f", pt.X, pt.Y)
		}
		// Close the ring as WKT requires.
		fmt.Fprintf(&b, ", %.6f %.6f)", r[0].X, r[0].Y)
	}
	writeRing(p.Outer)
	for _, h := range p.Holes {
		b.WriteString(", ")
		writeRing(h)
	}
	b.WriteByte(')')
	return b.String()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "datagen:", err)
	os.Exit(1)
}
