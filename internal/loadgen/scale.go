// Package loadgen is the service-level harness: scale-factor dataset
// specs with bounded-memory store builds, and a fixed flight of named
// parameterized queries whose calibrated cardinalities check a live
// spatialjoinserve over HTTP from concurrent clients. It measures
// nothing: timings come from the repository benchmark (bench/), which
// draws its serve workloads from the same flight. DESIGN.md §13
// describes the harness; cmd/loadtest and cmd/datagen -sf are the front
// ends.
package loadgen

import (
	"fmt"
	"math"

	"spatialjoin/internal/data"
)

// SFObjects is the per-relation object count at scale factor 1 — the
// paper's section-5 map size class. Counts scale linearly with SF.
const SFObjects = 130_000

// SFVerts is the average vertex count per object at every scale
// factor: SF scales how MANY objects there are, never their shape.
const SFVerts = 28

// sfSeed anchors the generation seeds of all scale-factor datasets, so
// any two builds of the same SF are identical stores.
const sfSeed = 73_520_100

// Spec is a scale-factor dataset: two relations R and S of Objects
// polygons each, generated over the same [0, Extent]² territory from
// different seeds, so their join behaves like the paper's map-overlay
// workloads. The data space grows with √SF on each axis while object
// sizes stay fixed — density, selectivity per unit area, and per-object
// cost are constant across scale factors, which is what makes latencies
// at different SFs comparable (SSB-style scaling, not a zoom).
type Spec struct {
	SF      float64
	Objects int
	Verts   int
	Extent  float64
	// HoleFraction matches the repository's default map character.
	HoleFraction float64
	// SeedR and SeedS generate the two sides.
	SeedR, SeedS int64
}

// For resolves a scale factor to its dataset spec. SF must be positive;
// the practical range is 0.01 (1 300 objects, a CI smoke dataset) to
// 100+ (13 M objects, bounded-memory builds only).
func For(sf float64) (Spec, error) {
	if !(sf > 0) || math.IsInf(sf, 0) {
		return Spec{}, fmt.Errorf("loadgen: scale factor %v out of range", sf)
	}
	objects := int(math.Round(sf * SFObjects))
	if objects < 16 {
		objects = 16
	}
	return Spec{
		SF:           sf,
		Objects:      objects,
		Verts:        SFVerts,
		Extent:       math.Sqrt(sf),
		HoleFraction: 0.06,
		SeedR:        sfSeed,
		SeedS:        sfSeed + 1,
	}, nil
}

// MapConfig returns the streaming-generator configuration for one side
// of the dataset (side "R" or "S").
func (s Spec) MapConfig(side string) (data.MapConfig, error) {
	cfg := data.MapConfig{
		Cells:        s.Objects,
		TargetVerts:  s.Verts,
		HoleFraction: s.HoleFraction,
		Extent:       s.Extent,
	}
	switch side {
	case "R":
		cfg.Seed = s.SeedR
	case "S":
		cfg.Seed = s.SeedS
	default:
		return data.MapConfig{}, fmt.Errorf("loadgen: unknown side %q (want R or S)", side)
	}
	return cfg, nil
}

// RelationName names one side's relation in the catalog: "sfN-R" style,
// with the SF formatted compactly (sf0.01-R, sf1-R, sf10-S).
func (s Spec) RelationName(side string) string {
	return fmt.Sprintf("sf%s-%s", trimFloat(s.SF), side)
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
