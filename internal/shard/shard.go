// Package shard partitions one logical relation into N spatial tiles,
// each a self-contained multistep.Relation with its own R*-tree and page
// buffer, and serves joins and queries against the tile set through a
// scatter-gather layer that preserves the single-relation contracts:
// globally (A, B)-sorted join responses, limit truncation as the global
// sorted prefix, cancellation fanned out to every tile, and statistics
// that sum to the paper's accounting.
//
// The partition is disjoint: every object is assigned to exactly one
// tile by the Z-order position of its MBR center (internal/zorder), and
// tiles are contiguous runs of the Z-sorted object sequence, so tile
// sizes stay balanced regardless of skew. Tile MBRs overlap where
// objects straddle cell boundaries — routing uses the true MBRs, never
// the curve cells, so no candidate can be missed. Because no object is
// replicated, each qualifying pair arises in exactly one sub-join and
// the candidate/filter/exact counters sum exactly to the unsharded run
// (see DESIGN.md §10 for the replication/clipping trade-off).
package shard

import (
	"cmp"
	"fmt"
	"slices"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/zorder"
)

// Tile is one shard of a partitioned relation: a complete
// multistep.Relation over the tile's objects (local IDs 0..n-1) plus the
// mapping back to global object IDs.
type Tile struct {
	// Index is the tile's position in Sharded.Tiles.
	Index int
	// Rel holds the tile's objects under local IDs; Rel.Objects[i]
	// corresponds to global object Global[i].
	Rel *multistep.Relation
	// Global maps local object IDs to the IDs of the unsharded relation.
	Global []int32
	// MBR is the union of the member objects' MBRs — the routing key.
	// Tile MBRs may overlap (objects straddle cell boundaries).
	MBR geom.Rect
}

// Sharded is a relation partitioned into Z-order tiles behind one
// facade. Zero tiles never occur: even an empty relation has one
// (empty) tile, so every code path routes uniformly.
type Sharded struct {
	// Name is the facade name; tile relations are named "Name[i]".
	Name string
	// Cfg is the configuration every tile was preprocessed under. It is
	// fixed at construction: Fingerprint is computed from it once.
	Cfg multistep.Config
	// Tiles holds the shards in Z order of their object runs.
	Tiles []*Tile

	objects int
	mbr     geom.Rect
	fp      uint64
}

// Shards returns the tile count.
func (s *Sharded) Shards() int { return len(s.Tiles) }

// Objects returns the total object count across tiles.
func (s *Sharded) Objects() int { return s.objects }

// MBR returns the union of all tile MBRs (empty for an empty relation).
func (s *Sharded) MBR() geom.Rect { return s.mbr }

// Fingerprint returns the configuration fingerprint shared by every
// tile — the compatibility key for joins and stores — as computed at
// construction.
func (s *Sharded) Fingerprint() uint64 { return s.fp }

// zCenter returns the Z code of a rectangle's center quantized onto the
// data space at the finest zorder level. Degenerate data-space axes (all
// centers collinear) quantize to cell 0 on that axis.
func zCenter(r, ds geom.Rect) uint64 {
	n := float64(uint32(1) << zorder.MaxLevel)
	quant := func(v, lo, hi float64) uint32 {
		if hi <= lo {
			return 0
		}
		t := (v - lo) / (hi - lo) * n
		if t < 0 {
			t = 0
		}
		if t > n-1 {
			t = n - 1
		}
		return uint32(t)
	}
	c := r.Center()
	return zorder.Encode(quant(c.X, ds.MinX, ds.MaxX), quant(c.Y, ds.MinY, ds.MaxY))
}

// Partition is the tile partition of every store, shared by Build and
// internal/loadgen's streaming build: objects, given by their MBRs, are
// sorted by the Z code of their MBR center over the data space ds (the
// union of bounds), ties broken by object index, and cut into contiguous,
// balanced runs — run t holds Z-rank positions [t·n/N, (t+1)·n/N). The
// shard count clamps to [1, len(bounds)] (exactly 1 for no objects). The
// runs are three-index slices of one order array, so appending to one
// cannot spill into the next.
func Partition(bounds []geom.Rect, shards int) (runs [][]int32, ds geom.Rect) {
	n := len(bounds)
	shards = max(1, min(shards, n))
	ds = geom.EmptyRect()
	for _, b := range bounds {
		ds = ds.Union(b)
	}
	codes := make([]uint64, n)
	order := make([]int32, n)
	for i, b := range bounds {
		codes[i] = zCenter(b, ds)
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(codes[a], codes[b]), cmp.Compare(a, b))
	})
	runs = make([][]int32, shards)
	for t := range runs {
		lo, hi := t*n/shards, (t+1)*n/shards
		runs[t] = order[lo:hi:hi]
	}
	return runs, ds
}

// Build partitions polys into at most shards tiles (Partition) and
// preprocesses each tile as its own relation under cfg. Requesting more
// tiles than objects degrades gracefully to one object per tile.
func Build(name string, polys []*geom.Polygon, shards int, cfg multistep.Config) *Sharded {
	bounds := make([]geom.Rect, len(polys))
	for i, p := range polys {
		bounds[i] = p.Bounds()
	}
	runs, ds := Partition(bounds, shards)
	sh := &Sharded{Name: name, Cfg: cfg, objects: len(polys), mbr: ds, fp: multistep.ConfigFingerprint(cfg)}
	for t, run := range runs {
		sub := make([]*geom.Polygon, len(run))
		mbr := geom.EmptyRect()
		for i, g := range run {
			sub[i] = polys[g]
			mbr = mbr.Union(bounds[g])
		}
		sh.Tiles = append(sh.Tiles, &Tile{
			Index:  t,
			Rel:    multistep.NewRelation(fmt.Sprintf("%s[%d]", name, t), sub, cfg),
			Global: run,
			MBR:    mbr,
		})
	}
	return sh
}

// FromRelation wraps an existing single relation as a one-tile Sharded,
// so monolithic and partitioned relations serve through the same
// scatter-gather path. The tile shares the relation's objects and tree;
// global IDs are the relation's own.
func FromRelation(rel *multistep.Relation) *Sharded {
	global := make([]int32, len(rel.Objects))
	mbr := geom.EmptyRect()
	for i, o := range rel.Objects {
		global[i] = o.ID
		mbr = mbr.Union(o.Poly.Bounds())
	}
	return &Sharded{
		Name:    rel.Name,
		Cfg:     rel.Cfg,
		Tiles:   []*Tile{{Index: 0, Rel: rel, Global: global, MBR: mbr}},
		objects: len(rel.Objects),
		mbr:     mbr,
		fp:      rel.Fingerprint(),
	}
}
