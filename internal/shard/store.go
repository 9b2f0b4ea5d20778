package shard

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"spatialjoin/internal/codec"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
)

// A sharded store is a directory: one SJRL relation store per tile
// (tile-0000.sjrl, tile-0001.sjrl, …) plus a manifest binding them back
// into one facade. The manifest carries the config fingerprint, the tile
// MBRs (the routing keys), per-tile object counts and the local→global
// ID mapping; Open cross-checks all of it against the reopened tiles,
// and each tile file additionally carries its own fingerprint that
// multistep.OpenRelationFile verifies — a tile swapped in from a store
// built under a different configuration is rejected at open.
//
// Manifest layout (little endian):
//
//	magic       uint32  'SJSM'
//	version     uint16  3
//	fingerprint uint64  multistep.ConfigFingerprint of the build config
//	name        uint16 length + bytes
//	objects     uint32  total object count
//	tiles       uint16  tile count
//	tiles ×tiles:
//	  mbr       4 × float64 bits (MinX, MinY, MaxX, MaxY)
//	  count     uint32
//	  global    count × uint32 global object IDs (local order)
//
// Open reads manifest version 3 only and refuses any other, as
// multistep refuses a tile file of another version: a store is a build
// artifact, rebuilt from its source data when its format changes.
const (
	manifestMagic   = 0x534A534D // "SJSM"
	manifestVersion = 3

	// ManifestName is the manifest's file name inside a store directory.
	ManifestName = "manifest.sjsm"
)

// ErrBadManifest reports a store whose manifest this build cannot read
// — malformed, of another format version, inconsistent with the tile
// files beside it, or missing because the path is a file. Stores are
// build artifacts, so its text names the fix.
var ErrBadManifest = errors.New("shard: unreadable store manifest (rebuild the store with cmd/datagen)")

// tilePath names tile t's relation store inside dir.
func tilePath(dir string, t int) string {
	return filepath.Join(dir, fmt.Sprintf("tile-%04d.sjrl", t))
}

// Save writes sh as a sharded store directory, creating dir if needed.
// It is a loop over StoreWriter; incremental builders that never hold
// the whole relation drive the writer directly.
func Save(dir string, sh *Sharded) error {
	w, err := NewStoreWriter(dir, sh.Name, sh.Cfg)
	if err != nil {
		return err
	}
	for _, t := range sh.Tiles {
		if err := w.writeRel(t.Rel, t.Global, t.MBR); err != nil {
			return err
		}
	}
	return w.Finish()
}

// Open reopens a store directory under cfg — the one open path. A
// regular file is refused with ErrBadManifest: a persisted relation is a
// directory.
//
// The manifest's fingerprint must match cfg (multistep.ErrConfigMismatch
// otherwise), every tile file must itself open under cfg — a tile built
// under a different configuration fails its own fingerprint check — and
// the manifest's counts, MBRs and ID mapping must agree with the tiles:
// the global IDs must be a bijection onto 0..objects-1 and each tile MBR
// must equal the union of the reopened tile's object MBRs bit for bit.
func Open(dir string, cfg multistep.Config) (*Sharded, error) {
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		return nil, fmt.Errorf("%w: %q is a file, and a store is a directory", ErrBadManifest, dir)
	}
	blob, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	trunc := fmt.Errorf("%w: truncated manifest", ErrBadManifest)
	d := codec.New(blob, trunc)
	if magic := d.U32(); d.Err() == nil && magic != manifestMagic {
		return nil, fmt.Errorf("%w: bad magic %#x", ErrBadManifest, magic)
	}
	if v := d.U16(); d.Err() == nil && v != manifestVersion {
		return nil, fmt.Errorf("%w: version %d, this build reads version %d only", ErrBadManifest, v, manifestVersion)
	}
	fp := d.U64()
	if d.Err() == nil && fp != multistep.ConfigFingerprint(cfg) {
		return nil, fmt.Errorf("shard: store %q: %w", dir, multistep.ErrConfigMismatch)
	}
	name := string(d.Bytes(int(d.U16())))
	objects := int(d.U32())
	tiles := int(d.U16())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if tiles < 1 {
		return nil, fmt.Errorf("%w: %d tiles", ErrBadManifest, tiles)
	}
	// Every global ID takes 4 manifest bytes: a count the remaining
	// bytes cannot hold is rejected before it sizes an allocation.
	if objects > d.Remaining()/4 {
		return nil, fmt.Errorf("%w: %d objects exceed the manifest", ErrBadManifest, objects)
	}

	sh := &Sharded{Name: name, Cfg: cfg, objects: objects, mbr: geom.EmptyRect(), fp: fp}
	seen := make([]bool, objects)
	for t := 0; t < tiles; t++ {
		mbr := geom.Rect{
			MinX: math.Float64frombits(d.U64()),
			MinY: math.Float64frombits(d.U64()),
			MaxX: math.Float64frombits(d.U64()),
			MaxY: math.Float64frombits(d.U64()),
		}
		count := int(d.U32())
		if d.Err() != nil {
			return nil, d.Err()
		}
		if count > d.Remaining()/4 {
			return nil, fmt.Errorf("%w: tile %d count %d exceeds the manifest", ErrBadManifest, t, count)
		}
		global := make([]int32, count)
		for i := range global {
			g := d.U32()
			if d.Err() != nil {
				return nil, d.Err()
			}
			if int(g) >= objects || seen[g] {
				return nil, fmt.Errorf("%w: global ID %d out of range or repeated", ErrBadManifest, g)
			}
			seen[g] = true
			global[i] = int32(g)
		}
		rel, err := multistep.OpenRelationFile(tilePath(dir, t), cfg)
		if err != nil {
			return nil, fmt.Errorf("shard: tile %d of %q: %w", t, dir, err)
		}
		if len(rel.Objects) != count {
			return nil, fmt.Errorf("%w: tile %d holds %d objects, manifest says %d",
				ErrBadManifest, t, len(rel.Objects), count)
		}
		got := geom.EmptyRect()
		for _, o := range rel.Objects {
			got = got.Union(o.Poly.Bounds())
		}
		if got != mbr {
			return nil, fmt.Errorf("%w: tile %d MBR %v disagrees with manifest %v", ErrBadManifest, t, got, mbr)
		}
		sh.Tiles = append(sh.Tiles, &Tile{Index: t, Rel: rel, Global: global, MBR: mbr})
		sh.mbr = sh.mbr.Union(mbr)
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadManifest, d.Remaining())
	}
	for g, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("%w: global ID %d unassigned", ErrBadManifest, g)
		}
	}
	return sh, nil
}
