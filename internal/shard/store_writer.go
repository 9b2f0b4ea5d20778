package shard

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
)

// StoreWriter writes a sharded store directory one tile at a time, so a
// builder never needs the whole relation in memory: preprocess a tile,
// hand it to WriteTile, drop it, repeat. The manifest is accumulated
// incrementally (MBRs, counts, ID mappings — small next to the
// geometry) and written by Finish. Save is a thin loop over
// this writer; the streaming scale-factor builder (internal/loadgen)
// drives it directly with tiles cut from a spill file.
//
// Tiles must be written in Z-run order (index 0, 1, …), matching the
// contiguous-run partition Build produces; Finish seals the directory.
// The output is byte-identical in layout to Save's and reopens with
// Open under the same configuration.
type StoreWriter struct {
	dir     string
	name    string
	cfg     multistep.Config
	objects int
	tiles   int
	records []byte // concatenated per-tile manifest records
	done    bool
}

// NewStoreWriter creates dir (if needed) and starts a sharded store for
// a relation with the given facade name, built under cfg.
func NewStoreWriter(dir, name string, cfg multistep.Config) (*StoreWriter, error) {
	if len(name) > 1<<16-1 {
		return nil, fmt.Errorf("shard: relation name of %d bytes exceeds the format", len(name))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &StoreWriter{dir: dir, name: name, cfg: cfg}, nil
}

// WriteTile preprocesses polys as the next tile's relation and writes
// its tile file. global maps the tile's local IDs (positions in polys)
// back to the relation's global object IDs; the two slices must be the
// same length. Neither slice is retained.
func (w *StoreWriter) WriteTile(polys []*geom.Polygon, global []int32) error {
	if len(polys) != len(global) {
		return fmt.Errorf("shard: tile of %d polygons with %d global IDs", len(polys), len(global))
	}
	rel := multistep.NewRelation(fmt.Sprintf("%s[%d]", w.name, w.tiles), polys, w.cfg)
	mbr := geom.EmptyRect()
	for _, p := range polys {
		mbr = mbr.Union(p.Bounds())
	}
	return w.writeRel(rel, global, mbr)
}

// writeRel writes an already-preprocessed tile relation — the shared
// path behind WriteTile and Save.
func (w *StoreWriter) writeRel(rel *multistep.Relation, global []int32, mbr geom.Rect) error {
	if w.done {
		return fmt.Errorf("shard: store %q already finished", w.dir)
	}
	if w.tiles >= 1<<16-1 {
		return fmt.Errorf("shard: %d tiles exceed the format", w.tiles+1)
	}
	if err := multistep.SaveRelationFile(tilePath(w.dir, w.tiles), rel, w.cfg); err != nil {
		return err
	}
	buf := w.records
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(mbr.MinX))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(mbr.MinY))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(mbr.MaxX))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(mbr.MaxY))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(global)))
	for _, g := range global {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(g))
	}
	w.records = buf
	w.tiles++
	w.objects += len(global)
	return nil
}

// Finish writes the manifest, sealing the store. At least one tile must
// have been written (even an empty relation has one empty tile).
func (w *StoreWriter) Finish() error {
	if w.done {
		return fmt.Errorf("shard: store %q already finished", w.dir)
	}
	if w.tiles < 1 {
		return fmt.Errorf("shard: store %q has no tiles", w.dir)
	}
	buf := binary.LittleEndian.AppendUint32(nil, manifestMagic)
	buf = binary.LittleEndian.AppendUint16(buf, manifestVersion)
	buf = binary.LittleEndian.AppendUint64(buf, multistep.ConfigFingerprint(w.cfg))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(w.name)))
	buf = append(buf, w.name...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(w.objects))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(w.tiles))
	buf = append(buf, w.records...)
	w.done = true
	return os.WriteFile(filepath.Join(w.dir, ManifestName), buf, 0o644)
}
