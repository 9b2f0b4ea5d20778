package loadgen

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/shard"
)

// BuildStats reports a streaming store build.
type BuildStats struct {
	Objects int
	Tiles   int
	// Seams and QuadFallbacks carry through the generator's repair
	// accounting (see data.StreamStats).
	Seams         int
	QuadFallbacks int
	// SpillBytes is the size of the temporary geometry spill file.
	SpillBytes int64
}

// BuildStore generates the relation described by mc with the streaming
// generator and writes it as a sharded store directory at dir, under
// the facade name and preprocessing configuration given — without ever
// materializing the full relation. The build runs in three passes:
//
//  1. Stream the polygons to a temporary spill file beside dir,
//     keeping only per-object MBRs and spill offsets in memory
//     (~60 bytes/object, against ~1 KB/object for live geometry).
//  2. Cut the object index into shard.Partition's tiles, the
//     partition shard.Build uses.
//  3. Rehydrate one tile's polygons at a time from the spill and hand
//     them to a shard.StoreWriter; peak geometry in memory is one tile.
//
// The output is byte-identical to shard.Save(shard.Build(...)) over the
// same polygon sequence, so stores built either way are interchangeable
// and reopen with shard.Open under cfg.
func BuildStore(dir, name string, mc data.MapConfig, shards int, cfg multistep.Config) (BuildStats, error) {
	var bs BuildStats
	if mc.Cells < 1 {
		return bs, fmt.Errorf("loadgen: cannot build a store of %d objects", mc.Cells)
	}

	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil && filepath.Dir(dir) != "." {
		return bs, err
	}
	spill, err := os.CreateTemp(filepath.Dir(dir), ".spill-*")
	if err != nil {
		return bs, err
	}
	defer func() {
		spill.Close()
		os.Remove(spill.Name())
	}()

	// Pass 1: stream geometry to the spill (data.AppendPolygon framing —
	// the same per-polygon encoding the relation formats use), MBRs and
	// offsets to memory.
	w := bufio.NewWriterSize(spill, 1<<20)
	offsets := make([]int64, 1, mc.Cells+1)
	bounds := make([]geom.Rect, 0, mc.Cells)
	var pos int64
	var scratch []byte
	st, err := data.StreamMap(mc, func(_ int32, p *geom.Polygon) error {
		scratch = data.AppendPolygon(scratch[:0], p)
		if _, err := w.Write(scratch); err != nil {
			return err
		}
		pos += int64(len(scratch))
		offsets = append(offsets, pos)
		bounds = append(bounds, p.Bounds())
		return nil
	})
	if err != nil {
		return bs, err
	}
	if err := w.Flush(); err != nil {
		return bs, err
	}
	bs.Seams, bs.QuadFallbacks, bs.SpillBytes = st.Seams, st.QuadFallbacks, pos

	// Pass 2: the store's tile partition, as shard.Build cuts it.
	runs, _ := shard.Partition(bounds, shards)
	bounds = nil

	// Pass 3: rehydrate and preprocess one tile at a time.
	sw, err := shard.NewStoreWriter(dir, name, cfg)
	if err != nil {
		return bs, err
	}
	for _, run := range runs {
		polys := make([]*geom.Polygon, 0, len(run))
		for _, g := range run {
			p, err := readSpillPolygon(spill, offsets[g], offsets[g+1]-offsets[g])
			if err != nil {
				return bs, fmt.Errorf("loadgen: spill object %d: %w", g, err)
			}
			polys = append(polys, p)
		}
		if err := sw.WriteTile(polys, run); err != nil {
			return bs, err
		}
	}
	if err := sw.Finish(); err != nil {
		return bs, err
	}
	bs.Objects, bs.Tiles = st.Objects, len(runs)
	return bs, nil
}

// readSpillPolygon rehydrates one polygon from the spill by offset.
func readSpillPolygon(f *os.File, off, length int64) (*geom.Polygon, error) {
	buf := make([]byte, length)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	p, n, err := data.DecodePolygon(buf)
	if err != nil {
		return nil, err
	}
	if int64(n) != length {
		return nil, fmt.Errorf("spill record of %d bytes decoded as %d", length, n)
	}
	return p, nil
}
