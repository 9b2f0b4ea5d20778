package shard

// Backward compatibility of the sharded store. A version 1 manifest has
// the current layout; a version 2 manifest carries a planner-statistics
// blob per tile, and its version 3 tile files end in a trailer holding
// the same blob. Both open — blobs and trailers length-checked and
// skipped — with the statistics a fresh build derives, and join
// identically to a current store. The tests forge byte-exact old stores
// from the current writer's output.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"spatialjoin/internal/multistep"
	"spatialjoin/internal/plan"
)

// appendStatsV1 appends st in the statistics-blob layout of SJSM
// version 2 manifests and SJRL version 2–3 trailers: the same helper as
// internal/multistep's store-compatibility test (test files cannot be
// shared across packages). Big endian: 'SJPS', version 1, the object
// count, seven float64, 2 × uint16 histogram dimensions, 256 cells, and
// a run counter and nine feedback words — zero after a fresh build.
func appendStatsV1(buf []byte, st *plan.Stats) []byte {
	be := binary.BigEndian
	buf = be.AppendUint32(buf, 0x534A5053)
	buf = be.AppendUint16(buf, 1)
	buf = be.AppendUint64(buf, uint64(st.Objects))
	for _, v := range []float64{st.MBR.MinX, st.MBR.MinY, st.MBR.MaxX, st.MBR.MaxY, st.MeanW, st.MeanH, st.MeanVerts} {
		buf = be.AppendUint64(buf, math.Float64bits(v))
	}
	buf = be.AppendUint16(buf, plan.GridDim)
	buf = be.AppendUint16(buf, plan.GridDim)
	for _, v := range st.Grid {
		buf = be.AppendUint64(buf, math.Float64bits(v))
	}
	return append(buf, make([]byte, 8*(1+9))...)
}

// manifestToV1 rewrites a current manifest blob into the version 1
// layout, which differs only in the version field.
func manifestToV1(t *testing.T, blob []byte) []byte {
	t.Helper()
	if len(blob) < 6 || binary.LittleEndian.Uint16(blob[4:]) != manifestVersion {
		t.Fatalf("saved manifest is not version %d", manifestVersion)
	}
	v1 := bytes.Clone(blob)
	binary.LittleEndian.PutUint16(v1[4:], 1)
	return v1
}

// manifestToV2 rewrites a current manifest blob into the version 2
// layout: every tile record followed by its tile's statistics blob.
func manifestToV2(t *testing.T, blob []byte, sh *Sharded) []byte {
	t.Helper()
	le := binary.LittleEndian
	off := 16 + int(le.Uint16(blob[14:])) + 4 // past header, name and object count
	if tiles := int(le.Uint16(blob[off:])); tiles != len(sh.Tiles) {
		t.Fatalf("manifest lists %d tiles, the relation has %d", tiles, len(sh.Tiles))
	}
	off += 2
	v2 := manifestToV1(t, blob)[:off]
	le.PutUint16(v2[4:], 2)
	for _, tile := range sh.Tiles {
		end := off + 36 + 4*int(le.Uint32(blob[off+32:]))
		v2 = append(v2, blob[off:end]...)
		stats := appendStatsV1(nil, tile.Rel.Stats)
		v2 = le.AppendUint32(v2, uint32(len(stats)))
		v2 = append(v2, stats...)
		off = end
	}
	if off != len(blob) {
		t.Fatalf("walked %d of %d manifest bytes", off, len(blob))
	}
	return v2
}

// tileToV3 rewrites a tile file in place into relation-store version 3:
// the version field patched and the statistics trailer appended. A tile
// file is a 16-byte page-store header, then the store's uint64 length
// and bytes in page slots, the last one zero-padded.
func tileToV3(t *testing.T, path string, st *plan.Stats) {
	t.Helper()
	le := binary.LittleEndian
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	slot := int(le.Uint32(raw[8:]))
	store := bytes.Clone(raw[24 : 24+le.Uint64(raw[16:])])
	le.PutUint16(store[4:], 3)
	stats := appendStatsV1(nil, st)
	store = append(le.AppendUint32(store, uint32(len(stats))), stats...)

	out := le.AppendUint64(bytes.Clone(raw[:16]), uint64(len(store)))
	out = append(out, store...)
	out = append(out, make([]byte, (slot-(len(out)-16)%slot)%slot)...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkDowngradedStores saves R and S as 3-tile stores, joins them
// reopened, rewrites both stores on disk with downgrade, and checks that
// the old layout opens with a fresh build's statistics and joins
// identically. It returns R's store directory and the configuration.
func checkDowngradedStores(t *testing.T, downgrade func(dir string, sh *Sharded)) (string, multistep.Config) {
	t.Helper()
	rp, sp, cfg := testWorkload(t)
	shR, shS := Build("R", rp, 3, cfg), Build("S", sp, 3, cfg)

	dir := t.TempDir()
	rDir, sDir := filepath.Join(dir, "R"), filepath.Join(dir, "S")
	stores := map[string]*Sharded{rDir: shR, sDir: shS}
	for d, sh := range stores {
		if err := Save(d, sh); err != nil {
			t.Fatal(err)
		}
	}
	open := func() (*Sharded, *Sharded) {
		t.Helper()
		r, err := Open(rDir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Open(sDir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r, s
	}
	r, s := open()
	golden, gst, err := Join(context.Background(), r, s, multistep.WithPlan())
	if err != nil {
		t.Fatal(err)
	}

	for d, sh := range stores {
		downgrade(d, sh)
	}
	r, s = open()
	for i, tile := range r.Tiles {
		if !reflect.DeepEqual(tile.Rel.Stats, shR.Tiles[i].Rel.Stats) {
			t.Errorf("tile %d opened with statistics %+v, a fresh build has %+v", i, tile.Rel.Stats, shR.Tiles[i].Rel.Stats)
		}
	}
	got, st, err := Join(context.Background(), r, s, multistep.WithPlan())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, golden) {
		t.Errorf("downgraded store joined differently: %d vs %d pairs", len(got), len(golden))
	}
	if !reflect.DeepEqual(st, gst) {
		t.Errorf("downgraded store reported different statistics:\nold     %+v\ncurrent %+v", st, gst)
	}
	return rDir, cfg
}

// rewriteManifest applies f to the manifest of the store in dir.
func rewriteManifest(t *testing.T, dir string, f func([]byte) []byte) {
	t.Helper()
	mf := filepath.Join(dir, ManifestName)
	blob, err := os.ReadFile(mf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mf, f(blob), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestManifestV1Compat(t *testing.T) {
	rDir, cfg := checkDowngradedStores(t, func(dir string, _ *Sharded) {
		rewriteManifest(t, dir, func(b []byte) []byte { return manifestToV1(t, b) })
	})
	// A truncated v1 manifest must still be rejected.
	rewriteManifest(t, rDir, func(b []byte) []byte { return b[:len(b)-3] })
	if _, err := Open(rDir, cfg); err == nil {
		t.Error("Open accepted a truncated v1 manifest")
	}
}

// TestManifestV2Compat: a version 2 store — per-tile blobs in the
// manifest, version 3 tile files — opens and joins like a current one,
// and a blob whose length prefix runs past the manifest is rejected.
func TestManifestV2Compat(t *testing.T) {
	var v2 []byte // R's version 2 manifest
	var at int    // offset of its last blob's length prefix
	rDir, cfg := checkDowngradedStores(t, func(dir string, sh *Sharded) {
		rewriteManifest(t, dir, func(b []byte) []byte {
			b = manifestToV2(t, b, sh)
			if sh.Name == "R" {
				v2 = b
				at = len(b) - len(appendStatsV1(nil, sh.Tiles[len(sh.Tiles)-1].Rel.Stats)) - 4
			}
			return b
		})
		for _, tile := range sh.Tiles {
			tileToV3(t, tilePath(dir, tile.Index), tile.Rel.Stats)
		}
	})

	for _, lie := range []uint32{binary.LittleEndian.Uint32(v2[at:]) + 1, math.MaxUint32} {
		rewriteManifest(t, rDir, func([]byte) []byte {
			bad := bytes.Clone(v2)
			binary.LittleEndian.PutUint32(bad[at:], lie)
			return bad
		})
		if _, err := Open(rDir, cfg); !errors.Is(err, ErrBadManifest) {
			t.Errorf("blob length %d: err = %v, want ErrBadManifest", lie, err)
		}
	}
}
