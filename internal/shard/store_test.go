package shard

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"spatialjoin/internal/multistep"
)

// TestStoreRoundTrip: a 4-shard store written and reopened through the
// manifest joins and queries identically to the in-memory build — and to
// the unsharded golden.
func TestStoreRoundTrip(t *testing.T) {
	rp, sp, cfg := testWorkload(t)
	shR, shS := Build("R", rp, 4, cfg), Build("S", sp, 4, cfg)
	golden, _, err := multistep.Join(context.Background(),
		multistep.NewRelation("R", rp, cfg), multistep.NewRelation("S", sp, cfg))
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	rDir, sDir := filepath.Join(dir, "R"), filepath.Join(dir, "S")
	if err := Save(rDir, shR); err != nil {
		t.Fatal(err)
	}
	if err := Save(sDir, shS); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, cfg); err == nil {
		t.Error("Open must reject a directory without a manifest")
	}

	gotR, err := Open(rDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotS, err := Open(sDir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if gotR.Name != "R" || gotR.Shards() != 4 || gotR.Objects() != len(rp) {
		t.Fatalf("reopened facade: name %q, %d tiles, %d objects", gotR.Name, gotR.Shards(), gotR.Objects())
	}
	if gotR.MBR() != shR.MBR() {
		t.Errorf("reopened MBR %v, want %v", gotR.MBR(), shR.MBR())
	}
	pairs, _, err := Join(context.Background(), gotR, gotS)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(pairs, golden) {
		t.Fatalf("reopened store joins to %d pairs, golden has %d", len(pairs), len(golden))
	}
}

// TestStoreEmptyRelationRoundTrip: the degenerate one-empty-tile store
// survives the trip too.
func TestStoreEmptyRelationRoundTrip(t *testing.T) {
	_, _, cfg := testWorkload(t)
	dir := filepath.Join(t.TempDir(), "E")
	if err := Save(dir, Build("E", nil, 4, cfg)); err != nil {
		t.Fatal(err)
	}
	got, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Objects() != 0 || got.Shards() != 1 {
		t.Errorf("reopened empty store: %d objects, %d tiles", got.Objects(), got.Shards())
	}
}

// TestOpenRejectsManifestFingerprintMismatch: opening a store under a
// different configuration fails before any tile is touched.
func TestOpenRejectsManifestFingerprintMismatch(t *testing.T) {
	rp, _, cfg := testWorkload(t)
	dir := filepath.Join(t.TempDir(), "R")
	if err := Save(dir, Build("R", rp, 2, cfg)); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Engine = multistep.EngineQuadratic
	if _, err := Open(dir, other); !errors.Is(err, multistep.ErrConfigMismatch) {
		t.Errorf("mismatched config opened: %v", err)
	}
}

// TestOpenRejectsSwappedTile: a tile file from a store built under a
// different configuration is rejected by its own fingerprint even when
// the manifest matches — the per-tile defense the acceptance criteria
// require.
func TestOpenRejectsSwappedTile(t *testing.T) {
	rp, sp, cfg := testWorkload(t)
	other := cfg
	other.Engine = multistep.EngineQuadratic // same page size: the swap reaches the fingerprint check

	base := t.TempDir()
	goodDir, alienDir := filepath.Join(base, "good"), filepath.Join(base, "alien")
	if err := Save(goodDir, Build("R", rp, 4, cfg)); err != nil {
		t.Fatal(err)
	}
	if err := Save(alienDir, Build("S", sp, 4, other)); err != nil {
		t.Fatal(err)
	}
	alien, err := os.ReadFile(tilePath(alienDir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tilePath(goodDir, 2), alien, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(goodDir, cfg); !errors.Is(err, multistep.ErrConfigMismatch) {
		t.Errorf("swapped tile opened: %v", err)
	}
}

// TestOpenRejectsCorruptManifest covers truncation, bad magic, an older
// version and trailing garbage.
func TestOpenRejectsCorruptManifest(t *testing.T) {
	rp, _, cfg := testWorkload(t)
	dir := filepath.Join(t.TempDir(), "R")
	if err := Save(dir, Build("R", rp, 2, cfg)); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, ManifestName)
	blob, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		mut  func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bad magic", func(b []byte) []byte { c := slices.Clone(b); c[0] ^= 0xFF; return c }},
		{"version 2", func(b []byte) []byte { c := slices.Clone(b); binary.LittleEndian.PutUint16(c[4:], 2); return c }},
		{"trailing bytes", func(b []byte) []byte { return append(slices.Clone(b), 0, 0, 0) }},
	}
	for _, tc := range cases {
		if err := os.WriteFile(manifest, tc.mut(blob), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, cfg); !errors.Is(err, ErrBadManifest) {
			t.Errorf("%s: opened corrupt manifest: %v", tc.name, err)
		}
	}
}

// forgeManifest returns a 59-byte manifest under cfg: relation "R" of
// objects objects, one tile of count global IDs, and none of the IDs.
func forgeManifest(cfg multistep.Config, objects, count uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, manifestMagic)
	b = binary.LittleEndian.AppendUint16(b, manifestVersion)
	b = binary.LittleEndian.AppendUint64(b, multistep.ConfigFingerprint(cfg))
	b = binary.LittleEndian.AppendUint16(b, 1)
	b = append(b, 'R')
	b = binary.LittleEndian.AppendUint32(b, objects)
	b = binary.LittleEndian.AppendUint16(b, 1)
	b = append(b, make([]byte, 32)...) // the tile MBR
	return binary.LittleEndian.AppendUint32(b, count)
}

// TestOpenRejectsOversizedCounts: an object or tile count larger than
// the manifest bytes that remain is corrupt, and must be rejected before
// it sizes an allocation — a count of 0xFFFFFFF0 used to end the
// process out of memory.
func TestOpenRejectsOversizedCounts(t *testing.T) {
	rp, _, cfg := testWorkload(t)
	dir := filepath.Join(t.TempDir(), "R")
	if err := Save(dir, Build("R", rp, 2, cfg)); err != nil {
		t.Fatal(err)
	}
	for _, m := range [][]byte{forgeManifest(cfg, 1, 0xFFFFFFF0), forgeManifest(cfg, 0xFFFFFFF0, 0)} {
		if err := os.WriteFile(filepath.Join(dir, ManifestName), m, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, cfg); !errors.Is(err, ErrBadManifest) {
			t.Errorf("manifest %x: err = %v, want ErrBadManifest", m, err)
		}
	}
}

// FuzzOpenManifest fuzzes the manifest decoder beside the tile files of
// a real 2-tile store: any manifest must open or fail with an error —
// never panic and never over-allocate.
func FuzzOpenManifest(f *testing.F) {
	rp, _, cfg := testWorkload(f)
	dir := filepath.Join(f.TempDir(), "R")
	if err := Save(dir, Build("R", rp[:20], 2, cfg)); err != nil {
		f.Fatal(err)
	}
	manifest := filepath.Join(dir, ManifestName)
	blob, err := os.ReadFile(manifest)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add(forgeManifest(cfg, 1, 0xFFFFFFF0))
	f.Add(forgeManifest(cfg, 0xFFFFFFF0, 0))

	f.Fuzz(func(t *testing.T, m []byte) {
		if err := os.WriteFile(manifest, m, 0o644); err != nil {
			t.Fatal(err)
		}
		if sh, err := Open(dir, cfg); err == nil && sh.Objects() != 20 {
			t.Errorf("opened %d objects from a 20-object store", sh.Objects())
		}
	})
}
