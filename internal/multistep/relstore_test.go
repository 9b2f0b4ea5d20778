package multistep

import (
	"context"
	"encoding/binary"
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/data"
	"spatialjoin/internal/storage"
)

// buildPair generates two small relations under cfg, the paper's
// strategy A shape.
func buildPair(cfg Config) (*Relation, *Relation) {
	base := data.GenerateMap(data.MapConfig{Cells: 70, TargetVerts: 40, HoleFraction: 0.1, Seed: 677})
	shifted := data.StrategyA(base, 0.45)
	return NewRelation("R", base, cfg), NewRelation("S", shifted, cfg)
}

// storeBlob encodes rel as a relation store: the blob SaveRelationFile
// wraps in its file container and decodeRelation reads back.
func storeBlob(t testing.TB, rel *Relation, cfg Config) []byte {
	t.Helper()
	blob, err := appendRelation(nil, rel, cfg)
	if err != nil {
		t.Fatalf("encode %s: %v", rel.Name, err)
	}
	return blob
}

// TestRelationStoreFileRoundTrip exercises the file path:
// SaveRelationFile writes the store file and OpenRelationFile reads it
// back.
func TestRelationStoreFileRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	r, s := buildPair(cfg)
	dir := t.TempDir()
	rPath := filepath.Join(dir, "r.store")
	sPath := filepath.Join(dir, "s.store")
	if err := SaveRelationFile(rPath, r, cfg); err != nil {
		t.Fatalf("SaveRelationFile: %v", err)
	}
	if err := SaveRelationFile(sPath, s, cfg); err != nil {
		t.Fatalf("SaveRelationFile: %v", err)
	}
	wantPairs, wantStats := testJoin(t, r, s, cfg)

	r2, err := OpenRelationFile(rPath, cfg)
	if err != nil {
		t.Fatalf("OpenRelationFile: %v", err)
	}
	s2, err := OpenRelationFile(sPath, cfg)
	if err != nil {
		t.Fatalf("OpenRelationFile: %v", err)
	}
	gotPairs, gotStats := testJoin(t, r2, s2, cfg)
	if !reflect.DeepEqual(gotPairs, wantPairs) {
		t.Errorf("response set differs through the store file")
	}
	if gotStats != wantStats {
		t.Errorf("stats differ through the store file:\n got %+v\nwant %+v", gotStats, wantStats)
	}
}

// TestRelationStoreConfigMismatch: a store must refuse to open under a
// configuration other than the one it was built with.
func TestRelationStoreConfigMismatch(t *testing.T) {
	cfg := DefaultConfig()
	r, _ := buildPair(cfg)
	blob := storeBlob(t, r, cfg)

	for name, mutate := range map[string]func(*Config){
		"engine":       func(c *Config) { c.Engine = EngineQuadratic },
		"page size":    func(c *Config) { c.PageSize = 2048 },
		"conservative": func(c *Config) { c.Filter.Conservative = 0 /* MBR */ },
		"policy":       func(c *Config) { c.BufferPolicy = storage.Clock },
		"no filter":    func(c *Config) { c.UseFilter = false },
	} {
		other := cfg
		mutate(&other)
		if _, err := decodeRelation(blob, other); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("%s changed: err = %v, want ErrConfigMismatch", name, err)
		}
	}
}

// TestRelationStoreCorruptInputs: corrupt or truncated stores, and
// stores of any version but the current one, must return errors, never
// panic.
func TestRelationStoreCorruptInputs(t *testing.T) {
	cfg := DefaultConfig()
	base := data.GenerateMap(data.MapConfig{Cells: 8, TargetVerts: 16, Seed: 31})
	r := NewRelation("R", base, cfg)
	blob := storeBlob(t, r, cfg)

	// Every prefix must fail cleanly (the full blob parses).
	for _, n := range []int{0, 1, 2, 5, 13, 16, 40, 100, len(blob) / 2, len(blob) - 1} {
		if _, err := decodeRelation(blob[:n], cfg); err == nil {
			t.Errorf("truncation to %d bytes: no error", n)
		}
	}
	// An older or a newer version is refused, not migrated.
	for _, v := range []uint16{relstoreVersion - 1, relstoreVersion + 1} {
		mut := append([]byte{}, blob...)
		binary.LittleEndian.PutUint16(mut[4:], v)
		if _, err := decodeRelation(mut, cfg); !errors.Is(err, ErrBadRelationStore) || !strings.Contains(err.Error(), "cmd/datagen") {
			t.Errorf("version %d: err = %v, want ErrBadRelationStore naming cmd/datagen", v, err)
		}
	}
	// Trailing garbage must be rejected.
	if _, err := decodeRelation(append(append([]byte{}, blob...), 0xFF), cfg); err == nil {
		t.Error("trailing byte: no error")
	}
	// Flipping bytes across the blob must error or yield a fully valid
	// relation — never panic. (Flips inside polygon coordinates are
	// legitimately undetectable; structural flips must be caught.)
	for pos := 0; pos < len(blob); pos += 37 {
		mut := append([]byte{}, blob...)
		mut[pos] ^= 0x5A
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("byte flip at %d: panic %v", pos, p)
				}
			}()
			rel, err := decodeRelation(mut, cfg)
			if err == nil && len(rel.Objects) != len(r.Objects) {
				t.Errorf("byte flip at %d: silently changed object count", pos)
			}
		}()
	}
}

// TestRelationFileRejectsBadInputs: a malformed file container fails
// with ErrBadRelationStore, and a container of another page size with
// ErrConfigMismatch, before the store inside is decoded.
func TestRelationFileRejectsBadInputs(t *testing.T) {
	cfg := DefaultConfig()
	base := data.GenerateMap(data.MapConfig{Cells: 2, TargetVerts: 8, Seed: 31})
	file, err := encodeRelationFile(NewRelation("R", base, cfg), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if (len(file)-fileHeaderBytes)%cfg.PageSize != 0 {
		t.Errorf("file of %d bytes is not a header plus whole %d-byte slots", len(file), cfg.PageSize)
	}
	if _, err := decodeRelationFile(file, cfg); err != nil {
		t.Fatalf("valid file: %v", err)
	}
	withU32 := func(off int, v uint32) []byte {
		mut := append([]byte{}, file...)
		binary.LittleEndian.PutUint32(mut[off:], v)
		return mut
	}
	withLen := func(n uint64) []byte {
		mut := append([]byte{}, file...)
		binary.LittleEndian.PutUint64(mut[fileHeaderBytes:], n)
		return mut
	}
	for _, tc := range []struct {
		name string
		file []byte
		want error
	}{
		{"empty", nil, ErrBadRelationStore},
		{"truncated header", file[:2], ErrBadRelationStore},
		{"bad magic", []byte("not a store file"), ErrBadRelationStore},
		{"bad version", withU32(4, fileVersion+1), ErrBadRelationStore},
		{"zero slot", withU32(8, 0), ErrBadRelationStore},
		{"oversized slot", withU32(8, 0xFFFFFFF0), ErrConfigMismatch},
		{"other page size", withU32(8, 2048), ErrConfigMismatch},
		{"truncated length prefix", file[:fileHeaderBytes+4], ErrBadRelationStore},
		{"length beyond the file", withLen(uint64(len(file))), ErrBadRelationStore},
		{"huge length", withLen(1 << 62), ErrBadRelationStore},
	} {
		if _, err := decodeRelationFile(tc.file, cfg); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestRelationStoreRejectsMissingFilterKind: a store whose objects lack
// an approximation the configured filter reads must be rejected at open,
// not open cleanly and then fail every join.
func TestRelationStoreRejectsMissingFilterKind(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Filter.Progressive != approx.MER {
		t.Fatalf("default progressive kind is %v; this test strips MER", cfg.Filter.Progressive)
	}
	r, _ := buildPair(cfg)
	for _, o := range r.Objects {
		o.Approx.MERA = nil
	}
	blob := storeBlob(t, r, cfg)
	if _, err := decodeRelation(blob, cfg); !errors.Is(err, ErrBadRelationStore) {
		t.Errorf("store without MERs: err = %v, want ErrBadRelationStore", err)
	}
	// Without the filter the same store is complete.
	off := cfg
	off.UseFilter = false
	rOff, _ := buildPair(off)
	if _, err := decodeRelation(storeBlob(t, rOff, off), off); err != nil {
		t.Errorf("filterless store: %v", err)
	}
}

// FuzzOpenRelation fuzzes the relation store file decoder — container
// header, length prefix and store: any input must either fail with an
// error or decode into a relation that joins its seed relation without
// an error — never panic and never over-allocate.
func FuzzOpenRelation(f *testing.F) {
	cfg := DefaultConfig()
	base := data.GenerateMap(data.MapConfig{Cells: 2, TargetVerts: 8, Seed: 31})
	seed := NewRelation("seed", base, cfg)
	file, err := encodeRelationFile(seed, cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(file)
	f.Add(file[:fileHeaderBytes+40])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, file []byte) {
		rel, err := decodeRelationFile(file, cfg)
		if err != nil {
			return
		}
		if _, _, err := Join(context.Background(), rel, seed, WithWorkers(1)); err != nil {
			t.Errorf("decoded relation does not join: %v", err)
		}
	})
}
