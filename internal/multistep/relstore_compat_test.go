package multistep

// Backward compatibility of the relation store. Version 1 stores have
// the current layout; versions 2 and 3 end in a planner-statistics
// trailer that opening skips; versions 1 and 2 — written before MERs
// were certified enclosed — open with every MER recomputed. Every store
// opens with the statistics a fresh build derives. The tests forge
// byte-exact old blobs from the current encoder: patch the version
// field and, for versions 2 and 3, append the trailer in its old layout.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"testing"

	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/plan"
)

// appendStatsV1 appends st in the statistics-blob layout that SJRL
// version 2–3 trailers and SJSM version 2 manifests carried (big
// endian): a 6-byte header ('SJPS', version 1), the object count, seven
// float64 (MBR, mean extents, mean vertices), the 2 × uint16 histogram
// dimensions, the 256 histogram cells, a run counter and nine feedback
// words. A relation saved straight after its build had run no join, so
// the last ten words are zero.
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

// withVersion returns a copy of a relation-store blob with its version
// field rewritten.
func withVersion(blob []byte, v uint16) []byte {
	out := bytes.Clone(blob)
	binary.LittleEndian.PutUint16(out[4:], v)
	return out
}

// withTrailer forges the version 2 or 3 layout of a current blob: the
// version field rewritten and the statistics trailer (uint32 length +
// blob) appended.
func withTrailer(blob []byte, v uint16, st *plan.Stats) []byte {
	stats := appendStatsV1(nil, st)
	out := binary.LittleEndian.AppendUint32(withVersion(blob, v), uint32(len(stats)))
	return append(out, stats...)
}

// rectBytes is r as the approximation-set layout stores it.
func rectBytes(r geom.Rect) []byte {
	var b []byte
	for _, v := range []float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// TestRelationStoreV1Compat: stores of every earlier version open with
// the statistics of a fresh build and join identically to a current
// store; a trailer whose length prefix runs past the data is rejected.
func TestRelationStoreV1Compat(t *testing.T) {
	cfg := DefaultConfig()
	base := data.GenerateMap(data.MapConfig{Cells: 120, TargetVerts: 24, Seed: 99})
	shifted := data.StrategyA(base, 0.45)
	rel := NewRelation("R", base, cfg)
	s := NewRelation("S", shifted, cfg)

	current := storeBlob(t, rel, cfg)
	fromCurrent, err := decodeRelation(current, cfg)
	if err != nil {
		t.Fatalf("open version %d: %v", relstoreVersion, err)
	}
	want, wantSt, err := Join(t.Context(), fromCurrent, s, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}

	stores := map[string][]byte{
		"v1": withVersion(current, 1),
		"v2": withTrailer(current, 2, rel.Stats),
		"v3": withTrailer(current, 3, rel.Stats),
		"v4": current,
	}
	for name, blob := range stores {
		old, err := decodeRelation(blob, cfg)
		if err != nil {
			t.Fatalf("open %s store: %v", name, err)
		}
		if !reflect.DeepEqual(old.Stats, rel.Stats) {
			t.Errorf("%s store opened with statistics %+v, a fresh build has %+v", name, old.Stats, rel.Stats)
		}
		// Identical joins: response set and full statistics, including
		// the restored buffer accounting.
		got, gotSt, err := Join(t.Context(), old, s, WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotSt, wantSt) {
			t.Errorf("%s store joined differently: %d pairs %+v, want %d pairs %+v", name, len(got), gotSt, len(want), wantSt)
		}
	}

	v3 := stores["v3"]
	n := len(v3) - len(current) - 4
	for _, lie := range []uint32{uint32(n + 1), math.MaxUint32} {
		bad := bytes.Clone(v3)
		binary.LittleEndian.PutUint32(bad[len(current):], lie)
		if _, err := decodeRelation(bad, cfg); !errors.Is(err, ErrBadRelationStore) {
			t.Errorf("trailer length %d over %d bytes: err = %v, want ErrBadRelationStore", lie, n, err)
		}
	}
}

// TestRelationStoreV2RecomputesMER: a version 2 store may hold a MER that
// leaves its object. Forge one — overwrite an object's MER with its MBR —
// and the store must open with every MER equal to a fresh build's and
// join identically, while the same bytes marked version 3 open untouched.
func TestRelationStoreV2RecomputesMER(t *testing.T) {
	cfg := DefaultConfig()
	base := data.GenerateMap(data.MapConfig{Cells: 120, TargetVerts: 24, Seed: 99})
	rel := NewRelation("R", base, cfg)
	s := NewRelation("S", data.StrategyA(base, 0.45), cfg)

	v3 := withTrailer(storeBlob(t, rel, cfg), 3, rel.Stats)
	k := -1
	for i, o := range rel.Objects {
		if mer := o.Approx.MERA; mer != nil && !mer.IsEmpty() && *mer != o.Approx.MBR {
			k = i
			break
		}
	}
	if k < 0 {
		t.Fatal("no object with a proper MER")
	}
	mer, mbr := rectBytes(*rel.Objects[k].Approx.MERA), rectBytes(rel.Objects[k].Approx.MBR)
	if n := bytes.Count(v3, mer); n != 1 {
		t.Fatalf("object %d's MER occurs %d times in the store", k, n)
	}
	forged := bytes.Clone(v3)
	copy(forged[bytes.Index(forged, mer):], mbr)

	untouched, err := decodeRelation(forged, cfg)
	if err != nil {
		t.Fatalf("open forged v3: %v", err)
	}
	if got := *untouched.Objects[k].Approx.MERA; got != rel.Objects[k].Approx.MBR {
		t.Fatalf("version 3 store: MER of object %d opened as %v, want the stored MBR", k, got)
	}

	v2 := withVersion(forged, 2)
	fromV2, err := decodeRelation(v2, cfg)
	if err != nil {
		t.Fatalf("open v2: %v", err)
	}
	for i, o := range fromV2.Objects {
		if got, want := *o.Approx.MERA, *rel.Objects[i].Approx.MERA; got != want {
			t.Errorf("version 2 store: MER of object %d opened as %v, want %v", i, got, want)
		}
	}
	fromV3, err := decodeRelation(v3, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p3, st3, err := Join(t.Context(), fromV3, s, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	p2, st2, err := Join(t.Context(), fromV2, s, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p2, p3) || !reflect.DeepEqual(st2, st3) {
		t.Errorf("version 2 store joined differently: %d pairs %+v, want %d pairs %+v", len(p2), st2, len(p3), st3)
	}
}
