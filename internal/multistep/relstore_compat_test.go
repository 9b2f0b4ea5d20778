package multistep

// Backward compatibility of the relation store: version 1 stores —
// written before the planner-statistics trailer existed — must still
// open, with the statistics recomputed from the decoded objects, and
// must join identically to a current store of the same relation.
// Version 1 and 2 stores — written before MERs were certified enclosed —
// open with every MER recomputed. The tests derive byte-exact old blobs
// from the current encoder by stripping the trailer and patching the
// version field: nothing else differs between the layouts.

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/plan"
)

// toV1 converts a current relation-store blob into the version 1
// layout: the stats trailer (u32 length + blob at the very end) is
// dropped and the version field rewritten.
func toV1(t *testing.T, blob []byte, st *plan.Stats) []byte {
	t.Helper()
	n := len(plan.AppendStats(nil, st))
	if len(blob) < n+4 {
		t.Fatalf("blob of %d bytes cannot hold a %d-byte stats trailer", len(blob), n)
	}
	if got := binary.LittleEndian.Uint32(blob[len(blob)-n-4:]); got != uint32(n) {
		t.Fatalf("trailer length prefix %d, want %d", got, n)
	}
	v1 := append([]byte(nil), blob[:len(blob)-n-4]...)
	binary.LittleEndian.PutUint16(v1[4:], 1)
	return v1
}

// rectBytes is r as the approximation-set layout stores it.
func rectBytes(r geom.Rect) []byte {
	var b []byte
	for _, v := range []float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

func TestRelationStoreV1Compat(t *testing.T) {
	cfg := DefaultConfig()
	base := data.GenerateMap(data.MapConfig{Cells: 120, TargetVerts: 24, Seed: 99})
	shifted := data.StrategyA(base, 0.45)
	rel := NewRelation("R", base, cfg)
	s := NewRelation("S", shifted, cfg)

	var buf bytes.Buffer
	if err := SaveRelation(&buf, rel, cfg); err != nil {
		t.Fatal(err)
	}
	v3 := buf.Bytes()
	v1 := toV1(t, v3, rel.Stats)

	fromV3, err := OpenRelation(bytes.NewReader(v3), cfg)
	if err != nil {
		t.Fatalf("open v3: %v", err)
	}
	fromV1, err := OpenRelation(bytes.NewReader(v1), cfg)
	if err != nil {
		t.Fatalf("open v1 (stats-less) store: %v", err)
	}

	// A v1 store has no persisted statistics; opening must recompute the
	// structural part so the planner works on old stores too.
	if fromV1.Stats == nil {
		t.Fatal("v1 store opened without recomputed statistics")
	}
	if fromV1.Stats.Objects != int64(len(rel.Objects)) {
		t.Fatalf("recomputed stats describe %d objects, want %d", fromV1.Stats.Objects, len(rel.Objects))
	}
	if fromV1.Stats.MBR != rel.Stats.MBR || fromV1.Stats.MeanVerts != rel.Stats.MeanVerts {
		t.Errorf("recomputed structural stats diverge: %+v vs %+v", fromV1.Stats, rel.Stats)
	}
	if !reflect.DeepEqual(fromV1.Stats.Grid, rel.Stats.Grid) {
		t.Error("recomputed density grid diverges from the saved one")
	}

	// Identical joins: response set and full statistics, including the
	// restored buffer accounting.
	p3, st3, err := Join(t.Context(), fromV3, s, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	p1, st1, err := Join(t.Context(), fromV1, s, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p3) {
		t.Errorf("v1-opened relation joined differently: %d vs %d pairs", len(p1), len(p3))
	}
	if !reflect.DeepEqual(st1, st3) {
		t.Errorf("v1-opened relation reported different statistics:\nv1 %+v\nv3 %+v", st1, st3)
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

	var buf bytes.Buffer
	if err := SaveRelation(&buf, rel, cfg); err != nil {
		t.Fatal(err)
	}
	v3 := buf.Bytes()
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

	untouched, err := OpenRelation(bytes.NewReader(forged), cfg)
	if err != nil {
		t.Fatalf("open forged v3: %v", err)
	}
	if got := *untouched.Objects[k].Approx.MERA; got != rel.Objects[k].Approx.MBR {
		t.Fatalf("version 3 store: MER of object %d opened as %v, want the stored MBR", k, got)
	}

	v2 := bytes.Clone(forged)
	binary.LittleEndian.PutUint16(v2[4:], 2)
	fromV2, err := OpenRelation(bytes.NewReader(v2), cfg)
	if err != nil {
		t.Fatalf("open v2: %v", err)
	}
	for i, o := range fromV2.Objects {
		if got, want := *o.Approx.MERA, *rel.Objects[i].Approx.MERA; got != want {
			t.Errorf("version 2 store: MER of object %d opened as %v, want %v", i, got, want)
		}
	}
	fromV3, err := OpenRelation(bytes.NewReader(v3), cfg)
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
