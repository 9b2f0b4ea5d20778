package approx

import (
	"errors"
	"reflect"
	"testing"

	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
)

func TestSetSerializeRoundTrip(t *testing.T) {
	polys := data.GenerateMap(data.MapConfig{Cells: 12, TargetVerts: 24, HoleFraction: 0.2, Seed: 97})
	for _, opt := range []Options{
		{}, // MBR only
		{Conservative: []Kind{C5}, Progressive: []Kind{MER}}, // the paper's pick
		AllOptions(),
	} {
		for i, p := range polys {
			want := Compute(p, opt)
			blob, err := want.AppendBinary(nil)
			if err != nil {
				t.Fatalf("poly %d: %v", i, err)
			}
			got, n, err := DecodeSet(blob, p)
			if err != nil {
				t.Fatalf("poly %d: %v", i, err)
			}
			if n != len(blob) {
				t.Fatalf("poly %d: consumed %d of %d bytes", i, n, len(blob))
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("poly %d: round trip differs:\n got %+v\nwant %+v", i, got, want)
			}
		}
	}
}

func TestSetSerializeConcatenation(t *testing.T) {
	// Sets embed back to back in the relation store; DecodeSet must
	// consume exactly one set and report its length.
	p1 := geom.NewPolygon([]geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 0, Y: 4}})
	p2 := geom.NewPolygon([]geom.Point{{X: 1, Y: 1}, {X: 9, Y: 2}, {X: 5, Y: 8}, {X: 1, Y: 6}})
	opt := Options{Conservative: []Kind{C5, MBC}, Progressive: []Kind{MER}}
	a, b := Compute(p1, opt), Compute(p2, opt)
	blob, err := a.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if blob, err = b.AppendBinary(blob); err != nil {
		t.Fatal(err)
	}
	gotA, n, err := DecodeSet(blob, p1)
	if err != nil {
		t.Fatal(err)
	}
	gotB, m, err := DecodeSet(blob[n:], p2)
	if err != nil {
		t.Fatal(err)
	}
	if n+m != len(blob) {
		t.Fatalf("consumed %d+%d of %d bytes", n, m, len(blob))
	}
	if !reflect.DeepEqual(gotA, a) || !reflect.DeepEqual(gotB, b) {
		t.Error("concatenated sets decode differently")
	}
}

func TestSetSerializeCorruptInputs(t *testing.T) {
	p := geom.NewPolygon([]geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 0, Y: 4}})
	blob, err := Compute(p, AllOptions()).AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(blob); n += 7 {
		if _, _, err := DecodeSet(blob[:n], p); !errors.Is(err, ErrCorruptSet) {
			t.Errorf("truncation to %d: err = %v, want ErrCorruptSet", n, err)
		}
	}
	// Unknown kind bits must be rejected.
	bad := append([]byte{}, blob...)
	bad[1] |= 0x80 // bit 15: beyond MER
	if _, _, err := DecodeSet(bad, p); !errors.Is(err, ErrCorruptSet) {
		t.Errorf("unknown kind bit: err = %v, want ErrCorruptSet", err)
	}
	// A hull length pointing past the data must not over-allocate.
	noMBR := []byte{0x00, 0x00} // flags without the MBR bit
	if _, _, err := DecodeSet(noMBR, p); !errors.Is(err, ErrCorruptSet) {
		t.Errorf("missing MBR bit: err = %v, want ErrCorruptSet", err)
	}
}

// FuzzDecodeSet fuzzes the approximation-set decoder: any input must
// either fail with an error or decode into a set whose every present
// kind takes its filter test against a computed set in both argument
// orders — never panic and never over-allocate.
func FuzzDecodeSet(f *testing.F) {
	p := geom.NewPolygon([]geom.Point{{X: 0, Y: 0}, {X: 4, Y: 0}, {X: 0, Y: 4}})
	for _, opt := range []Options{{}, {Conservative: []Kind{C5}, Progressive: []Kind{MER}}, AllOptions()} {
		blob, err := Compute(p, opt).AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	ref := Compute(geom.NewPolygon([]geom.Point{{X: 1, Y: 1}, {X: 5, Y: 2}, {X: 3, Y: 6}}), AllOptions())

	f.Fuzz(func(t *testing.T, blob []byte) {
		s, _, err := DecodeSet(blob, p)
		if err != nil {
			return
		}
		for k := MBR; k <= MER; k++ {
			if !s.Has(k) {
				continue
			}
			if k == MEC || k == MER {
				ProgressiveIntersects(k, s, ref)
				ProgressiveIntersects(k, ref, s)
			} else {
				ConservativeIntersects(k, s, ref)
				ConservativeIntersects(k, ref, s)
			}
		}
	})
}
