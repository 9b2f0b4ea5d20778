package trstar

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"spatialjoin/internal/decomp"
	"spatialjoin/internal/ops"
)

func TestSerializeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(431))
	for trial := 0; trial < 20; trial++ {
		p := starPoly(rng, rng.Float64()*3, rng.Float64()*3, 1, 8+rng.Intn(120))
		orig := NewFromPolygon(p, 3+trial%3)
		data, err := orig.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		got, err := UnmarshalBinary(data)
		if err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if got.Height() != orig.Height() || got.NumTrapezoids() != orig.NumTrapezoids() ||
			got.Capacity() != orig.Capacity() {
			t.Fatalf("roundtrip changed shape: %d/%d/%d vs %d/%d/%d",
				got.Height(), got.NumTrapezoids(), got.Capacity(),
				orig.Height(), orig.NumTrapezoids(), orig.Capacity())
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("roundtrip invalid: %v", err)
		}
		// The loaded tree answers identically.
		other := NewFromPolygon(starPoly(rng, rng.Float64()*3, rng.Float64()*3, 1, 12), 3)
		var c1, c2 ops.Counters
		if Intersects(orig, other, &c1) != Intersects(got, other, &c2) {
			t.Fatal("roundtrip changed intersection answers")
		}
		// Serialization is deterministic.
		again, _ := got.MarshalBinary()
		if !bytes.Equal(data, again) {
			t.Fatal("serialization not deterministic")
		}
	}
}

func TestSerializeEmpty(t *testing.T) {
	empty := New(nil, 3)
	data, err := empty.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTrapezoids() != 0 || got.Height() != 1 {
		t.Error("empty roundtrip malformed")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(433))
	tree := NewFromPolygon(starPoly(rng, 0, 0, 1, 40), 3)
	data, _ := tree.MarshalBinary()

	cases := map[string][]byte{
		"empty":          {},
		"short":          data[:8],
		"bad magic":      append([]byte{1, 2, 3, 4}, data[4:]...),
		"truncated":      data[:len(data)-5],
		"trailing":       append(append([]byte{}, data...), 0xAB),
		"tiny cap":       mutate(data, 4, 1),
		"zero height":    mutate(data, 5, 0),
		"height too low": mutate(data, 5, byte(tree.Height()-1)),
		"height too big": mutate(data, 5, byte(tree.Height()+1)),
		"node tag":       mutate(data, 10, 7),
		"count too big":  mutate(data, 11, 255),
		"deep chain":     deepChain(1 << 16),
	}
	for name, bad := range cases {
		if _, err := UnmarshalBinary(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: corruption not detected (%v)", name, err)
		}
	}
}

// TestUnmarshalStopsAtHeight checks that a chain deeper than the
// header's height, or under a zero height, is rejected at the first node
// too deep — after a handful of allocations, not one node per level of
// the blob.
func TestUnmarshalStopsAtHeight(t *testing.T) {
	const depth = 1 << 16
	chain := deepChain(depth)
	for _, height := range []byte{2, 0} {
		blob := mutate(chain, 5, height)
		if allocs := testing.AllocsPerRun(1, func() { UnmarshalBinary(blob) }); allocs > 16 {
			t.Errorf("decoding a %d-deep chain under height %d allocated %.0f objects", depth, height, allocs)
		}
	}
}

// deepChain returns a blob whose header claims a two-level tree over a
// chain of depth one-entry internal nodes ending in an empty leaf: the
// shape that, decoded without regard to the height, grows the stack with
// the blob.
func deepChain(depth int) []byte {
	b := binary.LittleEndian.AppendUint32(nil, serialMagic)
	b = append(b, DefaultCapacity, 2)
	b = binary.LittleEndian.AppendUint32(b, 0)
	for i := 0; i < depth; i++ {
		b = append(b, 0, 1)
	}
	return append(b, 1, 0)
}

// FuzzUnmarshalBinary feeds corrupt trees to the decoder: it must answer
// ErrCorrupt or a tree that marshals back to exactly its input, and never
// panic or nest deeper than the header's height.
func FuzzUnmarshalBinary(f *testing.F) {
	for _, p := range sf001(f, "R", 4) {
		for _, capacity := range []int{3, 5} {
			data, err := New(decomp.Trapezoidize(p), capacity).MarshalBinary()
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	empty, _ := New(nil, DefaultCapacity).MarshalBinary()
	f.Add(empty)
	f.Add(deepChain(1000))
	f.Fuzz(func(t *testing.T, data []byte) {
		tree, err := UnmarshalBinary(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v is not ErrCorrupt", err)
			}
			return
		}
		again, err := tree.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("the decoded tree does not marshal back to its input")
		}
	})
}

func mutate(data []byte, pos int, v byte) []byte {
	out := append([]byte{}, data...)
	if pos < len(out) {
		out[pos] = v
	}
	return out
}
