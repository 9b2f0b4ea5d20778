package rstar

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
)

func randomItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		items[i] = Item{
			Rect: geom.Rect{MinX: x, MinY: y, MaxX: x + rng.Float64()*20, MaxY: y + rng.Float64()*20},
			ID:   int32(i),
		}
	}
	return items
}

// insertAll builds a tree by dynamic insertion of items.
func insertAll(cfg Config, items []Item) *Tree {
	tr := New(cfg)
	for _, it := range items {
		tr.Insert(it)
	}
	return tr
}

func TestTreeSerializeRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	// "full" is one leaf filled exactly to capacity: the page slot holds
	// the largest node the configuration admits.
	leafCap := New(cfg).leafCap
	for _, build := range []struct {
		name string
		n    int
	}{
		{"dynamic", 700},
		{"full", leafCap},
	} {
		t.Run(build.name, func(t *testing.T) {
			tr := insertAll(cfg, randomItems(build.n, 17))
			if build.name == "full" && (tr.Height() != 1 || len(tr.root.entries) != leafCap) {
				t.Fatalf("root holds %d entries at height %d, want one full leaf of %d",
					len(tr.root.entries), tr.Height(), leafCap)
			}
			blob, err := tr.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			got, err := UnmarshalTree(blob, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Size() != tr.Size() || got.Height() != tr.Height() || got.Pages() != tr.Pages() {
				t.Fatalf("shape differs: size %d/%d height %d/%d pages %d/%d",
					got.Size(), tr.Size(), got.Height(), tr.Height(), got.Pages(), tr.Pages())
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("restored tree invalid: %v", err)
			}
			// Identical structure ⇒ identical page-access traces and
			// identical search results.
			tr.Buffer().Clear()
			got.Buffer().Clear()
			w := geom.Rect{MinX: 100, MinY: 100, MaxX: 400, MaxY: 400}
			var wantIDs, gotIDs []int32
			tr.WindowQuery(w, func(it Item) { wantIDs = append(wantIDs, it.ID) })
			got.WindowQuery(w, func(it Item) { gotIDs = append(gotIDs, it.ID) })
			if len(wantIDs) == 0 || len(wantIDs) != len(gotIDs) {
				t.Fatalf("window query %d results, want %d (nonzero)", len(gotIDs), len(wantIDs))
			}
			for i := range wantIDs {
				if wantIDs[i] != gotIDs[i] {
					t.Fatalf("window query order differs at %d", i)
				}
			}
			if tr.Buffer().Misses() != got.Buffer().Misses() || tr.Buffer().Hits() != got.Buffer().Hits() {
				t.Errorf("page trace differs: %d/%d vs %d/%d",
					tr.Buffer().Hits(), tr.Buffer().Misses(), got.Buffer().Hits(), got.Buffer().Misses())
			}
		})
	}
}

func TestTreeSerializeJoinEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	t1 := insertAll(cfg, randomItems(400, 5))
	t2 := insertAll(cfg, randomItems(400, 6))
	b1, err := t1.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := t2.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	t1.Buffer().Clear()
	t2.Buffer().Clear()
	var want int
	wantStats := seqJoin(t1, t2, func(a, b Item) { want++ })
	wantM := t1.Buffer().Misses() + t2.Buffer().Misses()

	r1, err := UnmarshalTree(b1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := UnmarshalTree(b2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r1.Buffer().Clear()
	r2.Buffer().Clear()
	var got int
	gotStats := seqJoin(r1, r2, func(a, b Item) { got++ })
	gotM := r1.Buffer().Misses() + r2.Buffer().Misses()
	if got != want || gotStats != wantStats || gotM != wantM {
		t.Errorf("join differs after round trip: %d pairs/%+v/%d misses, want %d/%+v/%d",
			got, gotStats, gotM, want, wantStats, wantM)
	}
}

func TestTreeSerializeInsertAfterReopen(t *testing.T) {
	cfg := DefaultConfig()
	tr := insertAll(cfg, randomItems(200, 9))
	blob, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalTree(blob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// nextPage must have been restored: new nodes must not collide with
	// existing page IDs.
	for _, it := range randomItems(300, 10) {
		it.ID += 1000
		got.Insert(it)
	}
	if err := got.Validate(); err != nil {
		t.Fatalf("tree invalid after post-reopen inserts: %v", err)
	}
	if got.Size() != 500 {
		t.Fatalf("size %d, want 500", got.Size())
	}
}

func TestTreeSerializeCorruptInputs(t *testing.T) {
	cfg := DefaultConfig()
	tr := insertAll(cfg, randomItems(150, 3))
	blob, err := tr.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalTree(blob, cfg); err != nil {
		t.Fatalf("pristine blob must parse: %v", err)
	}
	for _, n := range []int{0, 4, 20, treeHeaderBytes, len(blob) - 1} {
		if _, err := UnmarshalTree(blob[:n], cfg); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation to %d: err = %v, want ErrCorrupt", n, err)
		}
	}
	// A different page size must be rejected (slot mismatch).
	small := cfg
	small.PageSize = 2048
	if _, err := UnmarshalTree(blob, small); !errors.Is(err, ErrCorrupt) {
		t.Errorf("config mismatch: err = %v, want ErrCorrupt", err)
	}
	// Structural corruption must error or yield a valid tree, never
	// panic.
	for pos := 0; pos < len(blob); pos += 11 {
		mut := append([]byte{}, blob...)
		mut[pos] ^= 0xA5
		got, err := UnmarshalTree(mut, cfg)
		if err == nil {
			if vErr := got.Validate(); vErr != nil {
				// The only silent corruption a flip can cause is inside
				// rectangle coordinates, which Validate may or may not
				// notice; a structurally invalid tree must not surface.
				t.Errorf("byte flip at %d: invalid tree accepted: %v", pos, vErr)
			}
		}
	}
}

// FuzzUnmarshalTree fuzzes the page-granular tree decoder: any input must
// either fail with an error or decode into a tree that answers a window
// query and a self-join — never panic, hang or over-allocate. Small
// pages keep the seed trees a few hundred bytes.
func FuzzUnmarshalTree(f *testing.F) {
	cfg := Config{PageSize: 256, LeafEntryBytes: 48, BufferBytes: 1024}
	for _, n := range []int{0, 3, 40} {
		blob, err := insertAll(cfg, randomItems(n, int64(n))).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	blob, err := insertAll(cfg, randomItems(25, 5)).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)

	f.Fuzz(func(t *testing.T, blob []byte) {
		tr, err := UnmarshalTree(blob, cfg)
		if err != nil {
			return
		}
		tr.WindowQuery(geom.Rect{MinX: 100, MinY: 100, MaxX: 600, MaxY: 600}, func(Item) {})
		JoinParallelAccess(context.Background(), tr, tr, tr.NewSession(), tr.NewSession(), 0, 2, func(int, Item, Item) {})
	})
}
