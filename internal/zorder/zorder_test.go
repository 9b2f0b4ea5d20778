package zorder

import "testing"

func TestEncodeInterleaves(t *testing.T) {
	if Encode(0, 0) != 0 {
		t.Error("Encode(0,0) must be 0")
	}
	if Encode(1, 0) != 1 {
		t.Errorf("Encode(1,0) = %d, want 1", Encode(1, 0))
	}
	if Encode(0, 1) != 2 {
		t.Errorf("Encode(0,1) = %d, want 2", Encode(0, 1))
	}
	if Encode(1, 1) != 3 {
		t.Errorf("Encode(1,1) = %d, want 3", Encode(1, 1))
	}
	// Z order is monotone in quadrants: all cells of the lower-left
	// quadrant precede the upper-right quadrant.
	if Encode(2, 2) <= Encode(1, 1) {
		t.Error("quadrant ordering broken")
	}
	// The top bits of both 20-bit axes land in the code's top bits: x's
	// bit i at bit 2i, y's at bit 2i+1.
	const top = 1 << (MaxLevel - 1)
	for _, c := range []struct {
		x, y uint32
		want uint64
	}{
		{top, 0, 1 << (2*MaxLevel - 2)},
		{0, top, 1 << (2*MaxLevel - 1)},
		{1<<MaxLevel - 1, 0, 0x55_5555_5555},
		{0, 1<<MaxLevel - 1, 0xAA_AAAA_AAAA},
		{1<<MaxLevel - 1, 1<<MaxLevel - 1, 1<<(2*MaxLevel) - 1},
	} {
		if got := Encode(c.x, c.y); got != c.want {
			t.Errorf("Encode(%#x, %#x) = %#x, want %#x", c.x, c.y, got, c.want)
		}
	}
}
