// Package zorder computes Z-order (Morton) cell codes: the bits of a
// cell's x and y coordinates interleaved, so that sorting cells by their
// code visits the plane quadrant by quadrant. The tile layer orders and
// partitions objects by the code of their MBR center (shard.Partition).
package zorder

// MaxLevel is the finest quadtree level supported: a 2^20 × 2^20 grid.
const MaxLevel = 20

// interleave spreads the low 20 bits of v to even bit positions.
func interleave(v uint32) uint64 {
	x := uint64(v) & 0xFFFFF
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}

// Encode returns the Z value of the cell (x, y) on the full-resolution
// grid.
func Encode(x, y uint32) uint64 {
	return interleave(x) | interleave(y)<<1
}
