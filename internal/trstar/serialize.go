package trstar

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"spatialjoin/internal/decomp"
	"spatialjoin/internal/geom"
)

// The paper stores each object's TR*-tree persistently on secondary
// storage and transfers it into main memory as a whole when the exact
// geometry is required, without rebuilding the tree (section 4.2). This
// file provides that capability: a compact, self-contained binary format
// written and read in a single pass.
//
// Layout (little endian):
//
//	magic   uint32  'TRS1'
//	cap     uint8   maximum node capacity
//	height  uint8
//	count   uint32  number of trapezoids
//	nodes in preorder:
//	  tag     uint8   0 = internal, 1 = leaf
//	  n       uint8   number of entries
//	  per entry: leaf → 8 float64 (trapezoid corners);
//	             internal → child subtree follows recursively
const serialMagic = 0x54525331 // "TRS1"

var (
	// ErrCorrupt reports malformed serialized data.
	ErrCorrupt = errors.New("trstar: corrupt serialized tree")
)

// MarshalBinary serializes the tree.
func (t *Tree) MarshalBinary() ([]byte, error) {
	if t.capacity > 255 || t.height > 255 {
		return nil, fmt.Errorf("trstar: capacity %d or height %d exceeds the format", t.capacity, t.height)
	}
	buf := make([]byte, 0, 16+t.numTraps*70)
	buf = binary.LittleEndian.AppendUint32(buf, serialMagic)
	buf = append(buf, byte(t.capacity), byte(t.height))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.numTraps))
	buf = marshalNode(buf, t.root)
	return buf, nil
}

func marshalNode(buf []byte, n *node) []byte {
	tag := byte(0)
	if n.leaf {
		tag = 1
	}
	buf = append(buf, tag, byte(len(n.entries)))
	for _, e := range n.entries {
		if n.leaf {
			for _, p := range e.trap.P {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
			}
		} else {
			buf = marshalNode(buf, e.child)
		}
	}
	return buf
}

// UnmarshalBinary reconstructs a tree serialized by MarshalBinary. Entry
// rectangles are rederived from the trapezoids (they are exact MBRs), so
// the format stores no redundant geometry.
func UnmarshalBinary(data []byte) (*Tree, error) {
	r := &reader{data: data}
	magic, ok := r.u32()
	if !ok || magic != serialMagic {
		return nil, ErrCorrupt
	}
	capByte, ok1 := r.u8()
	height, ok2 := r.u8()
	count, ok3 := r.u32()
	if !ok1 || !ok2 || !ok3 || capByte < 3 || height == 0 {
		return nil, ErrCorrupt
	}
	root, err := unmarshalNode(r, int(capByte), int(height))
	if err != nil {
		return nil, err
	}
	if r.pos != len(r.data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.data)-r.pos)
	}
	t := &Tree{
		root:     root,
		capacity: int(capByte),
		minFill:  (int(capByte)*2 + 4) / 5,
		height:   int(height),
		numTraps: int(count),
		bounds:   root.bounds(),
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return t, nil
}

// unmarshalNode decodes the subtree of a node at the given level (leaf =
// 1). Leaves must sit at level 1 and internal nodes above it, so a blob
// cannot nest deeper than its header's height: a long chain of one-entry
// internal nodes in a corrupt store is an error, not a stack overflow.
func unmarshalNode(r *reader, capacity, level int) (*node, error) {
	tag, ok1 := r.u8()
	count, ok2 := r.u8()
	if !ok1 || !ok2 || tag > 1 || int(count) > capacity || (tag == 1) != (level == 1) {
		return nil, ErrCorrupt
	}
	// Every entry takes at least a node header's or a trapezoid's bytes:
	// a count the rest of the blob cannot hold is rejected before the
	// entries are allocated.
	minEntryBytes := 2
	if tag == 1 {
		minEntryBytes = 64
	}
	if int(count)*minEntryBytes > len(r.data)-r.pos {
		return nil, ErrCorrupt
	}
	n := &node{leaf: tag == 1, entries: make([]entry, count)}
	for i := range n.entries {
		if n.leaf {
			var tr decomp.Trapezoid
			for k := 0; k < 4; k++ {
				x, okx := r.f64()
				y, oky := r.f64()
				if !okx || !oky {
					return nil, ErrCorrupt
				}
				tr.P[k] = geom.Point{X: x, Y: y}
			}
			n.entries[i] = entry{rect: tr.Bounds(), trap: tr}
		} else {
			child, err := unmarshalNode(r, capacity, level-1)
			if err != nil {
				return nil, err
			}
			n.entries[i] = entry{rect: child.bounds(), child: child}
		}
	}
	return n, nil
}

type reader struct {
	data []byte
	pos  int
}

func (r *reader) u8() (byte, bool) {
	if r.pos+1 > len(r.data) {
		return 0, false
	}
	v := r.data[r.pos]
	r.pos++
	return v, true
}

func (r *reader) u32() (uint32, bool) {
	if r.pos+4 > len(r.data) {
		return 0, false
	}
	v := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	return v, true
}

func (r *reader) f64() (float64, bool) {
	if r.pos+8 > len(r.data) {
		return 0, false
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.pos:]))
	r.pos += 8
	return v, true
}
