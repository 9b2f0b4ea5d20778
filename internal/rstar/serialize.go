package rstar

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/storage"
)

// The R*-tree persists in a page-granular layout: one fixed-size slot per
// page ID, so the serialized form mirrors the paged structure the buffer
// accounting models and a slot can be fetched individually by page
// number. Reconstruction preserves the page IDs exactly — a join on a
// reopened tree replays the identical page-access trace, so the hit/miss
// counts match the originally built tree byte for byte.
//
// The physical slot is larger than the modelled page (cfg.PageSize):
// the model follows the paper's 4-byte-coordinate entry sizes (16 B per
// MBR), while the implementation stores float64 coordinates (32 B per
// MBR) plus a 4-byte ID. The slot size is therefore derived from the
// node capacities, not from cfg.PageSize; the modelled metrics are not
// affected (see DESIGN.md, "On-disk formats").
//
// Layout (little endian):
//
//	magic    uint32  'RSTP'
//	version  uint16  1
//	slot     uint32  bytes per node slot
//	nextPage uint32  number of slots
//	rootPage uint32
//	height   uint16
//	size     uint64  number of stored items
//	slots ×nextPage, each slot bytes:
//	  used  uint8   0 = free page (unreachable after deletes), 1 = node
//	  leaf  uint8
//	  count uint16
//	  entries ×count: rect 4×float64, then item ID (leaf) or child
//	  page (internal) as uint32
const (
	treeMagic       = 0x52535450 // "RSTP"
	treeVersion     = 1
	treeHeaderBytes = 28
	slotHeaderBytes = 4
	slotEntryBytes  = 4*8 + 4
)

// ErrCorrupt reports malformed serialized tree data.
var ErrCorrupt = errors.New("rstar: corrupt serialized tree")

// slotBytes returns the physical slot size implied by the node
// capacities.
func (t *Tree) slotBytes() int {
	return slotHeaderBytes + slotEntryBytes*maxInt(t.leafCap, t.innerCap)
}

// MarshalBinary serializes the tree in the page-granular layout. Free
// pages (left behind by deletions) become zeroed slots.
func (t *Tree) MarshalBinary() ([]byte, error) {
	slot := t.slotBytes()
	if t.nextPage > math.MaxUint32/2 || t.height > math.MaxUint16 {
		return nil, fmt.Errorf("rstar: tree with %d pages exceeds the format", t.nextPage)
	}
	buf := make([]byte, treeHeaderBytes+int(t.nextPage)*slot)
	binary.LittleEndian.PutUint32(buf[0:], treeMagic)
	binary.LittleEndian.PutUint16(buf[4:], treeVersion)
	binary.LittleEndian.PutUint32(buf[6:], uint32(slot))
	binary.LittleEndian.PutUint32(buf[10:], uint32(t.nextPage))
	binary.LittleEndian.PutUint32(buf[14:], uint32(t.root.page))
	binary.LittleEndian.PutUint16(buf[18:], uint16(t.height))
	binary.LittleEndian.PutUint64(buf[20:], uint64(t.size))
	if err := t.marshalNode(buf, t.root, slot); err != nil {
		return nil, err
	}
	return buf, nil
}

func (t *Tree) marshalNode(buf []byte, n *node, slot int) error {
	if len(n.entries) > (slot-slotHeaderBytes)/slotEntryBytes {
		return fmt.Errorf("rstar: node with %d entries overflows the %d-byte slot", len(n.entries), slot)
	}
	s := buf[treeHeaderBytes+int(n.page)*slot:]
	s[0] = 1
	if n.leaf {
		s[1] = 1
	}
	binary.LittleEndian.PutUint16(s[2:], uint16(len(n.entries)))
	off := slotHeaderBytes
	for _, e := range n.entries {
		putRect(s[off:], e.rect)
		if n.leaf {
			binary.LittleEndian.PutUint32(s[off+32:], uint32(e.item.ID))
		} else {
			binary.LittleEndian.PutUint32(s[off+32:], uint32(e.child.page))
			if err := t.marshalNode(buf, e.child, slot); err != nil {
				return err
			}
		}
		off += slotEntryBytes
	}
	return nil
}

func putRect(b []byte, r geom.Rect) {
	binary.LittleEndian.PutUint64(b[0:], math.Float64bits(r.MinX))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(r.MinY))
	binary.LittleEndian.PutUint64(b[16:], math.Float64bits(r.MaxX))
	binary.LittleEndian.PutUint64(b[24:], math.Float64bits(r.MaxY))
}

func getRect(b []byte) geom.Rect {
	return geom.Rect{
		MinX: math.Float64frombits(binary.LittleEndian.Uint64(b[0:])),
		MinY: math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		MaxX: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
		MaxY: math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
	}
}

// rawNode is one parsed slot before the tree is linked.
type rawNode struct {
	used     bool
	leaf     bool
	rects    []geom.Rect
	ids      []uint32 // item IDs (leaf) or child pages (internal)
	resolved *node
}

// UnmarshalTree reconstructs a tree serialized by MarshalBinary under the
// same configuration (the capacities and buffer derive from cfg, so cfg
// must equal the one the tree was built with — the relation store's
// config fingerprint enforces this). Page IDs, structure and statistics
// are restored exactly; the buffer starts empty (restore a snapshot with
// Buffer().Restore to resume a saved buffer state). The tree comes back
// finished: its nodes' plane-sweep orders are computed here, before any
// join.
func UnmarshalTree(data []byte, cfg Config) (*Tree, error) {
	t := New(cfg)
	if len(data) < treeHeaderBytes {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(data[0:]) != treeMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != treeVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, v)
	}
	slot := int(binary.LittleEndian.Uint32(data[6:]))
	nextPage := int(binary.LittleEndian.Uint32(data[10:]))
	rootPage := int(binary.LittleEndian.Uint32(data[14:]))
	height := int(binary.LittleEndian.Uint16(data[18:]))
	size := binary.LittleEndian.Uint64(data[20:])
	if slot != t.slotBytes() {
		return nil, fmt.Errorf("%w: slot size %d does not match the configuration (want %d)", ErrCorrupt, slot, t.slotBytes())
	}
	if nextPage < 1 || uint64(len(data)-treeHeaderBytes) != uint64(nextPage)*uint64(slot) {
		return nil, fmt.Errorf("%w: %d slots of %d bytes do not fill %d bytes", ErrCorrupt, nextPage, slot, len(data)-treeHeaderBytes)
	}
	if rootPage >= nextPage || height < 1 || size > uint64(nextPage)*uint64(t.leafCap) {
		return nil, fmt.Errorf("%w: implausible header (root %d height %d size %d)", ErrCorrupt, rootPage, height, size)
	}

	raw := make([]rawNode, nextPage)
	for i := range raw {
		s := data[treeHeaderBytes+i*slot : treeHeaderBytes+(i+1)*slot]
		switch s[0] {
		case 0:
			continue // free page
		case 1:
		default:
			return nil, fmt.Errorf("%w: bad slot tag %d", ErrCorrupt, s[0])
		}
		r := &raw[i]
		r.used = true
		r.leaf = s[1] == 1
		count := int(binary.LittleEndian.Uint16(s[2:]))
		cap := t.innerCap
		if r.leaf {
			cap = t.leafCap
		}
		if s[1] > 1 || count > cap || slotHeaderBytes+count*slotEntryBytes > slot {
			return nil, fmt.Errorf("%w: slot %d with %d entries", ErrCorrupt, i, count)
		}
		r.rects = make([]geom.Rect, count)
		r.ids = make([]uint32, count)
		for k := 0; k < count; k++ {
			e := s[slotHeaderBytes+k*slotEntryBytes:]
			r.rects[k] = getRect(e)
			r.ids[k] = binary.LittleEndian.Uint32(e[32:])
		}
	}

	items := 0
	root, err := resolveNode(raw, rootPage, height, &items)
	if err != nil {
		return nil, err
	}
	for i := range raw {
		if raw[i].used && raw[i].resolved == nil {
			return nil, fmt.Errorf("%w: orphan node at page %d", ErrCorrupt, i)
		}
	}
	if uint64(items) != size {
		return nil, fmt.Errorf("%w: %d reachable items, header says %d", ErrCorrupt, items, size)
	}
	t.root = root
	t.height = height
	t.size = items
	t.nextPage = storage.PageID(nextPage)
	t.orderEntries()
	return t, nil
}

// Items calls fn for every stored item in tree order without routing the
// walk through the page buffer — a structural scan for serialization and
// validation that must not disturb the modelled access counts.
func (t *Tree) Items(fn func(Item)) { itemsRec(t.root, fn) }

func itemsRec(n *node, fn func(Item)) {
	for _, e := range n.entries {
		if n.leaf {
			fn(e.item)
		} else {
			itemsRec(e.child, fn)
		}
	}
}

// resolveNode links the raw slot at page into a node tree, checking that
// every page is referenced at most once and that all leaves sit at level
// 1. Directory entry rectangles are recomputed from the child bounds
// (they are exact copies in the source tree), so the invariant
// rect == child.bounds() holds by construction.
func resolveNode(raw []rawNode, page, level int, items *int) (*node, error) {
	if page < 0 || page >= len(raw) || !raw[page].used {
		return nil, fmt.Errorf("%w: reference to free page %d", ErrCorrupt, page)
	}
	r := &raw[page]
	if r.resolved != nil {
		return nil, fmt.Errorf("%w: page %d referenced twice", ErrCorrupt, page)
	}
	if r.leaf != (level == 1) {
		return nil, fmt.Errorf("%w: leaf flag of page %d contradicts level %d", ErrCorrupt, page, level)
	}
	n := &node{page: storage.PageID(page), leaf: r.leaf}
	r.resolved = n
	n.entries = make([]entry, len(r.rects))
	for k := range r.rects {
		if r.leaf {
			it := Item{Rect: r.rects[k], ID: int32(r.ids[k])}
			n.entries[k] = entry{rect: it.Rect, item: it}
			*items++
			continue
		}
		child, err := resolveNode(raw, int(r.ids[k]), level-1, items)
		if err != nil {
			return nil, err
		}
		n.entries[k] = entry{rect: child.bounds(), child: child}
	}
	return n, nil
}
