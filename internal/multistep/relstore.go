package multistep

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/codec"
	"spatialjoin/internal/data"
	"spatialjoin/internal/rstar"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/trstar"
)

// A relation store is the versioned on-disk form of a fully preprocessed
// Relation: the polygons, every computed approximation, the R*-tree in
// its page-granular node layout, the tree's buffer state, and (under the
// TR*-tree engine) each object's serialized TR*-tree. The expensive
// preprocessing — approximations, trapezoid decomposition, tree builds —
// runs once at save time; OpenRelationFile restores a relation that joins
// with the identical response set and identical statistics (including
// the buffer hit/miss counts) as the relation it was saved from.
//
// The header carries a fingerprint of every configuration field that
// shapes the preprocessed artifacts; opening a store under a different
// configuration fails with ErrConfigMismatch instead of silently
// producing off-paper metrics. See DESIGN.md, "On-disk formats".
//
// Layout (little endian):
//
//	magic       uint32  'SJRL'
//	version     uint16  4
//	fingerprint uint64  FNV-1a of the canonical config string
//	name        uint16 length + bytes
//	objectCount uint32
//	tree        uint64 length + rstar page-granular tree
//	buffer      uint32 frame count, int32 hand index,
//	            then per frame: int32 page, uint8 referenced
//	hasTRTrees  uint8
//	objects ×objectCount:
//	  polygon   data.AppendPolygon layout
//	  approx    approx.Set layout
//	  tr-tree   uint32 length + trstar.MarshalBinary (if hasTRTrees)
//
// The planner statistics are not stored: every open derives them from
// the decoded objects. Versions 2 and 3 ended in a statistics trailer
// (uint32 length + blob); it is length-checked and skipped. Version 3
// changed no other byte: it marks stores whose MERs
// approx.MaxEnclosedRect certified to lie inside their objects. Earlier
// MERs could leave the object — a filter hit without the pair
// intersecting — so opening a version 1 or 2 store recomputes every MER
// from its polygon. Version 4 dropped the trailer.
const (
	relstoreMagic   = 0x534A524C // "SJRL"
	relstoreVersion = 4

	// fingerprintVersion seeds ConfigFingerprint. It is deliberately
	// decoupled from relstoreVersion: the fingerprint identifies the
	// *configuration* a relation was preprocessed under, not the codec
	// revision, and fingerprints are persisted in every existing store
	// and shard manifest. Bump it only when the meaning of a hashed
	// configuration field changes.
	fingerprintVersion = 1
)

var (
	// ErrBadRelationStore reports a malformed relation store.
	ErrBadRelationStore = errors.New("multistep: corrupt relation store")
	// ErrConfigMismatch reports a relation store built under a different
	// configuration than it is being opened with.
	ErrConfigMismatch = errors.New("multistep: relation store built under a different configuration")
)

// ConfigFingerprint hashes the configuration fields that shape a
// preprocessed relation: the filter approximations, the exact engine and
// its TR*-tree capacity, the page geometry, the buffer size and policy,
// and the MEC precision. Join-time-only fields (Step1, the worker
// options, PlaneSweepRestrict) are excluded — the same store serves any
// of them.
func ConfigFingerprint(cfg Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d|filter=%t|cons=%d|prog=%d|fa=%t|nocons=%t|noprog=%t|engine=%d|trcap=%d|page=%d|buffer=%d|policy=%d|mec=%g",
		fingerprintVersion, cfg.UseFilter,
		cfg.Filter.Conservative, cfg.Filter.Progressive, cfg.Filter.UseFalseArea,
		cfg.Filter.NoConservative, cfg.Filter.NoProgressive,
		cfg.Engine, cfg.TRCapacity, cfg.PageSize, cfg.BufferBytes,
		cfg.BufferPolicy, cfg.MECPrecision)
	return h.Sum64()
}

// appendRelation appends rel as a relation store built under cfg. Under
// the TR*-tree engine every object's TR*-tree is built (if it was not
// already) and persisted, completing the preprocessing the paper's
// section 4.2 stores on secondary storage.
func appendRelation(buf []byte, rel *Relation, cfg Config) ([]byte, error) {
	if len(rel.Name) > 1<<16-1 {
		return nil, fmt.Errorf("multistep: relation name of %d bytes exceeds the format", len(rel.Name))
	}
	buf = binary.LittleEndian.AppendUint32(buf, relstoreMagic)
	buf = binary.LittleEndian.AppendUint16(buf, relstoreVersion)
	buf = binary.LittleEndian.AppendUint64(buf, ConfigFingerprint(cfg))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(rel.Name)))
	buf = append(buf, rel.Name...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rel.Objects)))

	tree, err := rel.Tree.MarshalBinary()
	if err != nil {
		return nil, err
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(tree)))
	buf = append(buf, tree...)

	st := rel.Tree.Buffer().State()
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st.Frames)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(st.Hand)))
	for _, f := range st.Frames {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(f.ID))
		ref := byte(0)
		if f.Referenced {
			ref = 1
		}
		buf = append(buf, ref)
	}

	hasTR := cfg.Engine == EngineTRStar
	if hasTR {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	for _, o := range rel.Objects {
		buf = data.AppendPolygon(buf, o.Poly)
		var err error
		if buf, err = o.Approx.AppendBinary(buf); err != nil {
			return nil, fmt.Errorf("multistep: object %d: %w", o.ID, err)
		}
		if hasTR {
			tr, err := o.Tree(cfg.TRCapacity).MarshalBinary()
			if err != nil {
				return nil, err
			}
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tr)))
			buf = append(buf, tr...)
		}
	}
	return buf, nil
}

// decodeRelation reads a relation store written by appendRelation under
// the same configuration. The restored relation is ready to join
// immediately: no approximations are recomputed (except the MERs of a
// store older than version 3), no trees rebuilt, and the R*-tree resumes
// in the exact page layout and buffer state it was saved in, so join
// results and statistics equal the original's.
func decodeRelation(blob []byte, cfg Config) (*Relation, error) {
	d := codec.New(blob, fmt.Errorf("%w: truncated", ErrBadRelationStore))
	if d.U32() != relstoreMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadRelationStore)
	}
	version := d.U16()
	if d.Err() == nil && (version < 1 || version > relstoreVersion) {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadRelationStore, version)
	}
	if fp := d.U64(); d.Err() == nil && fp != ConfigFingerprint(cfg) {
		return nil, fmt.Errorf("%w: fingerprint %#x, this configuration is %#x",
			ErrConfigMismatch, fp, ConfigFingerprint(cfg))
	}
	name := string(d.Bytes(int(d.U16())))
	count := int(d.U32())

	treeLen := d.U64()
	if d.Err() == nil && treeLen > uint64(d.Remaining()) {
		return nil, fmt.Errorf("%w: tree of %d bytes exceeds the remaining data", ErrBadRelationStore, treeLen)
	}
	treeBytes := d.Bytes(int(treeLen))
	if d.Err() != nil {
		return nil, d.Err()
	}
	tree, err := rstar.UnmarshalTree(treeBytes, rstar.Config{
		PageSize:       cfg.PageSize,
		LeafEntryBytes: EntryBytes(cfg),
		BufferBytes:    cfg.BufferBytes,
		BufferPolicy:   cfg.BufferPolicy,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRelationStore, err)
	}

	frames64 := uint64(d.U32())
	hand := int(int32(d.U32()))
	// Compare in uint64: frames*5 would overflow 32-bit ints.
	if d.Err() == nil && uint64(d.Remaining()) < frames64*5 {
		return nil, fmt.Errorf("%w: buffer state of %d frames exceeds the remaining data", ErrBadRelationStore, frames64)
	}
	frames := int(frames64)
	bufState := storage.BufferState{Hand: hand}
	for i := 0; i < frames && d.Err() == nil; i++ {
		id := storage.PageID(int32(d.U32()))
		ref := d.U8()
		bufState.Frames = append(bufState.Frames, storage.FrameState{ID: id, Referenced: ref == 1})
	}
	if d.Err() == nil && (hand < -1 || hand >= frames) {
		return nil, fmt.Errorf("%w: clock hand %d outside %d frames", ErrBadRelationStore, hand, frames)
	}

	trTag := d.U8()
	if d.Err() == nil && trTag > 1 {
		return nil, fmt.Errorf("%w: bad TR*-tree tag %d", ErrBadRelationStore, trTag)
	}
	hasTR := trTag == 1
	if d.Err() == nil && hasTR != (cfg.Engine == EngineTRStar) {
		return nil, fmt.Errorf("%w: TR*-tree presence contradicts the engine", ErrBadRelationStore)
	}
	rel := &Relation{Name: name, Tree: tree, Cfg: cfg}
	for i := 0; i < count && d.Err() == nil; i++ {
		poly, n, err := data.DecodePolygon(d.Rest())
		if err != nil {
			return nil, fmt.Errorf("%w: object %d: %v", ErrBadRelationStore, i, err)
		}
		d.Skip(n)
		set, n, err := approx.DecodeSet(d.Rest())
		if err != nil {
			return nil, fmt.Errorf("%w: object %d: %v", ErrBadRelationStore, i, err)
		}
		d.Skip(n)
		if version < 3 && set.MERA != nil {
			mer := approx.MaxEnclosedRect(poly)
			set.MERA = &mer
		}
		o := &Object{ID: int32(i), Poly: poly, Approx: set}
		if hasTR {
			trLen := int(d.U32())
			if d.Err() == nil && d.Remaining() < trLen {
				return nil, fmt.Errorf("%w: object %d: TR*-tree of %d bytes exceeds the remaining data", ErrBadRelationStore, i, trLen)
			}
			trBytes := d.Bytes(trLen)
			if d.Err() != nil {
				break
			}
			tr, err := trstar.UnmarshalBinary(trBytes)
			if err != nil {
				return nil, fmt.Errorf("%w: object %d: %v", ErrBadRelationStore, i, err)
			}
			if tr.Capacity() != cfg.TRCapacity {
				return nil, fmt.Errorf("%w: object %d: TR*-tree capacity %d, configuration uses %d",
					ErrBadRelationStore, i, tr.Capacity(), cfg.TRCapacity)
			}
			o.tree.Store(tr)
		}
		rel.Objects = append(rel.Objects, o)
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if version == 2 || version == 3 {
		statsLen := int(d.U32())
		if d.Err() == nil && d.Remaining() < statsLen {
			return nil, fmt.Errorf("%w: stats trailer of %d bytes exceeds the remaining data", ErrBadRelationStore, statsLen)
		}
		d.Skip(statsLen)
		if d.Err() != nil {
			return nil, d.Err()
		}
	}
	if d.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadRelationStore, d.Remaining())
	}
	rel.Stats = rel.computeStats()

	// The tree items must index the object table: same cardinality, IDs
	// in range, every entry rectangle equal to its object's MBR.
	if tree.Size() != count {
		return nil, fmt.Errorf("%w: tree holds %d items for %d objects", ErrBadRelationStore, tree.Size(), count)
	}
	var itemErr error
	tree.Items(func(it rstar.Item) {
		if itemErr != nil {
			return
		}
		if it.ID < 0 || int(it.ID) >= count {
			itemErr = fmt.Errorf("%w: tree item ID %d outside %d objects", ErrBadRelationStore, it.ID, count)
			return
		}
		if it.Rect != rel.Objects[it.ID].Approx.MBR {
			itemErr = fmt.Errorf("%w: tree rectangle of object %d differs from its MBR", ErrBadRelationStore, it.ID)
		}
	})
	if itemErr != nil {
		return nil, itemErr
	}
	tree.Buffer().Restore(bufState)
	return rel, nil
}

// SaveRelationFile writes rel as a relation store laid out on a
// storage.FileStore: page 0 starts with the store length, and the blob
// spans consecutive cfg.PageSize-sized page slots.
func SaveRelationFile(path string, rel *Relation, cfg Config) error {
	blob, err := appendRelation(make([]byte, 8), rel, cfg)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(blob, uint64(len(blob)-8))
	fs, err := storage.CreateFileStore(path, cfg.PageSize, 1, storage.LRU)
	if err != nil {
		return err
	}
	for off := 0; off < len(blob); off += cfg.PageSize {
		end := off + cfg.PageSize
		if end > len(blob) {
			end = len(blob)
		}
		if _, err := fs.AppendPage(blob[off:end]); err != nil {
			fs.Close()
			return err
		}
	}
	return fs.Close()
}

// OpenRelationFile opens a relation store written by SaveRelationFile,
// reading it page by page through a buffered storage.FileStore — the
// disk-backed form of the store.
func OpenRelationFile(path string, cfg Config) (*Relation, error) {
	fs, err := storage.OpenFileStore(path, 1, storage.LRU)
	if err != nil {
		return nil, err
	}
	defer fs.Close()
	if fs.SlotBytes() != cfg.PageSize {
		return nil, fmt.Errorf("%w: %d-byte pages, this configuration uses %d", ErrConfigMismatch, fs.SlotBytes(), cfg.PageSize)
	}
	first, err := fs.ReadPage(0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRelationStore, err)
	}
	if len(first) < 8 {
		return nil, fmt.Errorf("%w: truncated length prefix", ErrBadRelationStore)
	}
	blobLen := binary.LittleEndian.Uint64(first)
	if blobLen > uint64(fs.Pages())*uint64(fs.SlotBytes()) {
		return nil, fmt.Errorf("%w: store length %d exceeds %d pages", ErrBadRelationStore, blobLen, fs.Pages())
	}
	blob := make([]byte, 0, blobLen)
	blob = append(blob, first[8:]...)
	for page := storage.PageID(1); uint64(len(blob)) < blobLen; page++ {
		p, err := fs.ReadPage(page)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRelationStore, err)
		}
		blob = append(blob, p...)
	}
	return decodeRelation(blob[:blobLen], cfg)
}
