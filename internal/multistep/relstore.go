package multistep

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"os"

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
// and the MEC precision. Join-time-only fields (the worker options,
// PlaneSweepRestrict) are excluded — the same store serves any
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
	// The kinds the configured filter reads: an object lacking one would
	// open cleanly and then fail every join that tests it.
	var need []approx.Kind
	if cfg.UseFilter {
		kinds := cfg.Filter.Kinds()
		need = append(kinds.Conservative, kinds.Progressive...)
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
		for _, k := range need {
			if !set.Has(k) {
				return nil, fmt.Errorf("%w: object %d lacks the %v approximation the filter reads", ErrBadRelationStore, i, k)
			}
		}
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

// A relation store file wraps the store in a paged container
// (little endian): a 16-byte header — magic 'SJPS', uint32 version 1,
// uint32 slot size (cfg.PageSize), 4 zero bytes — then the uint64 store
// length and the store itself, zero-padded to a whole number of slots.
// The container is written and read sequentially, whole.
const (
	fileMagic       = 0x534A5053 // "SJPS"
	fileVersion     = 1
	fileHeaderBytes = 16
)

// SaveRelationFile writes rel as a relation store file: one write, then
// a sync.
func SaveRelationFile(path string, rel *Relation, cfg Config) error {
	buf, err := encodeRelationFile(rel, cfg)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// encodeRelationFile returns the bytes of rel's relation store file.
func encodeRelationFile(rel *Relation, cfg Config) ([]byte, error) {
	buf := make([]byte, fileHeaderBytes+8)
	binary.LittleEndian.PutUint32(buf[0:], fileMagic)
	binary.LittleEndian.PutUint32(buf[4:], fileVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(cfg.PageSize))
	buf, err := appendRelation(buf, rel, cfg)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint64(buf[fileHeaderBytes:], uint64(len(buf)-fileHeaderBytes-8))
	if pad := (len(buf) - fileHeaderBytes) % cfg.PageSize; pad != 0 {
		buf = append(buf, make([]byte, cfg.PageSize-pad)...)
	}
	return buf, nil
}

// OpenRelationFile opens a relation store file written by
// SaveRelationFile.
func OpenRelationFile(path string, cfg Config) (*Relation, error) {
	file, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeRelationFile(file, cfg)
}

// decodeRelationFile validates the container of a relation store file
// and decodes the store inside it. A slot size other than cfg.PageSize
// is a configuration mismatch; everything else malformed is a corrupt
// store.
func decodeRelationFile(file []byte, cfg Config) (*Relation, error) {
	if len(file) < fileHeaderBytes {
		return nil, fmt.Errorf("%w: truncated file header", ErrBadRelationStore)
	}
	magic := binary.LittleEndian.Uint32(file[0:])
	version := binary.LittleEndian.Uint32(file[4:])
	slot := binary.LittleEndian.Uint32(file[8:])
	if magic != fileMagic || version != fileVersion || slot == 0 {
		return nil, fmt.Errorf("%w: bad file header (magic %#x version %d slot %d)", ErrBadRelationStore, magic, version, slot)
	}
	if uint64(slot) != uint64(cfg.PageSize) {
		return nil, fmt.Errorf("%w: %d-byte pages, this configuration uses %d", ErrConfigMismatch, slot, cfg.PageSize)
	}
	body := file[fileHeaderBytes:]
	if len(body) < 8 {
		return nil, fmt.Errorf("%w: truncated length prefix", ErrBadRelationStore)
	}
	n := binary.LittleEndian.Uint64(body)
	if n > uint64(len(body)-8) {
		return nil, fmt.Errorf("%w: store length %d exceeds the %d-byte file", ErrBadRelationStore, n, len(file))
	}
	return decodeRelation(body[8:8+n], cfg)
}
