package approx

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"spatialjoin/internal/codec"
	"spatialjoin/internal/convex"
	"spatialjoin/internal/geom"
)

// An approximation set persists as a presence bitmask followed by the
// parameters of each present kind, so a relation store carries exactly
// the approximations the configuration computed — the "build once"
// counterpart of Compute (see DESIGN.md, "On-disk formats").
//
// Layout (little endian):
//
//	flags   uint16   bit i set ⇔ Kind(i) present (MBR always)
//	objArea float64
//	mbr     4×float64
//	per present kind, in Kind order:
//	  RMBR — center, W, H, angle, 4 corners (13 float64)
//	  CH/C4/C5 — n uint16, then n points (degenerate hulls allowed)
//	  MBC/MEC — center, radius (3 float64)
//	  MBE — center, B00, B01, B10, B11 (6 float64)
//	  MER — 4 float64

// ErrCorruptSet reports malformed serialized approximation data.
var ErrCorruptSet = errors.New("approx: corrupt serialized approximation set")

// AppendBinary appends the serialized set to buf and returns the
// extended slice. It fails (leaving buf unextended) when a ring exceeds
// the format's uint16 length field — in practice only conceivable for a
// convex hull of a degenerate, extremely detailed object.
func (s *Set) AppendBinary(buf []byte) ([]byte, error) {
	for _, ring := range []geom.Ring{s.CHA, s.C4A, s.C5A} {
		if len(ring) > math.MaxUint16 {
			return buf, fmt.Errorf("approx: ring of %d points exceeds the format", len(ring))
		}
	}
	var flags uint16
	for k := MBR; k <= MER; k++ {
		if s.Has(k) {
			flags |= 1 << uint(k)
		}
	}
	buf = binary.LittleEndian.AppendUint16(buf, flags)
	buf = appendF64(buf, s.ObjArea)
	buf = appendRect(buf, s.MBR)
	if s.RMBRA != nil {
		buf = appendPoint(buf, s.RMBRA.Center)
		buf = appendF64(buf, s.RMBRA.W, s.RMBRA.H, s.RMBRA.Angle)
		for _, c := range s.RMBRA.Corners {
			buf = appendPoint(buf, c)
		}
	}
	for _, ring := range []geom.Ring{s.CHA, s.C4A, s.C5A} {
		if ring == nil {
			continue
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(ring)))
		for _, p := range ring {
			buf = appendPoint(buf, p)
		}
	}
	if s.MBCA != nil {
		buf = appendPoint(buf, s.MBCA.C)
		buf = appendF64(buf, s.MBCA.R)
	}
	if s.MBEA != nil {
		buf = appendPoint(buf, s.MBEA.C)
		buf = appendF64(buf, s.MBEA.B00, s.MBEA.B01, s.MBEA.B10, s.MBEA.B11)
	}
	if s.MECA != nil {
		buf = appendPoint(buf, s.MECA.C)
		buf = appendF64(buf, s.MECA.R)
	}
	if s.MERA != nil {
		buf = appendRect(buf, *s.MERA)
	}
	return buf, nil
}

// DecodeSet decodes one set from the front of data, returning the set
// and the number of bytes consumed. p is the object the set
// approximates: its witness vertices are derived from it, as Compute
// derives them, because the format does not store them.
func DecodeSet(data []byte, p *geom.Polygon) (*Set, int, error) {
	d := codec.New(data, fmt.Errorf("%w: truncated", ErrCorruptSet))
	point := func() geom.Point { return geom.Point{X: d.F64(), Y: d.F64()} }
	rect := func() geom.Rect {
		return geom.Rect{MinX: d.F64(), MinY: d.F64(), MaxX: d.F64(), MaxY: d.F64()}
	}
	flags := d.U16()
	s := &Set{ObjArea: d.F64(), MBR: rect()}
	if flags&(1<<uint(MBR)) == 0 || flags >= 1<<uint(MER+1) {
		return nil, 0, fmt.Errorf("%w: bad kind flags %#x", ErrCorruptSet, flags)
	}
	if flags&(1<<uint(RMBR)) != 0 {
		o := convex.OrientedRect{Center: point(), W: d.F64(), H: d.F64(), Angle: d.F64()}
		for i := range o.Corners {
			o.Corners[i] = point()
		}
		s.RMBRA = &o
	}
	for _, dst := range []struct {
		k    Kind
		ring *geom.Ring
	}{{CH, &s.CHA}, {C4, &s.C4A}, {C5, &s.C5A}} {
		if flags&(1<<uint(dst.k)) == 0 {
			continue
		}
		n := int(d.U16())
		if d.Err() == nil && d.Remaining() < n*16 {
			return nil, 0, fmt.Errorf("%w: ring of %d points exceeds the remaining data", ErrCorruptSet, n)
		}
		ring := make(geom.Ring, 0, n)
		for i := 0; i < n; i++ {
			ring = append(ring, point())
		}
		*dst.ring = ring
	}
	if flags&(1<<uint(MBC)) != 0 {
		s.MBCA = &Circle{C: point(), R: d.F64()}
	}
	if flags&(1<<uint(MBE)) != 0 {
		s.MBEA = &Ellipse{C: point(), B00: d.F64(), B01: d.F64(), B10: d.F64(), B11: d.F64()}
	}
	if flags&(1<<uint(MEC)) != 0 {
		s.MECA = &Circle{C: point(), R: d.F64()}
	}
	if flags&(1<<uint(MER)) != 0 {
		r := rect()
		s.MERA = &r
	}
	if d.Err() != nil {
		return nil, 0, d.Err()
	}
	s.deriveWitnesses(p)
	return s, d.Pos(), nil
}

func appendF64(buf []byte, vs ...float64) []byte {
	for _, v := range vs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

func appendPoint(buf []byte, p geom.Point) []byte { return appendF64(buf, p.X, p.Y) }

func appendRect(buf []byte, r geom.Rect) []byte {
	return appendF64(buf, r.MinX, r.MinY, r.MaxX, r.MaxY)
}
