package approx

import (
	"spatialjoin/internal/convex"
	"spatialjoin/internal/geom"
)

// Options selects which approximations Compute derives for an object. The
// MBR is always computed — it is the geometric key of step 1. Computing
// only what an experiment needs matters: the paper's big relations hold
// 130,000 objects.
type Options struct {
	Conservative []Kind  // subset of {RMBR, CH, C4, C5, MBC, MBE}
	Progressive  []Kind  // subset of {MEC, MER}
	MECPrecision float64 // pole-of-inaccessibility precision; 0 = default
}

// AllOptions computes every approximation the paper investigates.
func AllOptions() Options {
	return Options{
		Conservative: []Kind{RMBR, CH, C4, C5, MBC, MBE},
		Progressive:  []Kind{MEC, MER},
	}
}

// Set bundles the approximations of one spatial object, mirroring what the
// paper stores next to the MBR in the R*-tree data pages plus the derived
// quantities (object area, false areas) the filter tests need. Fields for
// kinds that were not requested are zero.
type Set struct {
	ObjArea float64   // exact area of the object
	MBR     geom.Rect // minimum bounding rectangle, always present

	RMBRA *convex.OrientedRect // rotated minimum bounding rectangle
	CHA   geom.Ring            // convex hull
	C4A   geom.Ring            // minimum bounding 4-corner
	C5A   geom.Ring            // minimum bounding 5-corner
	MBCA  *Circle              // minimum bounding circle
	MBEA  *Ellipse             // minimum bounding ellipse

	MECA *Circle    // maximum enclosed circle
	MERA *geom.Rect // maximum enclosed rectangle

	// wit holds the object's witness vertices: the outer ring's leftmost,
	// rightmost, lowest and highest vertex. Each is a point of the object
	// on one side of its MBR, so ClassifyWithin proves hits with them.
	// They are derived from the polygon, never stored (a stored witness
	// would have to be checked against the polygon to be trusted); hasWit
	// is false in a Set assembled field by field.
	wit    [4]geom.Point
	hasWit bool
}

// Compute derives the requested approximations of p. This is the paper's
// object-insertion preprocessing: it runs once per object, not per join.
func Compute(p *geom.Polygon, opt Options) *Set {
	s := &Set{
		ObjArea: p.Area(),
		MBR:     p.Bounds(),
	}
	s.deriveWitnesses(p)
	var hull geom.Ring
	needHull := false
	for _, k := range opt.Conservative {
		if k == RMBR || k == CH || k == C4 || k == C5 || k == MBE {
			needHull = true
		}
	}
	var verts []geom.Point
	if needHull || containsKind(opt.Conservative, MBC) {
		verts = p.Vertices(verts)
	}
	if needHull {
		hull = convex.Hull(verts)
	}
	for _, k := range opt.Conservative {
		switch k {
		case RMBR:
			o := convex.MinAreaRect(hull)
			s.RMBRA = &o
		case CH:
			s.CHA = hull
		case C4:
			s.C4A = convex.MinBoundingKGon(hull, 4)
		case C5:
			s.C5A = convex.MinBoundingKGon(hull, 5)
		case MBC:
			c := minBoundingCircle(verts)
			s.MBCA = &c
		case MBE:
			e := minBoundingEllipse(verts)
			s.MBEA = &e
		}
	}
	for _, k := range opt.Progressive {
		switch k {
		case MEC:
			c := maxEnclosedCircle(p, opt.MECPrecision)
			s.MECA = &c
		case MER:
			r := maxEnclosedRect(p)
			s.MERA = &r
		}
	}
	return s
}

// deriveWitnesses sets the witness vertices of p's outer ring; the
// first of several vertices on a side is its witness.
func (s *Set) deriveWitnesses(p *geom.Polygon) {
	if len(p.Outer) == 0 {
		return
	}
	w := [4]geom.Point{p.Outer[0], p.Outer[0], p.Outer[0], p.Outer[0]}
	for _, v := range p.Outer[1:] {
		if v.X < w[0].X {
			w[0] = v
		}
		if v.X > w[1].X {
			w[1] = v
		}
		if v.Y < w[2].Y {
			w[2] = v
		}
		if v.Y > w[3].Y {
			w[3] = v
		}
	}
	s.wit, s.hasWit = w, true
}

func containsKind(ks []Kind, k Kind) bool {
	for _, kk := range ks {
		if kk == k {
			return true
		}
	}
	return false
}

// Has reports whether the approximation of kind k was computed.
func (s *Set) Has(k Kind) bool {
	switch k {
	case MBR:
		return true
	case RMBR:
		return s.RMBRA != nil
	case CH:
		return s.CHA != nil
	case C4:
		return s.C4A != nil
	case C5:
		return s.C5A != nil
	case MBC:
		return s.MBCA != nil
	case MBE:
		return s.MBEA != nil
	case MEC:
		return s.MECA != nil
	case MER:
		return s.MERA != nil
	}
	return false
}

// Area returns the area of the approximation of kind k. It panics if the
// kind was not computed.
func (s *Set) Area(k Kind) float64 {
	switch k {
	case MBR:
		return s.MBR.Area()
	case RMBR:
		return s.RMBRA.Area()
	case CH:
		return s.CHA.Area()
	case C4:
		return s.C4A.Area()
	case C5:
		return s.C5A.Area()
	case MBC:
		return s.MBCA.Area()
	case MBE:
		return s.MBEA.Area()
	case MEC:
		return s.MECA.Area()
	case MER:
		return s.MERA.Area()
	}
	panic("approx: unknown kind")
}

// outlineSegments controls the polygonization of curved approximations in
// area metrics; 96 segments keep the area error below 0.1 %.
const outlineSegments = 96

// Outline returns a polygonal outline of the approximation of kind k:
// exact for polygonal kinds, a 96-gon for circles and ellipses. Outlines
// back the area-based quality metrics, not the filter tests.
func (s *Set) Outline(k Kind) geom.Ring {
	switch k {
	case MBR:
		c := s.MBR.Corners()
		return geom.Ring(c[:])
	case RMBR:
		return s.RMBRA.Ring()
	case CH:
		return s.CHA
	case C4:
		return s.C4A
	case C5:
		return s.C5A
	case MBC:
		return s.MBCA.Outline(outlineSegments)
	case MBE:
		return ellipseOutline(*s.MBEA, outlineSegments)
	case MEC:
		return s.MECA.Outline(outlineSegments)
	case MER:
		c := s.MERA.Corners()
		return geom.Ring(c[:])
	}
	panic("approx: unknown kind")
}

// NumParams returns the storage requirement of the computed approximation
// of kind k in parameters (Figure 3); for CH it depends on the hull size.
func (s *Set) NumParams(k Kind) int {
	ch := 0
	if k == CH && s.CHA != nil {
		ch = len(s.CHA)
	}
	return k.NumParams(ch)
}

// FalseArea returns the false area of the conservative approximation of
// kind k: area(approximation) − area(object) (section 3.3). It is the one
// extra parameter the false-area test stores per object.
func (s *Set) FalseArea(k Kind) float64 { return s.Area(k) - s.ObjArea }

// NormalizedFalseArea returns the false area normalized to the object area
// — the Table 1 measure.
func (s *Set) NormalizedFalseArea(k Kind) float64 {
	if s.ObjArea == 0 {
		return 0
	}
	return s.FalseArea(k) / s.ObjArea
}

// MBRBasedFalseArea returns the Figure 4 quality measure of a conservative
// approximation stored in addition to the MBR: the false area of the
// intersection of the approximation with the MBR, normalized to the object
// area. The MBR is tested first, so only the part of the approximation
// inside the MBR matters.
func (s *Set) MBRBasedFalseArea(k Kind) float64 {
	if s.ObjArea == 0 {
		return 0
	}
	if k == MBR {
		return s.NormalizedFalseArea(MBR)
	}
	c := s.MBR.Corners()
	inter := convex.IntersectionArea(s.Outline(k), geom.Ring(c[:]))
	return (inter - s.ObjArea) / s.ObjArea
}

// ProgressiveQuality returns the Figure 8 measure of a progressive
// approximation: its area normalized to the object area (the fraction of
// the object the approximation covers).
func (s *Set) ProgressiveQuality(k Kind) float64 {
	if s.ObjArea == 0 {
		return 0
	}
	return s.Area(k) / s.ObjArea
}

// Support adapts the approximation of kind k to the GJK support interface.
func (s *Set) Support(k Kind) convex.Support {
	switch k {
	case MBC:
		return convex.CircleSupport{C: s.MBCA.C, R: s.MBCA.R}
	case MBE:
		return *s.MBEA
	case MEC:
		return convex.CircleSupport{C: s.MECA.C, R: s.MECA.R}
	default:
		return convex.PolygonSupport(s.Outline(k))
	}
}

// ApproxByteSize returns the modelled R*-tree entry payload in bytes for
// an object whose entry stores the MBR plus the given extra approximation
// kinds, plus the paper's 32 bytes of additional information (sections 3.4
// and 5: MBR 16 B, MER 16 B, RMBR 20 B, 5-C 40 B).
func ApproxByteSize(extra ...Kind) int {
	n := 16 + 32
	for _, k := range extra {
		switch k {
		case RMBR:
			n += 20
		case C5:
			n += 40
		case C4:
			n += 32
		case MER:
			n += 16
		case MEC:
			n += 12
		case MBC:
			n += 12
		case MBE:
			n += 20
		case CH:
			n += 4 * 2 * 26 // model: the paper's average hull size for Europe
		}
	}
	return n
}
