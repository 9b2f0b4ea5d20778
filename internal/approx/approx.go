// Package approx implements the object approximations of section 3 of the
// paper and the geometric-filter tests built on them.
//
// Conservative approximations enclose the object, so disjoint conservative
// approximations prove a candidate pair is a false hit: the minimum
// bounding rectangle (MBR), rotated minimum bounding rectangle (RMBR),
// convex hull (CH), minimum bounding 4- and 5-corner (4-C, 5-C), minimum
// bounding circle (MBC) and minimum bounding ellipse (MBE).
//
// Progressive approximations are enclosed by the object, so intersecting
// progressive approximations prove a hit: the maximum enclosed circle
// (MEC) and the maximum enclosed rectangle (MER). The false-area test
// (section 3.3) proves hits from conservative approximations alone when
// the intersection area of the approximations exceeds the sum of the
// objects' false areas.
package approx

import (
	"fmt"
	"math"
	"strings"

	"spatialjoin/internal/convex"
	"spatialjoin/internal/geom"
)

// Kind identifies an approximation type of section 3 (Figure 3 plus the
// two progressive approximations of section 3.3).
type Kind int

// The approximation kinds investigated in the paper. The first seven are
// conservative, the last two progressive.
const (
	MBR  Kind = iota // minimum bounding rectangle (4 parameters)
	RMBR             // rotated minimum bounding rectangle (5 parameters)
	CH               // convex hull (variable parameters)
	C4               // minimum bounding 4-corner (8 parameters)
	C5               // minimum bounding 5-corner (10 parameters)
	MBC              // minimum bounding circle (3 parameters)
	MBE              // minimum bounding ellipse (5 parameters)
	MEC              // maximum enclosed circle (3 parameters, progressive)
	MER              // maximum enclosed rectangle (4 parameters, progressive)
)

// ConservativeKinds lists the conservative kinds in the order the paper's
// tables report them.
var ConservativeKinds = []Kind{MBC, MBE, RMBR, C4, C5, CH}

// ProgressiveKinds lists the progressive kinds.
var ProgressiveKinds = []Kind{MEC, MER}

// ParseKind parses a kind abbreviation as printed by String,
// case-insensitively and ignoring dashes ("5C", "5-c", "RMBR", "MER", …).
func ParseKind(s string) (Kind, error) {
	switch strings.ToUpper(strings.ReplaceAll(s, "-", "")) {
	case "MBR":
		return MBR, nil
	case "RMBR":
		return RMBR, nil
	case "CH":
		return CH, nil
	case "4C", "C4":
		return C4, nil
	case "5C", "C5":
		return C5, nil
	case "MBC":
		return MBC, nil
	case "MBE":
		return MBE, nil
	case "MEC":
		return MEC, nil
	case "MER":
		return MER, nil
	}
	return 0, fmt.Errorf("approx: unknown approximation %q", s)
}

// String returns the paper's abbreviation for the kind.
func (k Kind) String() string {
	switch k {
	case MBR:
		return "MBR"
	case RMBR:
		return "RMBR"
	case CH:
		return "CH"
	case C4:
		return "4-C"
	case C5:
		return "5-C"
	case MBC:
		return "MBC"
	case MBE:
		return "MBE"
	case MEC:
		return "MEC"
	case MER:
		return "MER"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Conservative reports whether k encloses the object (as opposed to being
// enclosed by it).
func (k Kind) Conservative() bool { return k != MEC && k != MER }

// Circle is a disk given by the paper's three parameters: center and
// radius. It serves both as the minimum bounding circle (conservative) and
// the maximum enclosed circle (progressive).
type Circle struct {
	C geom.Point
	R float64
}

// Area returns the disk area.
func (c Circle) Area() float64 { return math.Pi * c.R * c.R }

// ContainsPoint reports whether p lies in the closed disk.
func (c Circle) ContainsPoint(p geom.Point) bool {
	return c.C.Dist(p) <= c.R+1e-9
}

// Intersects reports whether two closed disks share a point.
func (c Circle) Intersects(d Circle) bool {
	return c.C.Dist(d.C) <= c.R+d.R
}

// Outline returns a regular n-gon inscribed in the circle, used only for
// area metrics (e.g. the MBR-based false area of Figure 4), never for the
// filter itself.
func (c Circle) Outline(n int) geom.Ring {
	ring := make(geom.Ring, n)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		ring[i] = geom.Point{X: c.C.X + c.R*math.Cos(a), Y: c.C.Y + c.R*math.Sin(a)}
	}
	return ring
}

// Ellipse is the paper's five-parameter minimum bounding ellipse, stored
// as the image of the unit disk under the linear map B around center C
// (see convex.EllipseSupport).
type Ellipse = convex.EllipseSupport

// ellipseOutline returns a polygonal outline of e with n vertices,
// used only for area metrics.
func ellipseOutline(e Ellipse, n int) geom.Ring {
	ring := make(geom.Ring, n)
	for i := 0; i < n; i++ {
		a := 2 * math.Pi * float64(i) / float64(n)
		ux, uy := math.Cos(a), math.Sin(a)
		ring[i] = geom.Point{
			X: e.C.X + e.B00*ux + e.B01*uy,
			Y: e.C.Y + e.B10*ux + e.B11*uy,
		}
	}
	if !ring.IsCCW() {
		for i, j := 0, len(ring)-1; i < j; i, j = i+1, j-1 {
			ring[i], ring[j] = ring[j], ring[i]
		}
	}
	return ring
}

// NumParams returns the storage requirement of kind k in parameters
// (coordinates/scalars), as quoted in Figure 3. For CH the requirement is
// variable: pass the hull size via chVertices (2 parameters per vertex).
func (k Kind) NumParams(chVertices int) int {
	switch k {
	case MBR:
		return 4
	case RMBR:
		return 5
	case CH:
		return 2 * chVertices
	case C4:
		return 8
	case C5:
		return 10
	case MBC:
		return 3
	case MBE:
		return 5
	case MEC:
		return 3
	case MER:
		return 4
	default:
		return 0
	}
}

// ByteSize returns the storage requirement in bytes used by the R*-tree
// entry-size model of sections 3.4 and 5 (4 bytes per parameter, as
// implied by the paper's 16-byte MBR).
func (k Kind) ByteSize(chVertices int) int { return 4 * k.NumParams(chVertices) }
