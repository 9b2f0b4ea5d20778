package plan

import (
	"math"
	"testing"
)

func TestFromStatsVersions(t *testing.T) {
	p := PaperParams()
	// A synthetic run shaped like the paper's section 5 workload: 86,000
	// candidate pairs, of which the filter identifies 46 %. The paper's
	// MBR-join is cheap relative to object access (section 5: "the
	// MBR-join does not much affect the total execution time").
	v1 := FromStats(10000, 86000, EnginePlaneSweep, p) // unfiltered
	v2 := FromStats(13000, 47000, EnginePlaneSweep, p) // filtered
	v3 := FromStats(13000, 47000, EngineTRStar, p)

	// Figure 18 shape: v1 > v2 > v3, with v1/v3 > 3.
	if !(v1.Total() > v2.Total() && v2.Total() > v3.Total()) {
		t.Fatalf("ordering violated: v1=%.0f v2=%.0f v3=%.0f", v1.Total(), v2.Total(), v3.Total())
	}
	if v1.Total()/v3.Total() < 3 {
		t.Errorf("v1/v3 = %.2f, want > 3 (Figure 18)", v1.Total()/v3.Total())
	}
	// v3: the exact test is "practically negligible" but object access
	// grows by the storage factor.
	if v3.ExactTest > 0.1*v3.Total() {
		t.Errorf("v3 exact test %.1f should be negligible vs total %.1f", v3.ExactTest, v3.Total())
	}
	if v3.ObjectAccess <= v2.ObjectAccess {
		t.Errorf("TR*-tree storage factor must raise object access: %.1f vs %.1f",
			v3.ObjectAccess, v2.ObjectAccess)
	}
	// Spot check v1 arithmetic: 10,000 pages * 10 ms + 86,000 * 10 ms +
	// 86,000 * 25 ms.
	want := 10000*10e-3 + 86000*10e-3 + 86000*25e-3
	if math.Abs(v1.Total()-want) > 1e-6 {
		t.Errorf("v1 total = %v, want %v", v1.Total(), want)
	}
}

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{MBRJoin: 1, ObjectAccess: 2, ExactTest: 3}
	if b.Total() != 6 {
		t.Errorf("Total = %v", b.Total())
	}
}

func TestFigure11GainLoss(t *testing.T) {
	gl := Figure11(2000, 2400, 9000, PaperParams())
	if gl.Loss != 400 {
		t.Errorf("Loss = %v, want 400", gl.Loss)
	}
	if gl.Gain != 9000 {
		t.Errorf("Gain = %v, want 9000", gl.Gain)
	}
	if gl.Total != 8600 {
		t.Errorf("Total = %v, want 8600", gl.Total)
	}
}

func TestParallelBreakdown(t *testing.T) {
	b := Breakdown{MBRJoin: 8, ObjectAccess: 16, ExactTest: 4}
	got := ParallelBreakdown(b, 4, 2)
	if got.MBRJoin != 2 || got.ObjectAccess != 4 || got.ExactTest != 2 {
		t.Errorf("ParallelBreakdown = %+v", got)
	}
	if ParallelBreakdown(b, 0, 0) != b {
		t.Error("degenerate parallelism must be identity")
	}
}

func TestQuadraticModeled(t *testing.T) {
	p := PaperParams()
	b := FromStats(0, 10, EngineQuadratic, p)
	if b.ExactTest <= FromStats(0, 10, EnginePlaneSweep, p).ExactTest {
		t.Error("quadratic per-pair cost must exceed plane sweep")
	}
}
