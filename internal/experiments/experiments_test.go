package experiments

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"spatialjoin/internal/approx"
)

// The environment is expensive (four preprocessed series); tests share one.
var (
	testEnvOnce sync.Once
	testEnv     *Env
)

func sharedEnv() *Env {
	testEnvOnce.Do(func() { testEnv = NewEnv() })
	return testEnv
}

// skipInShort gates the expensive experiment reproductions behind
// `go test -short`: the full suite regenerates every table and figure and
// takes minutes, which is too slow for CI's per-commit loop.
func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment reproduction skipped in -short mode")
	}
}

// smallBig returns the scaled-down big-relation parameters for tests.
func smallBig() BigParams {
	p := DefaultBigParams()
	p.N = 3000
	p.Points = 100
	p.Windows = 40
	return p
}

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSpace(tab.Rows[row][col]), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q is not numeric: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestFigure2AndTable1(t *testing.T) {
	skipInShort(t)
	e := sharedEnv()
	f2 := Figure2(e)
	if len(f2.Rows) != 2 {
		t.Fatal("Figure 2 needs two relations")
	}
	// Europe ≈ 810 objects, BW ≈ 374.
	if got := cell(t, f2, 0, 1); got != 810 {
		t.Errorf("Europe objects = %v, want 810", got)
	}
	if got := cell(t, f2, 1, 1); got != 374 {
		t.Errorf("BW objects = %v, want 374", got)
	}
	// BW objects are far more complex than Europe's.
	if cell(t, f2, 1, 2) < 3*cell(t, f2, 0, 2) {
		t.Error("BW average vertex count must dwarf Europe's")
	}

	t1 := Table1(e)
	for row := 0; row < 2; row++ {
		avg := cell(t, t1, row, 1)
		if avg < 0.5 || avg > 1.6 {
			t.Errorf("Table 1 row %d: avg normalized false area %v outside the paper's regime", row, avg)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	skipInShort(t)
	e := sharedEnv()
	tab := Table2(e)
	if len(tab.Rows) != 4 {
		t.Fatal("Table 2 needs four series")
	}
	for i, sd := range e.Series() {
		if len(sd.Pairs) < 500 {
			t.Errorf("series %s has only %d candidate pairs", sd.Name, len(sd.Pairs))
		}
		share := cell(t, tab, i, 4)
		if share < 20 || share > 45 {
			t.Errorf("series %s: false-hit share %.1f%% outside the paper's ≈1/3 regime", sd.Name, share)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	skipInShort(t)
	e := sharedEnv()
	tab := Table3(e)
	// Columns: series, MBC, MBE, RMBR, 4-C, 5-C, CH.
	for row := range tab.Rows {
		mbc := cell(t, tab, row, 1)
		c4 := cell(t, tab, row, 4)
		c5 := cell(t, tab, row, 5)
		ch := cell(t, tab, row, 6)
		// Paper ordering: CH best, then 5-C, then 4-C; MBC worst.
		if !(ch >= c5 && c5 >= c4) {
			t.Errorf("row %d: ordering CH ≥ 5-C ≥ 4-C violated (%v, %v, %v)", row, ch, c5, c4)
		}
		if mbc >= c5 {
			t.Errorf("row %d: MBC (%v) must identify fewer false hits than 5-C (%v)", row, mbc, c5)
		}
		// 5-C identifies roughly two thirds of the false hits.
		if c5 < 40 || c5 > 90 {
			t.Errorf("row %d: 5-C identified %v%%, want the paper's ≈2/3 regime", row, c5)
		}
		if ch < 60 {
			t.Errorf("row %d: CH identified only %v%%", row, ch)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	skipInShort(t)
	e := sharedEnv()
	tab := Table4(e)
	for row := range tab.Rows {
		mbr := cell(t, tab, row, 1)
		c5 := cell(t, tab, row, 4)
		ch := cell(t, tab, row, 5)
		// Paper: ≈0 for the MBR and ≈5–8 for the 5-C. The synthetic tiles
		// are less fjorded than real municipalities, so the test fires
		// somewhat more often here (DESIGN.md §8 ledgers the measured
		// values); the bounds assert the same qualitative regime: MBR
		// nearly useless, 5-C a small fraction, both far below the
		// progressive tests of Table 5.
		if mbr > 6 {
			t.Errorf("row %d: false-area test with MBR identified %v%%, paper says ≈0", row, mbr)
		}
		if c5 > 28 {
			t.Errorf("row %d: 5-C false-area test %v%% implausibly high", row, c5)
		}
		if ch < c5 {
			t.Errorf("row %d: CH (%v) must beat 5-C (%v) in the false-area test", row, ch, c5)
		}
	}
}

func TestTable5Shape(t *testing.T) {
	skipInShort(t)
	e := sharedEnv()
	tab := Table5(e)
	for row := range tab.Rows {
		mec := cell(t, tab, row, 1)
		mer := cell(t, tab, row, 2)
		// Paper: ≈ 1/3 of the hits for either progressive approximation.
		if mec < 15 || mec > 60 {
			t.Errorf("row %d: MEC identified %v%% of hits, outside the ≈1/3 regime", row, mec)
		}
		if mer < 15 || mer > 60 {
			t.Errorf("row %d: MER identified %v%% of hits, outside the ≈1/3 regime", row, mer)
		}
	}
	// The false-area test with the 5-C identifies far fewer hits than the
	// progressive approximations (the paper's argument for them).
	t4 := Table4(e)
	for row := range tab.Rows {
		if cell(t, t4, row, 4) >= cell(t, tab, row, 2) {
			t.Errorf("row %d: false-area(5-C) must identify fewer hits than MER", row)
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	skipInShort(t)
	e := sharedEnv()
	tab := Figure4(e)
	// Rows: CH, 5-C, 4-C, RMBR, MBE, MBC, only MBR; columns Europe, BW.
	for col := 1; col <= 2; col++ {
		ch := cell(t, tab, 0, col)
		c5 := cell(t, tab, 1, col)
		c4 := cell(t, tab, 2, col)
		mbr := cell(t, tab, 6, col)
		if !(ch <= c5+1e-9 && c5 <= c4+1e-9) {
			t.Errorf("col %d: ordering CH ≤ 5-C ≤ 4-C violated", col)
		}
		if mbr < c4 {
			t.Errorf("col %d: the MBR must have the largest false area", col)
		}
		if c5 > 0.6*mbr {
			t.Errorf("col %d: 5-C false area %v not clearly below MBR %v", col, c5, mbr)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	skipInShort(t)
	e := sharedEnv()
	tab := Figure5(e)
	if len(tab.Rows) != 8 {
		t.Fatalf("Figure 5 needs 7 approximations + object, got %d rows", len(tab.Rows))
	}
	// Smaller false area must broadly give more identified false hits.
	chRow := tab.Rows[6]
	if chRow[0] != "CH" {
		t.Fatal("row order changed")
	}
	if cell(t, tab, 6, 2) < cell(t, tab, 1, 2) {
		t.Error("CH must identify more false hits than MBC")
	}
}

func TestFigure8Shape(t *testing.T) {
	skipInShort(t)
	e := sharedEnv()
	tab := Figure8(e)
	for row := 0; row < 2; row++ {
		for col := 1; col <= 2; col++ {
			q := cell(t, tab, row, col)
			if q < 0.2 || q > 0.7 {
				t.Errorf("progressive quality %v outside the paper's ≈0.42–0.45 regime", q)
			}
		}
	}
}

func TestFigure12Shape(t *testing.T) {
	skipInShort(t)
	e := sharedEnv()
	tab := Figure12(e)
	identified := cell(t, tab, 4, 2)
	if identified < 30 || identified > 75 {
		t.Errorf("identified share %v%% outside the paper's ≈46%% regime", identified)
	}
}

func TestTable6Weights(t *testing.T) {
	skipInShort(t)
	tab := Table6()
	if len(tab.Rows) != 6 {
		t.Fatal("Table 6 needs six operations")
	}
	for row := range tab.Rows {
		host := cell(t, tab, row, 2)
		if host <= 0 || host > 100 {
			t.Errorf("row %d: host weight %v µs implausible", row, host)
		}
	}
}

func TestTable7Shape(t *testing.T) {
	skipInShort(t)
	e := sharedEnv()
	_, results := Table7(e)
	for _, res := range results {
		quad := res.Total["quadratic"]
		sweep := res.Total["plane-sweep"]
		tr := res.Total["TR*-tree"]
		if !(quad > sweep && sweep > tr) {
			t.Errorf("%s: ordering quadratic > plane-sweep > TR*-tree violated (%v, %v, %v)",
				res.Series, quad, sweep, tr)
		}
		if sweep/tr < 3 {
			t.Errorf("%s: TR*-tree must beat the plane sweep clearly (ratio %.2f)", res.Series, sweep/tr)
		}
		if quad/sweep < 2 {
			t.Errorf("%s: plane sweep must beat quadratic clearly (ratio %.2f)", res.Series, quad/sweep)
		}
	}
	// BW objects are ~7× more complex; the plane sweep must cost much
	// more per pair there, while the TR*-tree cost grows far slower
	// (Table 7: factor 1.35 vs ≈5 in the paper).
	var europe, bw Table7Result
	for _, r := range results {
		if r.Series == "Europe A" {
			europe = r
		} else {
			bw = r
		}
	}
	sweepGrowth := bw.CostPerHit["plane-sweep"] / europe.CostPerHit["plane-sweep"]
	trGrowth := bw.CostPerHit["TR*-tree"] / europe.CostPerHit["TR*-tree"]
	if trGrowth >= sweepGrowth {
		t.Errorf("TR*-tree cost growth (%.2f) must stay below plane-sweep growth (%.2f)",
			trGrowth, sweepGrowth)
	}
}

func TestFigure16Shape(t *testing.T) {
	skipInShort(t)
	e := sharedEnv()
	_, bins := Figure16(e)
	var first, last *Figure16Bin
	for i := range bins {
		if bins[i].Pairs > 0 {
			if first == nil {
				first = &bins[i]
			}
			last = &bins[i]
		}
	}
	if first == nil || first == last {
		t.Skip("not enough spread in edge counts")
	}
	if last.PlaneSweep <= first.PlaneSweep {
		t.Error("plane-sweep cost must grow with the edge count")
	}
	// TR*-tree cost stays within a small factor across the range.
	if last.TRStar > 6*first.TRStar {
		t.Errorf("TR*-tree cost grew %vx across edge bins; paper reports low dependency",
			last.TRStar/first.TRStar)
	}
}

func TestFigure17Shape(t *testing.T) {
	skipInShort(t)
	e := sharedEnv()
	_, rows := Figure17(e)
	if len(rows) != 3 {
		t.Fatal("Figure 17 needs M = 3, 4, 5")
	}
	if !(rows[0].M == 3 && rows[2].M == 5) {
		t.Fatal("row order")
	}
	// Paper: both counts are minimal at M = 3 (allow a little slack for
	// the synthetic data on the rectangle side).
	if float64(rows[0].TrapTests) > 1.1*float64(rows[2].TrapTests) {
		t.Errorf("trapezoid tests at M=3 (%d) must not exceed M=5 (%d)",
			rows[0].TrapTests, rows[2].TrapTests)
	}
	if float64(rows[0].RectTests) > 1.3*float64(rows[2].RectTests) {
		t.Errorf("rectangle tests at M=3 (%d) must stay near or below M=5 (%d)",
			rows[0].RectTests, rows[2].RectTests)
	}
}

func TestFigure10Shape(t *testing.T) {
	skipInShort(t)
	tab := Figure10(smallBig())
	if len(tab.Rows) != 4 {
		t.Fatal("Figure 10 needs RMBR/5-C × 2/4 KB")
	}
	for row := range tab.Rows {
		for col := 2; col <= 5; col++ {
			v := cell(t, tab, row, col)
			// Paper: "only slight differences" — both approaches within a
			// factor ~1.6 of each other.
			if v < 60 || v > 165 {
				t.Errorf("row %d col %d: approach 2 at %v%% of approach 1; paper reports near-100%%",
					row, col, v)
			}
		}
		// Approach 1 must test the approximation much more often.
		if ratio := cell(t, tab, row, 6); ratio < 3 {
			t.Errorf("row %d: approximation-test ratio %v; paper reports ≈30", row, ratio)
		}
	}
}

func TestFigure11Shape(t *testing.T) {
	skipInShort(t)
	_, rows := Figure11(smallBig())
	if len(rows) != 4 {
		t.Fatal("Figure 11 needs RMBR/5-C × 2/4 KB")
	}
	for _, r := range rows {
		if r.Total <= 0 {
			t.Errorf("%v @%dB: total %v must be positive (gains exceed losses)",
				r.Kind, r.PageSize, r.Total)
		}
		if r.Gain < 2*r.Loss {
			t.Errorf("%v @%dB: gain %v not clearly above loss %v", r.Kind, r.PageSize, r.Gain, r.Loss)
		}
	}
	// The 5-C identifies more pairs than the RMBR.
	if rows[2].Gain <= rows[0].Gain {
		t.Errorf("5-C gain (%v) must exceed RMBR gain (%v)", rows[2].Gain, rows[0].Gain)
	}
}

func TestFigure18Shape(t *testing.T) {
	skipInShort(t)
	_, rows := Figure18(smallBig())
	if len(rows) != 3 {
		t.Fatal("Figure 18 needs three versions")
	}
	v1 := rows[0].Breakdown.Total()
	v2 := rows[1].Breakdown.Total()
	v3 := rows[2].Breakdown.Total()
	if !(v1 > v2 && v2 > v3) {
		t.Fatalf("version ordering violated: %v, %v, %v", v1, v2, v3)
	}
	if v1/v3 < 2.5 {
		t.Errorf("v1/v3 = %.2f, paper reports > 3", v1/v3)
	}
	// Version 3: exact test practically negligible.
	if rows[2].Breakdown.ExactTest > 0.15*v3 {
		t.Errorf("v3 exact test %.1f should be a small share of %.1f", rows[2].Breakdown.ExactTest, v3)
	}
	// Versions 2 and 3 run the same MBR-join on the same trees, each
	// from the built buffer.
	if rows[1].Breakdown.MBRJoin != rows[2].Breakdown.MBRJoin {
		t.Errorf("MBR-join: version 2 %.2f, version 3 %.2f; want equal", rows[1].Breakdown.MBRJoin, rows[2].Breakdown.MBRJoin)
	}
	// Version 1: object access + exact test dominate.
	if rows[0].Breakdown.MBRJoin > rows[0].Breakdown.ObjectAccess {
		t.Errorf("v1: MBR-join %.1f should not dominate object access %.1f",
			rows[0].Breakdown.MBRJoin, rows[0].Breakdown.ObjectAccess)
	}
}

func TestFalseAreaKindParams(t *testing.T) {
	// Guard: the kinds used across experiments expose parameter counts.
	if approx.C5.NumParams(0) != 10 || approx.MER.NumParams(0) != 4 {
		t.Error("kind parameter counts drifted")
	}
}
