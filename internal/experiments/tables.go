package experiments

import (
	"fmt"
	"math"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
)

// Figure2 reproduces the relation characteristics of Figure 2: number of
// objects and vertex statistics of the Europe and BW analogs.
func Figure2(e *Env) *Table {
	t := &Table{
		Title:  "Figure 2 — analysed spatial relations (synthetic analogs)",
		Header: []string{"relation", "#objects", "m_avg", "m_min", "m_max", "with holes"},
	}
	for _, rel := range []struct {
		name  string
		polys []*geom.Polygon
	}{{"Europe", e.Europe()}, {"BW", e.BW()}} {
		st := data.Stats(rel.polys)
		t.AddRow(rel.name, fmt.Sprint(st.Objects), fmt.Sprintf("%.0f", st.Avg),
			fmt.Sprint(st.Min), fmt.Sprint(st.Max), fmt.Sprint(st.WithHoles))
	}
	t.Comment = "Paper: Europe 810 objects m∅=84 (4..869); BW 374 objects m∅=527 (6..2087)."
	return t
}

// Table1 reproduces Table 1: the false area of the MBR normalized to the
// object area (average, minimum, maximum) for both relations.
func Table1(e *Env) *Table {
	t := &Table{
		Title:  "Table 1 — normalized false area of the MBR",
		Header: []string{"relation", "avg", "min", "max"},
	}
	for _, rel := range []struct {
		name  string
		polys []*geom.Polygon
	}{{"Europe", e.Europe()}, {"BW", e.BW()}} {
		sum, mn, mx := 0.0, math.Inf(1), math.Inf(-1)
		for _, p := range rel.polys {
			fa := (p.Bounds().Area() - p.Area()) / p.Area()
			sum += fa
			mn = math.Min(mn, fa)
			mx = math.Max(mx, fa)
		}
		t.AddRow(rel.name, f2(sum/float64(len(rel.polys))), f2(mn), f2(mx))
	}
	t.Comment = "Paper: Europe 0.91 (0.25..20.13); BW 1.02 (0.38..3.48)."
	return t
}

// Table2 reproduces Table 2: per test series the number of intersecting
// MBR pairs, hits and false hits.
func Table2(e *Env) *Table {
	t := &Table{
		Title:  "Table 2 — test series of the approximation joins",
		Header: []string{"series", "#intersecting MBRs", "#hits", "#false hits", "false-hit share %"},
	}
	for _, sd := range e.Series() {
		t.AddRow(sd.Name, fmt.Sprint(len(sd.Pairs)), fmt.Sprint(sd.Hits),
			fmt.Sprint(sd.FalseHits()), pct(sd.FalseHits(), len(sd.Pairs)))
	}
	t.Comment = "Paper: ~31–33 % of the MBR-join pairs are false hits in all four series."
	return t
}

// Table3 reproduces Table 3: the percentage of false hits identified by
// each conservative approximation after the MBR-join.
func Table3(e *Env) *Table {
	t := &Table{
		Title:  "Table 3 — false hits identified by conservative approximations (%)",
		Header: []string{"series", "MBC", "MBE", "RMBR", "4-C", "5-C", "CH"},
	}
	for _, sd := range e.Series() {
		row := []string{sd.Name}
		for _, k := range approx.ConservativeKinds {
			identified := 0
			for _, p := range sd.Pairs {
				if p.Hit {
					continue
				}
				if !approx.ConservativeIntersects(k, sd.SetsR[p.I], sd.SetsS[p.J]) {
					identified++
				}
			}
			row = append(row, pct(identified, sd.FalseHits()))
		}
		t.AddRow(row...)
	}
	t.Comment = "Paper: MBC ≈ 17–19, MBE ≈ 42–44, RMBR ≈ 36–45, 4-C ≈ 51–59, 5-C ≈ 65–70, CH ≈ 80–83."
	return t
}

// Table4 reproduces Table 4: the percentage of hits identified by the
// false-area test with each conservative approximation.
func Table4(e *Env) *Table {
	kinds := []approx.Kind{approx.MBR, approx.RMBR, approx.C4, approx.C5, approx.CH}
	t := &Table{
		Title:  "Table 4 — hits identified by the false-area test (%)",
		Header: []string{"series", "MBR", "RMBR", "4-C", "5-C", "CH"},
	}
	for _, sd := range e.Series() {
		row := []string{sd.Name}
		for _, k := range kinds {
			identified := 0
			for _, p := range sd.Pairs {
				if !p.Hit {
					continue
				}
				if approx.FalseAreaHit(k, sd.SetsR[p.I], sd.SetsS[p.J]) {
					identified++
				}
			}
			row = append(row, pct(identified, sd.Hits))
		}
		t.AddRow(row...)
	}
	t.Comment = "Paper: ≈ 0 for the MBR, ≈ 5–8 for the 5-C, ≈ 9–13 for the CH."
	return t
}

// Table5 reproduces Table 5: the percentage of hits identified by the
// progressive approximations.
func Table5(e *Env) *Table {
	t := &Table{
		Title:  "Table 5 — hits identified by progressive approximations (%)",
		Header: []string{"series", "MEC", "MER"},
	}
	for _, sd := range e.Series() {
		row := []string{sd.Name}
		for _, k := range approx.ProgressiveKinds {
			identified := 0
			for _, p := range sd.Pairs {
				if !p.Hit {
					continue
				}
				if approx.ProgressiveIntersects(k, sd.SetsR[p.I], sd.SetsS[p.J]) {
					identified++
				}
			}
			row = append(row, pct(identified, sd.Hits))
		}
		t.AddRow(row...)
	}
	t.Comment = "Paper: MEC ≈ 31–33, MER ≈ 34–36."
	return t
}

// Figure4 reproduces Figure 4: the average MBR-based false area of each
// conservative approximation, normalized to the object area.
func Figure4(e *Env) *Table {
	kinds := []approx.Kind{approx.CH, approx.C5, approx.C4, approx.RMBR, approx.MBE, approx.MBC, approx.MBR}
	t := &Table{
		Title:  "Figure 4 — MBR-based false area normalized to object area (average)",
		Header: []string{"approximation", "Europe", "BW"},
	}
	sets := map[string][]*approx.Set{}
	opt := approx.Options{Conservative: []approx.Kind{approx.RMBR, approx.CH, approx.C4, approx.C5, approx.MBC, approx.MBE}}
	sets["Europe"] = computeSets(e.Europe(), opt)
	sets["BW"] = computeSets(e.BW(), opt)
	for _, k := range kinds {
		name := k.String()
		if k == approx.MBR {
			name = "only MBR"
		}
		row := []string{name}
		for _, rel := range []string{"Europe", "BW"} {
			var sum float64
			for _, s := range sets[rel] {
				sum += s.MBRBasedFalseArea(k)
			}
			row = append(row, f2(sum/float64(len(sets[rel]))))
		}
		t.AddRow(row...)
	}
	t.Comment = "Paper ordering: CH < 5-C < 4-C < RMBR ≈ MBE < MBC < only MBR (≈ 0.9–1.0)."
	return t
}

// Figure5 reproduces Figure 5 for the Europe B series.
func Figure5(e *Env) *Table {
	sd := e.SeriesByName("Europe B")
	kinds := []approx.Kind{approx.MBR, approx.MBC, approx.MBE, approx.RMBR, approx.C4, approx.C5, approx.CH}
	t := &Table{
		Title:  "Figure 5 — MBR-based false area vs identified false hits (Europe B)",
		Header: []string{"approximation", "avg false area", "identified false hits %"},
	}
	for _, k := range kinds {
		var sum float64
		for _, s := range sd.SetsR {
			sum += s.MBRBasedFalseArea(k)
		}
		for _, s := range sd.SetsS {
			sum += s.MBRBasedFalseArea(k)
		}
		fa := sum / float64(len(sd.SetsR)+len(sd.SetsS))
		identified := 0
		if k != approx.MBR {
			for _, p := range sd.Pairs {
				if !p.Hit && !approx.ConservativeIntersects(k, sd.SetsR[p.I], sd.SetsS[p.J]) {
					identified++
				}
			}
		}
		t.AddRow(k.String(), f2(fa), pct(identified, sd.FalseHits()))
	}
	t.AddRow("object", "0.00", "100.0")
	t.Comment = "Paper: near-linear dependency for MBR/MBC/RMBR/4-C; 5-C, MBE and CH lie above the line."
	return t
}

// Figure8 reproduces Figure 8: the area of the progressive approximations
// normalized to the object area.
func Figure8(e *Env) *Table {
	t := &Table{
		Title:  "Figure 8 — approximation quality of progressive approximations (area ratio)",
		Header: []string{"relation", "MEC", "MER"},
	}
	opt := approx.Options{Progressive: []approx.Kind{approx.MEC, approx.MER}, MECPrecision: 2e-3}
	for _, rel := range []struct {
		name  string
		polys []*geom.Polygon
	}{{"Europe", e.Europe()}, {"BW", e.BW()}} {
		sets := computeSets(rel.polys, opt)
		var mec, mer float64
		for _, s := range sets {
			mec += s.ProgressiveQuality(approx.MEC)
			mer += s.ProgressiveQuality(approx.MER)
		}
		n := float64(len(sets))
		t.AddRow(rel.name, f2(mec/n), f2(mer/n))
	}
	t.Comment = "Paper: MEC 0.42 / 0.42 and MER 0.43 / 0.45 (Europe / BW)."
	return t
}

// Figure12 reproduces Figure 12: the division of the BW A candidate set
// into identified hits (MER test), identified false hits (5-corner test)
// and non-identified pairs.
func Figure12(e *Env) *Table {
	sd := e.SeriesByName("BW A")
	identifiedFalse, identifiedHits := 0, 0
	nonIdentifiedFalse, nonIdentifiedHits := 0, 0
	for _, p := range sd.Pairs {
		a, b := sd.SetsR[p.I], sd.SetsS[p.J]
		if !approx.ConservativeIntersects(approx.C5, a, b) {
			identifiedFalse++
			continue
		}
		if approx.ProgressiveIntersects(approx.MER, a, b) {
			identifiedHits++
			continue
		}
		if p.Hit {
			nonIdentifiedHits++
		} else {
			nonIdentifiedFalse++
		}
	}
	n := len(sd.Pairs)
	t := &Table{
		Title:  "Figure 12 — identified and non-identified hits and false hits (BW A, 5-C + MER)",
		Header: []string{"class", "pairs", "share %"},
	}
	t.AddRow("identified false hits (5-corner)", fmt.Sprint(identifiedFalse), pct(identifiedFalse, n))
	t.AddRow("identified hits (MER)", fmt.Sprint(identifiedHits), pct(identifiedHits, n))
	t.AddRow("non-identified false hits", fmt.Sprint(nonIdentifiedFalse), pct(nonIdentifiedFalse, n))
	t.AddRow("non-identified hits", fmt.Sprint(nonIdentifiedHits), pct(nonIdentifiedHits, n))
	t.AddRow("identified total", fmt.Sprint(identifiedFalse+identifiedHits), pct(identifiedFalse+identifiedHits, n))
	t.Comment = "Paper: 23 % identified false hits + 23 % identified hits = 46 % identified."
	return t
}
