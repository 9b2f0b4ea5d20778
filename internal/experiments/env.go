// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is one exported function returning a
// printable result; cmd/experiments runs them all. Results are
// deterministic in the data seeds.
//
// Absolute numbers differ from the paper's — the data is synthetic and the
// hardware is not an HP 720 — but every qualitative shape the paper
// reports is reproduced and asserted in the experiment tests: who wins, by
// roughly what factor, and where the crossovers fall. DESIGN.md §8 holds
// the ledgers of measured values.
package experiments

import (
	"context"
	"sync"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/data"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/multistep"
	"spatialjoin/internal/ops"
	"spatialjoin/internal/trstar"
)

// SeriesData is one fully preprocessed test series: all approximations of
// every object and the ground-truth classification of every candidate
// pair of the MBR-join.
type SeriesData struct {
	Name  string
	R, S  []*geom.Polygon
	SetsR []*approx.Set
	SetsS []*approx.Set
	Pairs []PairInfo
	Hits  int // pairs whose objects intersect
}

// PairInfo is one candidate pair of a series with its ground truth.
type PairInfo struct {
	I, J int  // indices into R and S
	Hit  bool // exact-geometry ground truth
}

// Env lazily builds and caches the experiment datasets, shared by all
// tables, figures and benchmarks.
type Env struct {
	europeOnce sync.Once
	europe     []*geom.Polygon
	bwOnce     sync.Once
	bw         []*geom.Polygon

	seriesOnce sync.Once
	series     []*SeriesData

	mu        sync.Mutex
	treeCache map[treeKey]*trstar.Tree
}

type treeKey struct {
	series   string
	side     byte
	idx      int
	capacity int
}

// NewEnv returns an empty environment; datasets materialize on first use.
func NewEnv() *Env {
	return &Env{treeCache: make(map[treeKey]*trstar.Tree)}
}

// Europe returns the Europe-analog relation (Figure 2).
func (e *Env) Europe() []*geom.Polygon {
	e.europeOnce.Do(func() { e.europe = data.GenerateMap(data.EuropeConfig()) })
	return e.europe
}

// BW returns the BW-analog relation (Figure 2).
func (e *Env) BW() []*geom.Polygon {
	e.bwOnce.Do(func() { e.bw = data.GenerateMap(data.BWConfig()) })
	return e.bw
}

// Series returns the four preprocessed test series of Table 2 (Europe A/B,
// BW A/B): approximation sets for every object and ground truth for every
// MBR-candidate pair.
func (e *Env) Series() []*SeriesData {
	e.seriesOnce.Do(func() {
		for _, s := range data.AllSeries() {
			e.series = append(e.series, e.prepareSeries(s))
		}
	})
	return e.series
}

// SeriesByName returns one series ("Europe A", "Europe B", "BW A", "BW B").
func (e *Env) SeriesByName(name string) *SeriesData {
	for _, s := range e.Series() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

func (e *Env) prepareSeries(s data.Series) *SeriesData {
	sd := &SeriesData{Name: s.Name, R: s.R, S: s.S}
	opt := approx.AllOptions()
	opt.MECPrecision = 2e-3
	sd.SetsR = computeSets(s.R, opt)
	sd.SetsS = computeSets(s.S, opt)

	// Candidate pairs of the MBR-join with ground truth, decided by the
	// TR*-tree engine (validated against brute force in the test suites).
	treesR := make([]*trstar.Tree, len(s.R))
	treesS := make([]*trstar.Tree, len(s.S))
	var c ops.Counters
	for i, a := range s.R {
		ab := sd.SetsR[i].MBR
		for j, b := range s.S {
			if !ab.Intersects(sd.SetsS[j].MBR) {
				continue
			}
			if treesR[i] == nil {
				treesR[i] = trstar.NewFromPolygon(a, trstar.DefaultCapacity)
			}
			if treesS[j] == nil {
				treesS[j] = trstar.NewFromPolygon(b, trstar.DefaultCapacity)
			}
			hit := trstar.Intersects(treesR[i], treesS[j], &c)
			sd.Pairs = append(sd.Pairs, PairInfo{I: i, J: j, Hit: hit})
			if hit {
				sd.Hits++
			}
		}
	}
	return sd
}

func computeSets(polys []*geom.Polygon, opt approx.Options) []*approx.Set {
	out := make([]*approx.Set, len(polys))
	type job struct{ i int }
	jobs := make(chan int, len(polys))
	for i := range polys {
		jobs <- i
	}
	close(jobs)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = approx.Compute(polys[i], opt)
			}
		}()
	}
	wg.Wait()
	return out
}

// Tree returns a cached TR*-tree for one object of a series side.
func (e *Env) Tree(sd *SeriesData, side byte, idx, capacity int) *trstar.Tree {
	key := treeKey{series: sd.Name, side: side, idx: idx, capacity: capacity}
	e.mu.Lock()
	t, ok := e.treeCache[key]
	e.mu.Unlock()
	if ok {
		return t
	}
	var p *geom.Polygon
	if side == 'R' {
		p = sd.R[idx]
	} else {
		p = sd.S[idx]
	}
	t = trstar.NewFromPolygon(p, capacity)
	e.mu.Lock()
	e.treeCache[key] = t
	e.mu.Unlock()
	return t
}

// FalseHits returns the number of candidate pairs that are false hits.
func (sd *SeriesData) FalseHits() int { return len(sd.Pairs) - sd.Hits }

// seqJoin runs the unified join sequentially (one worker) under an
// explicit configuration — the experiments' measurement mode, matching
// the paper's single-CPU accounting. Each join runs on fresh sessions,
// so it starts from the built buffer, as a served join does, and not
// from the pages an earlier join on the same trees left behind.
func seqJoin(r, s *multistep.Relation, cfg multistep.Config) ([]multistep.Pair, multistep.Stats) {
	pairs, st, err := multistep.Join(context.Background(), r, s, multistep.WithConfig(cfg),
		multistep.WithWorkers(1), multistep.WithSessions(r.NewSession(), s.NewSession()))
	if err != nil {
		panic(err)
	}
	return pairs, st
}
