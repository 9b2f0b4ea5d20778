// Streaming: run the join with WithStream and consume response pairs as
// they are decided, with memory bounded by the pipeline depth, instead of
// waiting for the materialized response set. The statistics are exactly
// those of the sequential Join; only the delivery changes.
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"spatialjoin"
)

func main() {
	counties := spatialjoin.GenerateMap(spatialjoin.MapConfig{
		Cells:       600,
		TargetVerts: 48,
		Seed:        42,
	})
	shifted := spatialjoin.ShiftedCopy(counties, 0.45)

	cfg := spatialjoin.DefaultConfig()
	r := spatialjoin.NewRelation("counties", counties, 1, cfg)
	s := spatialjoin.NewRelation("shifted", shifted, 1, cfg)

	ctx := context.Background()

	// Warm the lazily built exact representations once, so the timed runs
	// below compare the join drivers rather than the one-time object
	// preprocessing.
	if _, _, err := spatialjoin.Join(ctx, r, s, spatialjoin.WithBufferless()); err != nil {
		log.Fatal(err)
	}

	// Sequential baseline: one worker, collect and sort the response set.
	t0 := time.Now()
	pairs, _, err := spatialjoin.Join(ctx, r, s, spatialjoin.WithWorkers(1))
	if err != nil {
		log.Fatal(err)
	}
	seq := time.Since(t0)

	// Streaming: step 1 is partitioned over workers, candidates flow
	// through bounded channels into a filter/exact worker pool, and the
	// emit callback sees pairs the moment they are decided — here it just
	// counts them and samples the first few.
	workers := runtime.GOMAXPROCS(0)
	var streamed int
	var sample []spatialjoin.Pair
	t0 = time.Now()
	_, st, err := spatialjoin.Join(ctx, r, s,
		spatialjoin.WithWorkers(workers),
		spatialjoin.WithStream(func(p spatialjoin.Pair) {
			if streamed < 5 {
				sample = append(sample, p)
			}
			streamed++
		}))
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(t0)

	fmt.Printf("objects: %d × %d, workers: %d\n", len(counties), len(shifted), workers)
	fmt.Printf("sequential Join:  %d pairs in %v\n", len(pairs), seq.Round(time.Millisecond))
	fmt.Printf("streamed Join:    %d pairs in %v (%.1f× vs sequential; scales with cores)\n",
		streamed, wall.Round(time.Millisecond), seq.Seconds()/wall.Seconds())
	fmt.Printf("first streamed:   %v (delivery order is nondeterministic)\n", sample)
	fmt.Printf("stats match Join: %d candidates, %d filter-decided, %d exact tests\n",
		st.CandidatePairs, st.FilterHits+st.FilterFalseHits, st.ExactTested)
}
