// Command loadtest checks a live spatialjoinserve with the fixed
// scale-factor query flight of internal/loadgen: it calibrates every
// query's response cardinality once, then runs the flight three times
// from each of -workers concurrent clients and exits non-zero on any request
// error or cardinality mismatch. It measures nothing; timings come from
// the repository benchmark (bench/README.md).
//
// Usage:
//
//	loadtest -base http://127.0.0.1:8080 -sf 1 [-workers 4]
//
// The server must already expose the two relations of the scale-factor
// dataset (sf1-R and sf1-S for -sf 1), built by cmd/datagen -sf:
//
//	datagen -sf 1 -side R -shards 8 -store sf1-R.store
//	datagen -sf 1 -side S -shards 8 -store sf1-S.store
//	spatialjoinserve -rel sf1-R=sf1-R.store -rel sf1-S=sf1-S.store &
//	loadtest -base http://127.0.0.1:8080 -sf 1
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"spatialjoin/internal/loadgen"
)

func main() {
	base := flag.String("base", "http://127.0.0.1:8080", "server base URL")
	sf := flag.Float64("sf", 0.01, "scale factor of the dataset the server exposes")
	workers := flag.Int("workers", 4, "concurrent clients")
	flag.Parse()

	spec, err := loadgen.For(*sf)
	if err != nil {
		fatal(err)
	}
	flight := loadgen.NewFlight(spec)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := &http.Client{}
	if err := flight.Calibrate(ctx, client, *base); err != nil {
		fatal(err)
	}
	for _, q := range flight.Queries {
		fmt.Fprintf(os.Stderr, "loadtest: %-18s expect %d\n", q.Name, q.Expected)
	}
	if err := flight.Check(ctx, client, *base, *workers); err != nil {
		fatal(err)
	}
	fmt.Printf("loadtest: %d queries × %d workers against %s (SF=%g): all cardinalities as calibrated\n",
		len(flight.Queries), *workers, *base, *sf)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadtest:", err)
	os.Exit(1)
}
