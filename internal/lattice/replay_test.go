package lattice

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"spatialjoin"
	"spatialjoin/internal/serve"
)

// TestConcurrentReplay runs every execution cell, and every query target
// on the solo relations and on four tiles (reopened on every other
// dataset), sequentially; then 8 goroutines replay all of it at once
// against the same shared relations.
// Each result, statistics and page accesses included, must equal its
// sequential one: per-query sessions make a relation safe for any number
// of concurrent joins and queries.
func TestConcurrentReplay(t *testing.T) {
	var names []string
	var jobs []func() (any, error)
	for _, c := range executionCells() {
		names = append(names, c.String())
		jobs = append(jobs, func() (any, error) { return h.exec(t, c) })
	}
	for ds, d := range theDatasets {
		for _, tg := range targets(d.r) {
			for _, driver := range []int{0, 3} {
				names = append(names, fmt.Sprintf("%s/%s/tiles %v", d.name, tg.name, drivers[driver]))
				jobs = append(jobs, func() (any, error) { return h.query(t, ds, 1, driver, false, ds%2, tg) })
			}
		}
	}
	want := make([]any, len(jobs))
	for i, job := range jobs {
		var err error
		if want[i], err = job(); err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				k := (i + g*len(jobs)/8) % len(jobs)
				if got, err := jobs[k](); err != nil || !reflect.DeepEqual(got, want[k]) {
					t.Errorf("goroutine %d: %s diverged from its sequential run (err %v)", g, names[k], err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestCacheByteIdentical serves every dataset, on 4 and 2 tiles, from a
// server with the default result cache and from one without: joins at
// two distances on the same server, a limited join, and window, ε-range
// window, point and nearest queries, planned and not. The cached server's cold and
// warm bodies are the uncached server's, byte for byte once the markers
// are stripped, and the warm one is marked cached.
func TestCacheByteIdentical(t *testing.T) {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, d := range theDatasets {
		cat, s := serve.NewCatalog(), "R"
		cat.Add("R", spatialjoin.NewRelation("R", d.r, 4, buildConfig(1)))
		if !d.self {
			s = "S"
			cat.Add("S", spatialjoin.NewRelation("S", d.s, 2, buildConfig(1)))
		}
		srv := serve.NewServer(cat)
		srv.CacheBytes = -1
		uncached, cached := srv.Handler(), serve.NewServer(cat).Handler()

		pr, join := probesOf(d.r), "/join?r=R&s="+s
		urls := []string{fmt.Sprintf("/nearest?rel=R&x=%s&y=%s&k=4", f(pr.center.X), f(pr.center.Y))}
		for _, plan := range []string{"&plan=off", ""} {
			urls = append(urls, join+plan, join+"&predicate=contains"+plan, join+"&epsilon=0.01"+plan,
				join+"&epsilon=0.1"+plan, join+"&epsilon=0.1&limit=7"+plan,
				fmt.Sprintf("/window?rel=R&minx=%s&miny=%s&maxx=%s&maxy=%s%s", f(pr.mid.MinX), f(pr.mid.MinY), f(pr.mid.MaxX), f(pr.mid.MaxY), plan),
				fmt.Sprintf("/window?rel=R&minx=%s&miny=%s&maxx=%s&maxy=%s&epsilon=0.01%s", f(pr.mid.MinX), f(pr.mid.MinY), f(pr.mid.MaxX), f(pr.mid.MaxY), plan),
				fmt.Sprintf("/point?rel=R&x=%s&y=%s%s", f(pr.vertex.X), f(pr.vertex.Y), plan))
		}
		for _, u := range urls {
			off, cold, warm := get(t, uncached, u), get(t, cached, u), get(t, cached, u)
			if !strings.Contains(warm, `"cached": true`) || stripMarkers(cold) != off || stripMarkers(warm) != off {
				t.Errorf("%s %s: cached bodies are not the uncached one, or the warm one is not marked:\ncold: %s\nwarm: %s\noff:  %s",
					d.name, u, cold, warm, off)
			}
		}
	}
}

// get returns the body of a successful GET.
func get(t *testing.T, h http.Handler, url string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// stripMarkers removes the multi-query execution markers ("cached":
// true, "coalesced": true) from a body, leaving the solo execution's
// body (DESIGN.md §12).
func stripMarkers(body string) string {
	lines := strings.Split(body, "\n")
	return strings.Join(slices.DeleteFunc(lines, func(ln string) bool {
		return strings.Contains(ln, `"cached": true`) || strings.Contains(ln, `"coalesced": true`)
	}), "\n")
}
