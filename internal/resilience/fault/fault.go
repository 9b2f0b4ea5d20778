// Package fault is the repository's fault-injection harness: named
// injection sites in the serving pipeline call Check, and a test (or an
// operator armed via the -faults flag) injects latency, errors or panics
// at those sites to prove the resilience layer contains them.
//
// The package is built to be free when idle: a disarmed Check is one
// atomic load and nothing else, so the sites stay compiled into
// production binaries. Injection is deterministic — every injection
// fires on an every-Nth counter, never on a random draw — so chaos
// runs are reproducible.
//
// Sites are registered here, not at the call sites, so the spec parser
// can reject typos and the docs have one registry to point at:
//
//	tile-query  one tile's sub-query in the scatter-gather fan-out
//	tile-join   one tile pair's sub-join
//	exact       one exact-geometry decision in the join pipeline's
//	            step 3 worker or a query's exact branch
//
// The spec grammar armed by Arm (and cmd/spatialjoinserve -faults):
//
//	spec     = injection *("," injection)
//	injection = site ":" kind ["=" param] ["@" every]
//	kind     = "latency" (param: Go duration, default 10ms)
//	         | "error" | "panic"
//	every    = positive integer N: fire on every Nth Check (default 1)
//
// Every site accepts every kind.
//
// Example: "tile-query:latency=5ms@3,exact:panic@97,tile-join:error@11".
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is what an injection does when it fires.
type Kind int

const (
	// Latency sleeps for the injection's duration, then lets the
	// operation proceed.
	Latency Kind = iota
	// Error makes Check return ErrInjected.
	Error
	// Panic makes Check panic — the panic-isolation proof.
	Panic
)

func (k Kind) String() string {
	switch k {
	case Latency:
		return "latency"
	case Error:
		return "error"
	case Panic:
		return "panic"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ErrInjected is the error of a fired error injection.
var ErrInjected = errors.New("fault: injected error")

// IsInjected reports whether err originates from a fired injection.
func IsInjected(err error) bool { return errors.Is(err, ErrInjected) }

// sites returns the registered site names, sorted — the fault-site
// registry DESIGN.md documents.
func sites() []string {
	out := make([]string, 0, len(siteRegistry))
	for s := range siteRegistry {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// siteRegistry is the set of injection sites.
var siteRegistry = map[string]bool{
	"tile-query": true,
	"tile-join":  true,
	"exact":      true,
}

// injection is one armed fault.
type injection struct {
	site    string
	kind    Kind
	latency time.Duration
	every   int64

	checks atomic.Int64 // Checks at the site routed through this injection
	fired  atomic.Int64
}

// armed is the fast gate: Check loads it once and returns when the
// harness is disarmed, so production requests pay one atomic load.
var armed atomic.Bool

var (
	mu    sync.Mutex
	plans map[string][]*injection // site → armed injections
)

// Arm parses a spec and arms its injections, replacing any previous
// arming. An empty spec is a no-op. Unknown sites, unknown kinds and
// malformed parameters are rejected with the whole spec left disarmed.
func Arm(spec string) error {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil
	}
	next := make(map[string][]*injection)
	for _, part := range strings.Split(spec, ",") {
		inj, err := parseInjection(strings.TrimSpace(part))
		if err != nil {
			return err
		}
		next[inj.site] = append(next[inj.site], inj)
	}
	mu.Lock()
	plans = next
	mu.Unlock()
	armed.Store(true)
	return nil
}

func parseInjection(part string) (*injection, error) {
	site, rest, ok := strings.Cut(part, ":")
	if !ok {
		return nil, fmt.Errorf("fault: %q: want site:kind[=param][@every]", part)
	}
	if !siteRegistry[site] {
		return nil, fmt.Errorf("fault: unknown site %q (sites: %s)", site, strings.Join(sites(), ", "))
	}
	rest, everyStr, hasEvery := strings.Cut(rest, "@")
	kindStr, param, hasParam := strings.Cut(rest, "=")
	inj := &injection{site: site, every: 1}
	switch kindStr {
	case "latency":
		inj.kind = Latency
		inj.latency = 10 * time.Millisecond
		if hasParam {
			d, err := time.ParseDuration(param)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("fault: %q: bad latency %q", part, param)
			}
			inj.latency = d
		}
	case "error":
		inj.kind = Error
	case "panic":
		inj.kind = Panic
	default:
		return nil, fmt.Errorf("fault: %q: unknown kind %q", part, kindStr)
	}
	if inj.kind != Latency && hasParam {
		return nil, fmt.Errorf("fault: %q: kind %s takes no parameter", part, inj.kind)
	}
	if hasEvery {
		n, err := strconv.ParseInt(everyStr, 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("fault: %q: bad every %q", part, everyStr)
		}
		inj.every = n
	}
	return inj, nil
}

// Disarm removes every injection; subsequent Checks are free again.
func Disarm() {
	armed.Store(false)
	mu.Lock()
	plans = nil
	mu.Unlock()
}

// Enabled reports whether any injection is armed.
func Enabled() bool { return armed.Load() }

// Check is the injection point. Sites call it at each sub-task or
// decision; when disarmed it costs one atomic load. When an armed
// injection's every-Nth counter fires, latency sleeps and continues,
// error returns ErrInjected, and panic panics with a value naming the
// site.
func Check(site string) error {
	if !armed.Load() {
		return nil
	}
	mu.Lock()
	injs := plans[site]
	mu.Unlock()
	for _, inj := range injs {
		n := inj.checks.Add(1)
		if n%inj.every != 0 {
			continue
		}
		inj.fired.Add(1)
		switch inj.kind {
		case Latency:
			time.Sleep(inj.latency)
		case Error:
			return fmt.Errorf("%w at %s", ErrInjected, site)
		case Panic:
			panic(fmt.Sprintf("fault: injected panic at %s", site))
		}
	}
	return nil
}

// InjectionStats is the observability row of one armed injection.
type InjectionStats struct {
	Site   string `json:"site"`
	Kind   string `json:"kind"`
	Every  int64  `json:"every"`
	Checks int64  `json:"checks"`
	Fired  int64  `json:"fired"`
}

// Stats snapshots every armed injection's counters, sorted by
// (site, kind) for stable output.
func Stats() []InjectionStats {
	mu.Lock()
	defer mu.Unlock()
	var out []InjectionStats
	for _, injs := range plans {
		for _, inj := range injs {
			out = append(out, InjectionStats{
				Site:   inj.site,
				Kind:   inj.kind.String(),
				Every:  inj.every,
				Checks: inj.checks.Load(),
				Fired:  inj.fired.Load(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}
