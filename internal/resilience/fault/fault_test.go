package fault

import (
	"strings"
	"testing"
	"time"
)

// arm arms a spec that must parse, and disarms at test end.
func arm(t *testing.T, spec string) {
	t.Helper()
	if err := Arm(spec); err != nil {
		t.Fatalf("Arm(%q): %v", spec, err)
	}
	t.Cleanup(Disarm)
}

func TestDisarmedCheckIsNil(t *testing.T) {
	Disarm()
	for _, site := range sites() {
		if err := Check(site); err != nil {
			t.Fatalf("disarmed Check(%q) = %v, want nil", site, err)
		}
	}
	if Enabled() {
		t.Fatal("Enabled() after Disarm")
	}
}

// TestEverySiteAcceptsEveryKind pins the registry: three sites, and no
// kind is restricted to some of them.
func TestEverySiteAcceptsEveryKind(t *testing.T) {
	if got := strings.Join(sites(), ","); got != "exact,tile-join,tile-query" {
		t.Fatalf("sites() = %s", got)
	}
	for _, site := range sites() {
		for _, kind := range []string{"latency", "error", "panic"} {
			arm(t, site+":"+kind)
		}
	}
}

func TestArmEmptySpecIsNoOp(t *testing.T) {
	Disarm()
	if err := Arm(""); err != nil {
		t.Fatalf("Arm(\"\"): %v", err)
	}
	if Enabled() {
		t.Fatal("empty spec armed the harness")
	}
}

func TestArmRejectsBadSpecs(t *testing.T) {
	Disarm()
	for _, spec := range []string{
		"nope:error",            // unknown site
		"tile-query:explode",    // unknown kind
		"exact:error=5",         // parameter on a parameterless kind
		"exact:latency=xyz",     // bad duration
		"exact:latency=-1ms",    // non-positive duration
		"exact:error@0",         // bad every
		"exact:error@-3",        // negative every
		"exact",                 // no kind
		"exact:error,bogus:err", // one bad injection disarms the whole spec
	} {
		if err := Arm(spec); err == nil {
			t.Errorf("Arm(%q) accepted, want error", spec)
		}
		if Enabled() {
			t.Errorf("Arm(%q) left the harness armed", spec)
		}
	}
}

func TestErrorInjectionFiresEveryNth(t *testing.T) {
	arm(t, "exact:error@3")
	var fired int
	for i := 1; i <= 9; i++ {
		err := Check("exact")
		if i%3 == 0 {
			if !IsInjected(err) {
				t.Fatalf("check %d: err = %v, want injected", i, err)
			}
			fired++
		} else if err != nil {
			t.Fatalf("check %d: err = %v, want nil", i, err)
		}
	}
	if fired != 3 {
		t.Fatalf("fired %d times, want 3", fired)
	}
	st := Stats()
	if len(st) != 1 || st[0].Site != "exact" || st[0].Kind != "error" || st[0].Checks != 9 || st[0].Fired != 3 {
		t.Fatalf("Stats() = %+v", st)
	}
}

func TestPanicInjection(t *testing.T) {
	arm(t, "tile-join:panic")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Check did not panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "tile-join") {
			t.Fatalf("panic value %v does not name the site", r)
		}
	}()
	_ = Check("tile-join")
}

func TestLatencyInjectionSleepsAndContinues(t *testing.T) {
	arm(t, "tile-query:latency=30ms")
	t0 := time.Now()
	if err := Check("tile-query"); err != nil {
		t.Fatalf("latency Check returned %v", err)
	}
	if d := time.Since(t0); d < 25*time.Millisecond {
		t.Fatalf("latency injection slept only %v", d)
	}
}

func TestCheckOtherSiteUnaffected(t *testing.T) {
	arm(t, "exact:error")
	if err := Check("tile-query"); err != nil {
		t.Fatalf("uninjected site returned %v", err)
	}
}
