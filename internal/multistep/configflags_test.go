package multistep

import (
	"flag"
	"io"
	"strings"
	"testing"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/storage"
)

// parseConfigFlags runs args through a fresh flag set carrying only the
// configuration flags, as each main does with flag.CommandLine.
func parseConfigFlags(args ...string) (Config, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	config := ConfigFlags(fs)
	if err := fs.Parse(args); err != nil {
		return Config{}, err
	}
	return config()
}

// TestConfigFlags: the one binder the three binaries share. No argument
// is DefaultConfig; every flag reaches its Config field and moves the
// store fingerprint (so a store built with it set opens only where it is
// set too); a value that does not parse is an error naming the flag.
func TestConfigFlags(t *testing.T) {
	def, err := parseConfigFlags()
	if err != nil {
		t.Fatal(err)
	}
	if def != DefaultConfig() {
		t.Fatalf("no flags: %+v, want DefaultConfig %+v", def, DefaultConfig())
	}
	for _, tc := range []struct {
		flag, good, bad string
		field           func(Config) any
		want            any
	}{
		{"engine", "sweep", "cubic", func(c Config) any { return c.Engine }, EnginePlaneSweep},
		{"conservative", "rmbr", "6C", func(c Config) any { return c.Filter.Conservative }, approx.RMBR},
		{"progressive", "MEC", "MEX", func(c Config) any { return c.Filter.Progressive }, approx.MEC},
		{"no-filter", "true", "maybe", func(c Config) any { return c.UseFilter }, false},
		{"page", "2048", "0", func(c Config) any { return c.PageSize }, 2048},
		{"buffer", "65536", "64k", func(c Config) any { return c.BufferBytes }, 65536},
		{"policy", "Clock", "mru", func(c Config) any { return c.BufferPolicy }, storage.Clock},
	} {
		cfg, err := parseConfigFlags("-" + tc.flag + "=" + tc.good)
		if err != nil {
			t.Errorf("-%s=%s: %v", tc.flag, tc.good, err)
			continue
		}
		if got := tc.field(cfg); got != tc.want {
			t.Errorf("-%s=%s: field is %v, want %v", tc.flag, tc.good, got, tc.want)
		}
		if ConfigFingerprint(cfg) == ConfigFingerprint(def) {
			t.Errorf("-%s=%s: fingerprint equals the default configuration's", tc.flag, tc.good)
		}
		if _, err := parseConfigFlags("-" + tc.flag + "=" + tc.bad); err == nil || !strings.Contains(err.Error(), "-"+tc.flag) {
			t.Errorf("-%s=%s: error %v, want one naming the flag", tc.flag, tc.bad, err)
		}
	}
}
