package multistep

import (
	"flag"
	"fmt"

	"spatialjoin/internal/approx"
	"spatialjoin/internal/storage"
)

// ConfigFlags registers on fs the seven flags that select a build
// configuration — the fields of Config that ConfigFingerprint covers, so
// a store written by one binary opens in another exactly when the two
// were given the same flags. It returns the function that resolves the
// parsed values into a Config; call it after fs.Parse. An error names
// the flag it came from.
func ConfigFlags(fs *flag.FlagSet) func() (Config, error) {
	def := DefaultConfig()
	engine := fs.String("engine", "trstar", "exact engine: trstar, planesweep, quadratic")
	conservative := fs.String("conservative", "5C", "conservative approximation: 5C, 4C, RMBR, CH, MBC, MBE")
	progressive := fs.String("progressive", "MER", "progressive approximation: MER, MEC")
	noFilter := fs.Bool("no-filter", false, "disable the geometric filter (step 2)")
	page := fs.Int("page", def.PageSize, "R*-tree page size in bytes")
	buffer := fs.Int("buffer", def.BufferBytes, "R*-tree buffer size in bytes")
	policy := fs.String("policy", "lru", "buffer replacement policy: lru, fifo, clock")
	return func() (Config, error) {
		cfg := def
		cfg.UseFilter = !*noFilter
		cfg.PageSize = *page
		cfg.BufferBytes = *buffer
		if cfg.PageSize <= 0 {
			return cfg, fmt.Errorf("-page: must be positive, got %d", cfg.PageSize)
		}
		var err error
		if cfg.Engine, err = ParseEngine(*engine); err != nil {
			return cfg, fmt.Errorf("-engine: %w", err)
		}
		if cfg.Filter.Conservative, err = approx.ParseKind(*conservative); err != nil {
			return cfg, fmt.Errorf("-conservative: %w", err)
		}
		if cfg.Filter.Progressive, err = approx.ParseKind(*progressive); err != nil {
			return cfg, fmt.Errorf("-progressive: %w", err)
		}
		if cfg.BufferPolicy, err = storage.ParsePolicy(*policy); err != nil {
			return cfg, fmt.Errorf("-policy: %w", err)
		}
		return cfg, nil
	}
}
