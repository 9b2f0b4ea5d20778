// Package procinfo reads this process's resident set size from /proc
// for the serving layer's /stats endpoint. Everything degrades to zero
// values where /proc is missing (non-Linux), so callers need no build
// tags.
package procinfo

import (
	"bufio"
	"os"
	"strconv"
	"strings"
)

// PeakRSS returns the peak resident set size of this process (Linux
// VmHWM, in bytes), or 0 where /proc is unavailable.
func PeakRSS() int64 { return statusBytes("VmHWM:") }

// CurrentRSS returns the current resident set size of this process
// (Linux VmRSS, in bytes), or 0 where /proc is unavailable.
func CurrentRSS() int64 { return statusBytes("VmRSS:") }

func statusBytes(field string) int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, field) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
