package testenv

import (
	"runtime"
	"testing"
)

// SetGOMAXPROCS sets GOMAXPROCS to n for the rest of tb and restores the
// value it had before when tb ends. Every batch kernel fans out on
// GOMAXPROCS goroutines, so a determinism test sweeps this instead of a
// worker count; a test may call it once per step of its sweep.
func SetGOMAXPROCS(tb testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
