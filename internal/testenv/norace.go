//go:build !race

// Package testenv exposes build-environment facts tests need to gate on,
// and the test helper that pins one of them, GOMAXPROCS.
package testenv

// Race reports whether the binary was built with the race detector. Its
// instrumentation allocates, so AllocsPerRun bounds only hold without it.
const Race = false
