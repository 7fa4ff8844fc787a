//go:build !race

// Package testenv exposes build-environment facts tests need to gate on.
package testenv

// Race reports whether the binary was built with the race detector. Its
// instrumentation allocates, so AllocsPerRun bounds only hold without it.
const Race = false
