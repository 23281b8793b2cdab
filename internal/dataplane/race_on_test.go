//go:build race

package dataplane

// raceEnabled reports whether the race detector is compiled in; its
// runtime instrumentation allocates on its own, so allocation gates
// are only enforced in non-race runs.
const raceEnabled = true
