//go:build race

package engine

// raceEnabled skips the allocation guards: the race detector's
// instrumentation allocates on paths that are allocation-free in
// normal builds.
const raceEnabled = true
