//go:build race

package main

// raceEnabled reports whether the race detector is compiled in. Under
// it an op costs ~15x, so the tests keep one traced pass over every
// workload (the harness's own concurrency: hook, per-rank results) and
// skip the repeat runs that only compare counts.
const raceEnabled = true
