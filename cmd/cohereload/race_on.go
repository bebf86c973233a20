//go:build race

package main

// raceEnabled reports that this binary carries the race detector, whose
// instrumentation distorts latency tails enough to invert the gateway
// drill's affinity-vs-round-robin p99 comparison; timing gates relax to
// informational under it while the structural gates (hit ratio, error
// counts) stay hard.
const raceEnabled = true
