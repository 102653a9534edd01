package cluster

// RaceEnabled exposes raceEnabled to the external cluster_test
// package, whose allocation guards skip under the race detector too.
const RaceEnabled = raceEnabled
