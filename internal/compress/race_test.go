//go:build race

package compress

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random quarter of what is put back, so what a pooled codec
// allocates per call is random there.
const raceEnabled = true
