//go:build !race

package compress

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
