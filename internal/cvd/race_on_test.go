//go:build race

package cvd

const raceEnabled = true
