//go:build race

package vquel

const raceEnabled = true
