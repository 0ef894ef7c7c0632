//go:build !race

package vquel

const raceEnabled = false
