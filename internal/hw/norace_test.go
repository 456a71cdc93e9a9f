//go:build !race

package hw

const raceEnabled = false
