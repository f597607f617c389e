//go:build !race

package tcme

const raceEnabled = false
