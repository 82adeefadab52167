//go:build !race

package insitu

const raceEnabled = false
