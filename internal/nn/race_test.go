//go:build race

package nn

func init() { raceEnabled = true }
