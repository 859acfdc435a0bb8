//go:build race

package adaflow

func init() { raceEnabled = true }
