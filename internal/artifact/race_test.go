//go:build race

package artifact

func init() { raceEnabled = true }
