//go:build race

package vm_test

func init() { raceEnabled = true }
