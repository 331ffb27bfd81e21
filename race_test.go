//go:build race

package oraclesize

func init() { raceEnabled = true }
