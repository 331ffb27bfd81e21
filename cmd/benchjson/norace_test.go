//go:build !race

package main

// raceEnabled reports a -race build, whose allocation counts TestCheck
// does not compare.
const raceEnabled = false
