//go:build !race

package main

// raceEnabled is true in a -race build, whose timings mean nothing.
const raceEnabled = false
