//go:build race

package repro_test

// raceEnabled reports a -race build, whose instrumentation allocates on its
// own and so moves allocs/op and B/op.
const raceEnabled = true
