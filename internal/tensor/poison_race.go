//go:build race

package tensor

// poisonArena fills every arena hand-out with NaN under the race build,
// so a step that reads storage it did not write fails the arena-versus-
// heap equivalence tests.
const poisonArena = true
