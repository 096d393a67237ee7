//go:build !race

package tensor

// poisonArena is off outside the race build: arena hand-outs keep
// whatever the previous step left in them.
const poisonArena = false
