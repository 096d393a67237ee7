package fl

// TrainLocalOnHeap is c.TrainLocal with every step on the heap, without a
// step arena, so that tests can hold the arena path against the heap path.
func TrainLocalOnHeap(c *LegacyClient, round int, global []float64) (Update, error) {
	return c.trainLocal(nil, round, global)
}
