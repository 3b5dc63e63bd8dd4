// Package graph is shardstage testdata: callbacks passed to the shard
// scaffold's fan-out (Shards.ForEachShard) are worker callbacks, checked
// by default without a -sweepfuncs override.
package graph

// Shards mirrors the scaffold's fan-out shape: fn runs once per shard
// index, returning at the barrier (serial here; the analyzer keys on the
// method name, not on the body).
type Shards struct{ w int }

func (s Shards) ForEachShard(fn func(w int)) {
	for w := 0; w < s.w; w++ {
		fn(w)
	}
}

// rangeFill is the wire-fill idiom: each worker writes the slots of its own
// range and its own count row.
func rangeFill(sh Shards, bounds []int, out []int, counts [][]int) {
	sh.ForEachShard(func(w int) {
		row := counts[w]
		for s := bounds[w]; s < bounds[w+1]; s++ {
			out[s] = s
			row[s%len(row)]++
		}
	})
}

// unownedTotal writes a captured counter from every shard.
func unownedTotal(sh Shards, out []int) int {
	total := 0
	sh.ForEachShard(func(w int) {
		total += len(out) // want `write to captured total inside a worker callback`
	})
	return total
}

// unownedSlot writes one fixed slot from every shard.
func unownedSlot(sh Shards, out []int) {
	sh.ForEachShard(func(w int) {
		out[0] = w // want `write to captured out\[\.\.\.\] inside a worker callback`
	})
}
