package graph

import (
	"runtime"
	"sync"
)

// autoWorkerSlotQuota is the minimum per-worker slot count the AutoWorkers
// policy aims for: below it, goroutine spawn and barrier overhead on the
// sharded passes outweighs the per-slot work they parallelize.
const autoWorkerSlotQuota = 1 << 15

// AutoWorkers returns the worker-shard count the automatic parallelism
// policy picks for a structure of roughly n slots: one worker per
// autoWorkerSlotQuota slots, at least 1 and at most GOMAXPROCS. It backs
// every "0 = auto" parallelism knob (the cmds' -floodpar 0, and every
// negative worker count NewShards resolves): results are bit-for-bit
// identical at every worker count, so the policy only chooses how many
// cores to spend, never what is computed.
func AutoWorkers(n int) int {
	w := n / autoWorkerSlotQuota
	if max := runtime.GOMAXPROCS(0); w > max {
		w = max
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ShardBlock is the number of consecutive arena slots per ownership block:
// slot s belongs to shard (s/ShardBlock) mod W. Block-cyclic ownership
// keeps the assignment stable as the arena grows (a slot never changes
// owners) while spreading any dense slot range across all shards; the
// block width keeps different shards' writes to slot-indexed arrays a few
// cache lines apart.
const ShardBlock = 64

// Shards is the worker-shard scaffold every sharded pass runs on: the
// traffic plane's drain, freeze and admission sweeps, the expansion
// tracker's seeding sweep and the snapshot wire-fill. It holds the one
// resolved worker count W, the block-cyclic slot ownership, and the
// barriered fan-out. A pass is deterministic and race-free when each
// shard writes only state it owns — the slots of its blocks, its own
// worker-indexed buffers, or a chunk it claimed — because the barrier is
// the only synchronization.
type Shards struct{ w int }

// NewShards resolves a worker count for a structure of nominal size n:
// any negative value selects AutoWorkers(n), and 0 or 1 runs serial.
func NewShards(workers, n int) Shards {
	if workers < 0 {
		workers = AutoWorkers(n)
	}
	return Shards{w: max(workers, 1)}
}

// W returns the resolved worker-shard count, at least 1.
func (s Shards) W() int { return s.w }

// Owner maps an arena slot to its shard index.
func (s Shards) Owner(slot uint32) int {
	if s.w == 1 {
		return 0
	}
	return int(slot/ShardBlock) % s.w
}

// Blocks returns shard w's owned-block walk as loop bounds: its blocks
// start at first, first+stride, first+2·stride, …, each ShardBlock slots
// wide, so
//
//	for lo := first; lo < n; lo += stride {
//		for s := lo; s < min(lo+ShardBlock, n); s++ { … }
//	}
//
// visits exactly the slots s < n with Owner(s) == w, in ascending order.
func (s Shards) Blocks(w int) (first, stride int) {
	return w * ShardBlock, s.w * ShardBlock
}

// ForEachShard runs fn once per shard index: inline at W = 1, otherwise
// on W goroutines, returning at the barrier.
func (s Shards) ForEachShard(fn func(w int)) {
	if s.w == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(s.w)
	for w := 0; w < s.w; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}
