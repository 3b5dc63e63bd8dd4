package graph

import (
	"runtime"
	"testing"
)

// TestAutoWorkersPolicy pins the shared auto-parallelism policy: always
// within [1, GOMAXPROCS], serial below the per-worker slot quota, and
// monotone non-decreasing in n.
func TestAutoWorkersPolicy(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	prev := 0
	for _, n := range []int{-5, 0, 100, autoWorkerSlotQuota - 1, autoWorkerSlotQuota,
		4 * autoWorkerSlotQuota, 1 << 22} {
		w := AutoWorkers(n)
		if w < 1 || w > max {
			t.Fatalf("AutoWorkers(%d) = %d, want within [1, %d]", n, w, max)
		}
		if w < prev {
			t.Fatalf("AutoWorkers not monotone: %d at n=%d after %d", w, n, prev)
		}
		prev = w
	}
	if AutoWorkers(autoWorkerSlotQuota-1) != 1 {
		t.Fatal("sub-quota networks must stay serial")
	}
}

// TestResolveParallelism pins the one normalization rule every sharded
// pass resolves its worker count through: ANY negative value selects the
// automatic policy — not just the Auto constant of package flood (−1) —
// and 0 runs serial.
func TestResolveParallelism(t *testing.T) {
	const n = 1 << 20
	auto := AutoWorkers(n)
	cases := []struct{ par, want int }{
		{-1, auto}, // flood.Auto
		{-7, auto}, // any negative, not just the Auto constant
		{0, 1},
		{1, 1},
		{6, 6},
	}
	for _, c := range cases {
		if got := NewShards(c.par, n).W(); got != c.want {
			t.Errorf("NewShards(%d, %d).W() = %d, want %d", c.par, n, got, c.want)
		}
	}
	if got := NewShards(-3, 1000).W(); got != 1 {
		t.Errorf("negative par on a small network must resolve serial, got %d", got)
	}
}

// TestShardsBlockWalkPartitionsSlots pins the ownership contract the
// sharded passes rely on: run through ForEachShard, every shard walks its
// blocks in ascending slot order, every slot in [0, n) lies in exactly
// one shard's walk, and that shard is Owner(slot).
func TestShardsBlockWalkPartitionsSlots(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4} {
		sh := NewShards(w, 0)
		for _, n := range []int{0, 1, 63, 64, 65, 1000} {
			walks := make([][]int, sh.W())
			sh.ForEachShard(func(si int) {
				first, stride := sh.Blocks(si)
				for lo := first; lo < n; lo += stride {
					for s := lo; s < min(lo+ShardBlock, n); s++ {
						walks[si] = append(walks[si], s)
					}
				}
			})
			seen := make([]int, n)
			for si, walk := range walks {
				for i, s := range walk {
					if i > 0 && s <= walk[i-1] {
						t.Fatalf("W=%d n=%d shard %d: walk not ascending at slot %d", w, n, si, s)
					}
					if o := sh.Owner(uint32(s)); o != si {
						t.Fatalf("W=%d n=%d: slot %d walked by shard %d, Owner says %d", w, n, s, si, o)
					}
					seen[s]++
				}
			}
			for s, c := range seen {
				if c != 1 {
					t.Fatalf("W=%d n=%d: slot %d walked %d times", w, n, s, c)
				}
			}
		}
	}
}
