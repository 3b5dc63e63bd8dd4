package core

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// stationaryGolden holds the FNV-64a digests TestSampleStationaryGolden
// computes, one per model kind and population parameter n, each over the
// out-degrees 0, 1 and 21. They were recorded from the counting-sort
// sampler that preceded the register-held draw loop and the blocked
// in-list fill, and must not be re-recorded: they pin every RNG draw the
// samplers make and every byte of the wired arenas.
var stationaryGolden = map[Kind]map[int]uint64{
	SDG:  {2: 0x6ef5f47fc7fc149d, 3: 0xd0a9b8a0a8c39281, 5000: 0x4d2c2be34cc52527, 20000: 0xa8c71cc2555084df},
	SDGR: {2: 0x6ef5f47fc7fc149d, 3: 0xc7e2f0a05673c759, 5000: 0x36522d43723d5bb4, 20000: 0x9dc50827c4e4eeac},
	PDG:  {2: 0xfd6930dcde629bee, 3: 0x4a91229f5010aaa0, 5000: 0xae1478dbdb1b8ecd, 20000: 0x01d21bbb76519c15},
	PDGR: {2: 0x6563b3f62d2c5e39, 3: 0x97647fc90062c457, 5000: 0x5054972b410d4d9d, 20000: 0xa4de305c0603f88d},
}

// digestSnapshot writes a sampled model into h: per arena slot its birth
// time, every out-slot in out-slot order (the target slot, or ^0 for a
// dead one) and every in-list source in in-list order; then the next four
// draws of the RNG the model was sampled from, which pins the number of
// draws the sampler consumed. It consumes the model: it ends by removing
// every node.
func digestSnapshot(h hash.Hash64, m Model, r *rng.RNG) {
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	g := m.Graph()
	put(uint64(g.NumSlots()))
	put(uint64(g.NumAlive()))
	for s := 0; s < g.NumSlots(); s++ {
		x := g.SlotHandle(uint32(s))
		put(uint64(x.Slot)<<32 | uint64(x.Gen))
		if x.IsNil() {
			continue
		}
		put(math.Float64bits(g.BirthTime(x)))
		put(uint64(g.OutSlotCount(x)))
		for k := 0; k < g.OutSlotCount(x); k++ {
			if tgt, ok := g.OutTarget(x, k); ok {
				put(uint64(tgt.Slot))
			} else {
				put(math.MaxUint64)
			}
		}
		put(uint64(g.InDegreeLive(x)))
		g.InSources(x, func(src graph.Handle) bool {
			put(uint64(src.Slot))
			return true
		})
	}
	for i := 0; i < 4; i++ {
		put(r.Uint64())
	}
	// InSources yields source handles only. Removing every node in slot
	// order returns each one's remaining in-list as (source, out-slot)
	// pairs in in-list order, which also pins the out-slot index of every
	// in-list entry, so parallel requests cannot trade places unseen.
	var orphans []graph.InEdge
	for s := 0; s < g.NumSlots(); s++ {
		if x := g.SlotHandle(uint32(s)); !x.IsNil() {
			orphans = g.RemoveNode(x, orphans[:0])
			put(uint64(len(orphans)))
			for _, e := range orphans {
				put(uint64(e.Src.Slot)<<32 | uint64(e.Slot))
			}
		}
	}
}

// TestSampleStationaryGolden pins the stationary samplers' output bit for
// bit: for every kind, n ∈ {2, 3, 5000, 20000} (20000 slots span several
// in-list fill blocks and shard blocks) and d ∈ {0, 1, 21}, the model
// sampled at every worker count must hash to the recorded digest. The
// distributional tests would pass a sampler that drew differently; this
// one fails on any changed draw, out-slot, in-list order or birth time.
func TestSampleStationaryGolden(t *testing.T) {
	for _, kind := range Kinds() {
		for _, n := range []int{2, 3, 5000, 20000} {
			kind, n := kind, n
			t.Run(fmt.Sprintf("%v/n=%d", kind, n), func(t *testing.T) {
				t.Parallel()
				want := stationaryGolden[kind][n]
				for _, workers := range []int{1, 2, 3, 4, -1} {
					h := fnv.New64a()
					for _, d := range []int{0, 1, 21} {
						r := rng.New(uint64(n)*1000 + uint64(d))
						m := SampleStationaryPar(kind, n, d, r, workers)
						if err := m.Graph().CheckInvariants(); err != nil {
							t.Fatalf("workers=%d d=%d: %v", workers, d, err)
						}
						digestSnapshot(h, m, r)
					}
					if got := h.Sum64(); got != want {
						t.Errorf("workers=%d: digest %#x, want %#x", workers, got, want)
					}
				}
			})
		}
	}
}
