package flood

import (
	"testing"

	"github.com/dyngraph/churnnet/internal/graph"
)

// lb returns a laneBits laid out for the given lane count.
func lb(lanes int) *laneBits {
	b := &laneBits{}
	b.widen(lanes)
	return b
}

// cb returns a claimBits laid out for the given lane count.
func cb(lanes int) *claimBits {
	b := &claimBits{}
	b.widen(lanes)
	return b
}

func h(slot, gen uint32) graph.Handle { return graph.Handle{Slot: slot, Gen: gen} }

// TestLaneBitsSetHasClear pins the basic membership contract at lane
// indices on both sides of every word seam the suite cares about:
// set/has/clear per (slot, lane), independence across lanes sharing a
// slot, and the fresh-claim transition that keys receiver-list dedup.
func TestLaneBitsSetHasClear(t *testing.T) {
	t.Parallel()
	b := cb(192) // lanes 0..191
	v := h(5, 1)
	for _, li := range []int{0, 1, 62, 63, 64, 65, 126, 127, 128, 191} {
		if b.has(v, li) {
			t.Fatalf("lane %d set before any write", li)
		}
	}
	if fresh := b.set(v, 63); !fresh {
		t.Fatal("first set of a slot must report a fresh claim")
	}
	if fresh := b.set(v, 64); fresh {
		t.Fatal("second set of a claimed slot must not report a fresh claim")
	}
	if !b.has(v, 63) || !b.has(v, 64) {
		t.Fatal("bits straddling the 64-lane seam not both set")
	}
	if b.has(v, 62) || b.has(v, 65) {
		t.Fatal("neighboring lanes leaked")
	}
	if got := b.onesOf(v.Slot, nil); got != 2 {
		t.Fatalf("onesOf = %d, want 2", got)
	}
	mask := []uint64{1 << 63, 0, 0}
	if got := b.onesOf(v.Slot, mask); got != 1 {
		t.Fatalf("masked onesOf = %d, want 1", got)
	}
	b.clear(v, 63)
	if b.has(v, 63) || !b.has(v, 64) {
		t.Fatal("clear(63) did not confine itself to lane 63")
	}
	b.clear(v, 64)
	// The slot is all-zero but still claimed for v: the next set is not
	// fresh, so the plane does not list the receiver a second time.
	if fresh := b.set(v, 128); fresh {
		t.Fatal("set on an all-zero claimed slot must not report a fresh claim")
	}
	b.clearSlot(v)
	if fresh := b.set(v, 128); !fresh {
		t.Fatal("set after clearSlot must report a fresh claim")
	}
}

// TestLaneBitsGenCurrency pins the generation discipline of the claimed
// rows: a handle from a previous occupant of the slot reads as all-zero,
// its clear is a no-op on the current occupant's bits, and claiming the
// slot for a new generation zeroes the stale row — and only that row,
// where rows share a word.
func TestLaneBitsGenCurrency(t *testing.T) {
	t.Parallel()
	for _, lanes := range []int{2, 128} {
		b := cb(lanes)
		li := lanes - 1
		old, cur, next := h(3, 1), h(3, 2), h(4, 1)
		b.set(old, li)
		b.set(next, li)
		if b.has(cur, li) {
			t.Fatalf("%d lanes: new generation read the old occupant's row", lanes)
		}
		if fresh := b.set(cur, 0); !fresh {
			t.Fatalf("%d lanes: claim for a new generation must report a fresh claim", lanes)
		}
		if b.has(cur, li) {
			t.Fatalf("%d lanes: stale bit survived the generation claim", lanes)
		}
		if !b.has(next, li) {
			t.Fatalf("%d lanes: the claim zeroed the next slot's row", lanes)
		}
		if b.has(old, 0) {
			t.Fatalf("%d lanes: old generation still reads after the slot moved on", lanes)
		}
		b.clear(old, 0) // stale handle: must not touch the current bits
		if !b.has(cur, 0) {
			t.Fatalf("%d lanes: clear through a stale handle mutated current state", lanes)
		}
	}
}

// TestLaneBitsClearSlot pins the death path: one call drops the slot for
// every lane, stale handles are a no-op, and the slot claims fresh
// afterward.
func TestLaneBitsClearSlot(t *testing.T) {
	t.Parallel()
	b := cb(128)
	v := h(6, 3)
	b.set(v, 10)
	b.set(v, 100)
	b.clearSlot(h(6, 2)) // stale generation: no-op
	if !b.has(v, 10) || !b.has(v, 100) {
		t.Fatal("clearSlot with a stale handle dropped current bits")
	}
	b.clearSlot(v)
	if b.current(v) {
		t.Fatal("slot still current after clearSlot")
	}
	if fresh := b.set(v, 100); !fresh || b.has(v, 10) {
		t.Fatal("slot did not claim fresh after clearSlot")
	}
}

// TestLaneBitsClearLane pins lane-index reuse at every row width: clearing
// a lane column zeroes that lane's bit on every slot, the slots sharing a
// word included, while leaving all other lanes untouched.
func TestLaneBitsClearLane(t *testing.T) {
	t.Parallel()
	for _, lanes := range []int{2, 8, 64, 128} {
		b := lb(lanes)
		b.grow(200)
		a, c := lanes-1, lanes-2
		for s := uint32(0); s < 200; s += 3 {
			b.or(s, a>>6, 1<<(a&63))
			b.or(s, c>>6, 1<<(c&63))
		}
		b.clearLane(a)
		for s := uint32(0); s < 200; s++ {
			if b.has(h(s, 1), a) {
				t.Fatalf("%d lanes: slot %d kept lane %d after clearLane", lanes, s, a)
			}
			if want := s%3 == 0; b.has(h(s, 1), c) != want {
				t.Fatalf("%d lanes: slot %d lane %d reads %v after clearLane(%d), want %v", lanes, s, c, !want, a, want)
			}
		}
	}
}

// TestLaneBitsReshape pins row widening across every width the plane
// passes as lanes are allocated one at a time — 1, 2, 4, 8, 16, 32 and
// 64 bits, then 2 and 3 words: every set bit survives, on slots that
// share a word included, and the widened rows take bits in the new lanes
// without touching a neighbor's row.
func TestLaneBitsReshape(t *testing.T) {
	t.Parallel()
	b := lb(1)
	b.grow(300)
	set := map[[2]int]bool{} // (slot, lane) pairs set so far
	width := 1
	for lanes := 1; lanes <= 130; lanes++ {
		b.widen(lanes)
		if want := layoutFor(lanes); b.rowLayout != want {
			t.Fatalf("widen(%d): layout %+v, want %+v", lanes, b.rowLayout, want)
		}
		if got := b.wordsFor(b.slots()); len(b.words) != got {
			t.Fatalf("widen(%d): %d words, want %d", lanes, len(b.words), got)
		}
		if lanes > width {
			width *= 2
		}
		if got := 64 * b.stride >> (6 - b.shift); lanes <= 64 && got != width {
			t.Fatalf("widen(%d): rows of %d bits, want %d", lanes, got, width)
		}
		li := lanes - 1
		for _, s := range []int{0, 1, 63, 64, 127, 199, 299} {
			if (s+li)%5 == 0 {
				b.or(uint32(s), li>>6, 1<<(li&63))
				set[[2]int{s, li}] = true
			}
		}
		for s := 0; s < 300; s++ {
			for l := 0; l < lanes; l++ {
				if b.has(h(uint32(s), 1), l) != set[[2]int{s, l}] {
					t.Fatalf("widen(%d): slot %d lane %d reads %v", lanes, s, l, !set[[2]int{s, l}])
				}
			}
		}
	}
}

// TestLaneBitsGrow pins the growth policy: a first grow spans exactly
// the slots asked for, and a later one doubles the span unless the
// request is larger still. The words follow the span at the row width,
// and every set bit survives.
func TestLaneBitsGrow(t *testing.T) {
	t.Parallel()
	for _, lanes := range []int{1, 8, 128} {
		b := cb(lanes)
		v := h(99, 1)
		li := lanes - 1
		for _, tc := range []struct{ n, slots int }{{100, 100}, {100, 100}, {101, 200}, {150, 200}, {500, 500}} {
			b.grow(tc.n)
			if got := b.slots(); got != tc.slots {
				t.Fatalf("%d lanes: grow(%d): %d slots, want %d", lanes, tc.n, got, tc.slots)
			}
			if want := (tc.slots*layoutFor(lanes).stride<<layoutFor(lanes).shift + 63) / 64; len(b.words) != want {
				t.Fatalf("%d lanes: grow(%d): %d words for %d slots, want %d", lanes, tc.n, len(b.words), tc.slots, want)
			}
			if len(b.gen) != tc.slots {
				t.Fatalf("%d lanes: grow(%d): %d generations for %d slots", lanes, tc.n, len(b.gen), tc.slots)
			}
			b.set(v, li)
			if !b.has(v, li) {
				t.Fatalf("%d lanes: grow(%d) lost a bit", lanes, tc.n)
			}
		}
	}
}

// TestLaneBitsFootprint sanity-checks the memory accounting MemStats
// reports: the informed rows alone, 1<<shift bits a slot — one bit at
// one lane, a word at 64 — against 12 bytes per slot for EACH lane of
// Marks.
func TestLaneBitsFootprint(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ lanes, bytes int }{{1, 128}, {2, 256}, {3, 512}, {64, 8192}, {65, 16384}, {130, 24576}} {
		b := lb(tc.lanes)
		b.grow(1024)
		if got := b.footprintBytes(); got != tc.bytes {
			t.Fatalf("%d lanes: footprintBytes = %d, want %d", tc.lanes, got, tc.bytes)
		}
		if marks := 12 * 1024 * tc.lanes; b.footprintBytes()*4 > marks {
			t.Fatalf("%d lanes: packed footprint %d not >= 4x smaller than %d", tc.lanes, b.footprintBytes(), marks)
		}
	}
}
