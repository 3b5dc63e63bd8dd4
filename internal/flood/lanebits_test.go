package flood

import (
	"testing"

	"github.com/dyngraph/churnnet/internal/graph"
)

// lb returns a laneBits ready for tests at the given stride.
func lb(stride int) *laneBits {
	b := &laneBits{}
	b.init(stride)
	return b
}

func h(slot, gen uint32) graph.Handle { return graph.Handle{Slot: slot, Gen: gen} }

// TestLaneBitsSetHasClear pins the basic membership contract at lane
// indices on both sides of every word seam the suite cares about:
// set/has/clear per (slot, lane), independence across lanes sharing a
// slot, and the fresh-claim transition that keys receiver-list dedup.
func TestLaneBitsSetHasClear(t *testing.T) {
	t.Parallel()
	b := lb(3) // lanes 0..191
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
	if got := b.onesOf(v, nil); got != 2 {
		t.Fatalf("onesOf = %d, want 2", got)
	}
	mask := []uint64{1 << 63, 0, 0}
	if got := b.onesOf(v, mask); got != 1 {
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

// TestLaneBitsGenCurrency pins the shared-generation discipline: a
// handle from a previous occupant of the slot reads as all-zero, its
// clear is a no-op on the current occupant's bits, and claiming the slot
// for a new generation zeroes the stale words.
func TestLaneBitsGenCurrency(t *testing.T) {
	t.Parallel()
	b := lb(2)
	old, cur := h(3, 1), h(3, 2)
	b.set(old, 70)
	if b.wordsOf(cur) != nil {
		t.Fatal("new generation read the old occupant's words")
	}
	if fresh := b.set(cur, 5); !fresh {
		t.Fatal("claim for a new generation must report a fresh claim")
	}
	if b.has(cur, 70) {
		t.Fatal("stale bit survived the generation claim")
	}
	if b.wordsOf(old) != nil {
		t.Fatal("old generation still reads after the slot moved on")
	}
	b.clear(old, 5) // stale handle: must not touch the current bits
	if !b.has(cur, 5) {
		t.Fatal("clear through a stale handle mutated current state")
	}
}

// TestLaneBitsClearSlot pins the death path: one call drops the slot for
// every lane, stale handles are a no-op, and the slot claims fresh
// afterward.
func TestLaneBitsClearSlot(t *testing.T) {
	t.Parallel()
	b := lb(2)
	v := h(6, 3)
	b.set(v, 10)
	b.set(v, 100)
	b.clearSlot(h(6, 2)) // stale generation: no-op
	if !b.has(v, 10) || !b.has(v, 100) {
		t.Fatal("clearSlot with a stale handle dropped current bits")
	}
	b.clearSlot(v)
	if b.wordsOf(v) != nil {
		t.Fatal("slot still current after clearSlot")
	}
	if fresh := b.set(v, 100); !fresh || b.has(v, 10) {
		t.Fatal("slot did not claim fresh after clearSlot")
	}
}

// TestLaneBitsClearLane pins lane-index reuse: clearing a lane column
// zeroes that lane's bit on every slot while leaving all other lanes
// untouched.
func TestLaneBitsClearLane(t *testing.T) {
	t.Parallel()
	b := lb(2)
	vs := []graph.Handle{h(0, 1), h(4, 2), h(9, 1)}
	for _, v := range vs {
		b.set(v, 64)
		b.set(v, 65)
	}
	b.clearLane(64)
	for _, v := range vs {
		if b.has(v, 64) {
			t.Fatalf("slot %d kept lane 64 after clearLane", v.Slot)
		}
		if !b.has(v, 65) {
			t.Fatalf("slot %d lost lane 65 to clearLane(64)", v.Slot)
		}
	}
}

// TestLaneBitsReshape pins stride growth at the word seams the plane
// crosses as lanes 64 and 128 are allocated: every previously set bit
// survives a reshape, validity metadata included, and the widened words
// accept bits in the new high word.
func TestLaneBitsReshape(t *testing.T) {
	t.Parallel()
	b := lb(1)
	alive, stale := h(2, 5), h(7, 1)
	b.set(alive, 0)
	b.set(alive, 63)
	b.set(stale, 40)
	b.clearSlot(stale) // an invalidated slot must stay invalid across reshape

	for _, stride := range []int{2, 3} {
		b.reshape(stride)
		if !b.has(alive, 0) || !b.has(alive, 63) {
			t.Fatalf("stride %d: bits lost in reshape", stride)
		}
		if b.wordsOf(stale) != nil {
			t.Fatalf("stride %d: invalidated slot resurrected by reshape", stride)
		}
		hi := stride*64 - 1
		b.set(alive, hi)
		if !b.has(alive, hi) {
			t.Fatalf("stride %d: high word not writable after reshape", stride)
		}
		b.clear(alive, hi)
	}
	if got := b.onesOf(alive, nil); got != 2 {
		t.Fatalf("onesOf after reshapes = %d, want 2", got)
	}
}

// TestLaneBitsGrow pins the growth policy: a first grow spans exactly
// the slots asked for, and a later one doubles the span unless the
// request is larger still. Every set bit survives.
func TestLaneBitsGrow(t *testing.T) {
	t.Parallel()
	b := lb(2)
	v := h(99, 1)
	for _, tc := range []struct{ n, slots int }{{100, 100}, {100, 100}, {101, 200}, {150, 200}, {500, 500}} {
		b.grow(tc.n)
		if got := b.slots(); got != tc.slots {
			t.Fatalf("grow(%d): %d slots, want %d", tc.n, got, tc.slots)
		}
		if len(b.words) != tc.slots*2 {
			t.Fatalf("grow(%d): %d words for %d slots at stride 2", tc.n, len(b.words), tc.slots)
		}
		b.set(v, 70)
		if !b.has(v, 70) {
			t.Fatalf("grow(%d) lost a bit", tc.n)
		}
	}
}

// TestLaneBitsFootprint sanity-checks the memory accounting MemStats
// reports: words + shared generation, so per-lane cost at capacity M is
// slots·(stride·8 + 4)/M bytes — at M = 64 (stride 1) that is 12 bytes
// per slot shared by 64 lanes versus 12 bytes per slot for EACH
// Marks-per-lane.
func TestLaneBitsFootprint(t *testing.T) {
	t.Parallel()
	b := lb(1)
	b.grow(100)
	slots := b.slots()
	want := slots*8 + slots*4
	if got := b.footprintBytes(); got != want {
		t.Fatalf("footprintBytes = %d, want %d", got, want)
	}
	marksPerLane := 12 * slots * 64 // 64 lanes of Marks at the same span
	if got := b.footprintBytes(); got*4 > marksPerLane {
		t.Fatalf("packed footprint %d not >= 4x smaller than %d", got, marksPerLane)
	}
}
