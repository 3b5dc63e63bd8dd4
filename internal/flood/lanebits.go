package flood

import (
	"math/bits"

	"github.com/dyngraph/churnnet/internal/graph"
)

// laneBits is the traffic plane's packed per-slot lane-membership bitset:
// one bit per (arena slot, lane) pair, 64 lanes per word, laid out
// slot-major so the words of one slot are contiguous. It replaces the
// one-graph.Marks-per-lane layout — ~12 bytes per slot per lane — with
// ⌈laneCap/64⌉ words per slot shared by every lane, which is what makes
// the plane's event classification and fan-out word-parallel: a churn
// event XORs or masks whole 64-lane words instead of looping over M
// lanes.
//
// Validity is per slot: a slot's words count only while the stored
// generation matches the handle's. The generation is shared across all
// lanes deliberately — a slot's current generation is a property of the
// node occupying it, not of any message, so every lane observing the slot
// agrees on it, and one uint32 per slot replaces the per-lane gen array
// that Marks would cost per message. Generation 0 is graph.Nil, so a
// stored 0 marks a slot no node holds. Non-current state is inert: reads
// treat it as all-zero and the first write reclaims the slot by zeroing
// its words (the same contract graph.Marks.Unmark keeps for stale
// handles).
//
// The zero value is not ready; call init(stride) first (the plane does,
// with stride 1, and reshapes as lanes cross 64-lane word boundaries).
type laneBits struct {
	words  []uint64 // len = slots * stride, slot-major lane-membership bits
	gen    []uint32 // per slot: node generation the words belong to (shared by all lanes; 0 = none)
	stride int      // words per slot = ceil(laneCap/64), >= 1
}

// init prepares the zero value with the given word stride.
func (b *laneBits) init(stride int) {
	if stride < 1 {
		stride = 1
	}
	b.stride = stride
}

// slots returns the number of arena slots currently spanned.
func (b *laneBits) slots() int { return len(b.gen) }

// grow extends the per-slot arrays to span at least n slots. New slots
// start invalid (generation 0). The span doubles, or jumps to n when that
// is larger: the plane sizes the arrays to the arena once (NewTraffic),
// and they double only when the arena outgrows them.
func (b *laneBits) grow(n int) {
	if n <= len(b.gen) {
		return
	}
	n = max(n, 2*len(b.gen))
	ng := make([]uint32, n)
	copy(ng, b.gen)
	b.gen = ng
	nw := make([]uint64, n*b.stride)
	copy(nw, b.words)
	b.words = nw
}

// reshape changes the word stride, preserving every slot's bits (a
// shrink truncates high-lane words; the plane only ever grows). Serial
// context only: it reallocates the word array.
func (b *laneBits) reshape(stride int) {
	if stride < 1 {
		stride = 1
	}
	if stride == b.stride {
		return
	}
	nSlots := len(b.gen)
	nw := make([]uint64, nSlots*stride)
	min := b.stride
	if stride < min {
		min = stride
	}
	for s := 0; s < nSlots; s++ {
		copy(nw[s*stride:s*stride+min], b.words[s*b.stride:s*b.stride+min])
	}
	b.words = nw
	b.stride = stride
}

// wordsOf returns h's slot words when they are current (the generation
// matches), or nil: a nil result reads as all-zero, the packed analogue
// of Marks.Has returning false. Callers must not write through the
// returned slice unless they own h's slot (shard discipline).
func (b *laneBits) wordsOf(h graph.Handle) []uint64 {
	s := int(h.Slot)
	if h.IsNil() || s >= len(b.gen) || b.gen[s] != h.Gen {
		return nil
	}
	return b.words[s*b.stride : (s+1)*b.stride]
}

// claim validates h's slot for writing and returns its words, plus
// whether the claim was fresh: the slot did not belong to h, so its stale
// words were zeroed and h's generation stamped. The slot must already be
// spanned (grow). A fresh claim is what receiver-list dedup keys on: a
// tracked slot enters its owner shard's receiver list exactly when it is
// claimed for a node, and stays claimed — even with every bit cleared —
// until the admission sweep or the freeze drops the entry, or the node
// dies (all clearSlot).
func (b *laneBits) claim(h graph.Handle) (w []uint64, fresh bool) {
	s := int(h.Slot)
	w = b.words[s*b.stride : (s+1)*b.stride]
	if b.gen[s] == h.Gen {
		return w, false
	}
	for i := range w {
		w[i] = 0
	}
	b.gen[s] = h.Gen
	return w, true
}

// set adds lane li to h's slot, growing the arrays to span it, and
// reports whether the slot was freshly claimed (see claim).
func (b *laneBits) set(h graph.Handle, li int) (fresh bool) {
	b.grow(int(h.Slot) + 1)
	w, fresh := b.claim(h)
	w[li>>6] |= 1 << (li & 63)
	return fresh
}

// has reports whether lane li currently holds h.
func (b *laneBits) has(h graph.Handle, li int) bool {
	w := b.wordsOf(h)
	return w != nil && w[li>>6]&(1<<(li&63)) != 0
}

// covers reports whether h's slot holds every lane set in lanes (a
// stride-word mask). h must be a live node's handle; the scan calls this
// once per neighbor visit, so it indexes the words directly rather than
// going through wordsOf.
func (b *laneBits) covers(h graph.Handle, lanes []uint64) bool {
	s := int(h.Slot)
	if s >= len(b.gen) || b.gen[s] != h.Gen {
		return false
	}
	w := b.words[s*b.stride:]
	for i, l := range lanes {
		if l&^w[i] != 0 {
			return false
		}
	}
	return true
}

// clear removes lane li from h's slot; a no-op when the slot is not
// current (stale state stays inert, the Unmark contract).
func (b *laneBits) clear(h graph.Handle, li int) {
	if w := b.wordsOf(h); w != nil {
		w[li>>6] &^= 1 << (li & 63)
	}
}

// clearSlot invalidates h's slot for every lane at once — the packed
// analogue of each lane's Marks dropping the node, used on death and when
// a receiver entry is dropped. A no-op for a stale handle.
func (b *laneBits) clearSlot(h graph.Handle) {
	if b.wordsOf(h) != nil {
		b.gen[h.Slot] = 0
	}
}

// clearLane zeroes lane li's bit column across every slot. The plane
// calls it when a retired lane index is re-granted to a new message:
// stale bits of the previous occupant are masked out of every read while
// the lane is free (liveMask), but a reused lane must start from an
// all-zero column, exactly as a fresh Marks would. O(slots).
func (b *laneBits) clearLane(li int) {
	wi, mask := li>>6, uint64(1)<<(li&63)
	for s, n := 0, len(b.gen); s < n; s++ {
		b.words[s*b.stride+wi] &^= mask
	}
}

// onesOf returns the number of current bits on h's slot — a popcount
// over the slot's words, optionally masked.
func (b *laneBits) onesOf(h graph.Handle, mask []uint64) int {
	w := b.wordsOf(h)
	if w == nil {
		return 0
	}
	n := 0
	for i, x := range w {
		if mask != nil {
			x &= mask[i]
		}
		n += bits.OnesCount64(x)
	}
	return n
}

// footprintBytes returns the structure's informed-state footprint: the
// packed lane-membership words plus the shared per-slot generation, so
// stride·8 + 4 bytes per slot (12 at stride 1).
func (b *laneBits) footprintBytes() int {
	return len(b.words)*8 + len(b.gen)*4
}
