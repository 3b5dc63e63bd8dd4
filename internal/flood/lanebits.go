package flood

import (
	"math/bits"

	"github.com/dyngraph/churnnet/internal/graph"
)

// rowLayout places one row of lane bits per arena slot in a word array,
// slot-major, lane li at bit li&63 of the row's word li>>6. A row is
// 1<<shift bits wide, 1<<shift the smallest power of two at or above the
// allocated lane count, as cutCounts sizes its byte rows: rows of 64 bits
// or fewer share words, 64>>shift slots to a word, and past 64 lanes a row
// is stride = ceil(lanes/64) whole words (shift 6). One lane is one bit a
// slot. A word holds the rows of at most 64 consecutive slots, aligned, so
// it never spans two graph.ShardBlocks: a pass that writes only its own
// shard's rows writes only its own shard's words.
type rowLayout struct {
	shift  uint   // log2 of the row width in bits while a row fits a word; 6 past 64 lanes
	stride int    // words per row: 1 up to 64 lanes, ceil(lanes/64) past
	mask   uint64 // the bits of a row word that hold lanes
}

// layoutFor returns the layout of rows holding lanes lanes.
func layoutFor(lanes int) rowLayout {
	if lanes > 64 {
		return rowLayout{shift: 6, stride: (lanes + 63) / 64, mask: ^uint64(0)}
	}
	var shift uint
	for 1<<shift < lanes {
		shift++
	}
	return rowLayout{shift: shift, stride: 1, mask: ^uint64(0) >> (64 - 1<<shift)}
}

// at returns the index of slot's row word i and the row's bit offset in
// that word (0 unless rows share words, and then i is 0). The neighbor
// walks call it once per visit; the shift counts are masked to their
// range so that no shift needs an overflow check.
func (r rowLayout) at(slot uint32, i int) (int, uint) {
	return int(slot>>((6-r.shift)&31))*r.stride + i, uint(slot<<(r.shift&31)) & 63
}

// wordsFor returns the words n slots' rows take.
func (r rowLayout) wordsFor(n int) int {
	if r.stride > 1 {
		return n * r.stride
	}
	return (n<<r.shift + 63) >> 6
}

// laneBits is the traffic plane's packed per-slot lane-membership bitset:
// one bit per (arena slot, lane) pair in the rows of a rowLayout. It
// replaces the one-graph.Marks-per-lane layout — ~12 bytes per slot per
// lane — with one row per slot shared by every lane, which is what makes
// the plane's event classification and fan-out word-parallel: a churn
// event XORs or masks whole 64-lane words instead of looping over M
// lanes.
//
// A row is addressed by slot alone and carries no validity of its own:
// its owner keeps it exact for the node in the slot. The informed bitset
// does so by clearing a dying node's row (Traffic.noteDeath), so a live
// node's row is its own and a neighbor visit reads one row; the tracked
// bitset validates its rows under a generation (claimBits). Slots past
// the span read as all-zero.
//
// The zero value spans no slots and has no layout yet: widen lays it out
// (the plane widens to one lane at NewTraffic, and again as lanes are
// allocated).
type laneBits struct {
	rowLayout
	words []uint64
	n     int // slots spanned
}

// slots returns the number of arena slots currently spanned.
func (b *laneBits) slots() int { return b.n }

// grow extends the rows to span at least n slots. New rows are zero. The
// span doubles, or jumps to n when that is larger: the plane sizes the
// rows to the arena once (NewTraffic), and they double only when the
// arena outgrows them.
func (b *laneBits) grow(n int) {
	if n <= b.n {
		return
	}
	b.n = max(n, 2*b.n)
	if need := b.wordsFor(b.n); need > len(b.words) {
		nw := make([]uint64, need)
		copy(nw, b.words)
		b.words = nw
	}
}

// widen re-lays the rows to hold lanes lanes (layoutFor), keeping every
// slot's bits of the lanes both layouts hold. Serial context only: it
// reallocates the word array.
func (b *laneBits) widen(lanes int) {
	r := layoutFor(lanes)
	if r == b.rowLayout {
		return
	}
	old := *b
	b.rowLayout = r
	b.words = make([]uint64, r.wordsFor(b.n))
	for s := 0; s < b.n; s++ {
		for i := 0; i < min(old.stride, r.stride); i++ {
			b.put(uint32(s), i, old.get(uint32(s), i)&r.mask)
		}
	}
}

// get returns slot's row word i. The slot must be spanned.
func (b *laneBits) get(slot uint32, i int) uint64 {
	w, o := b.at(slot, i)
	return b.words[w] >> o & b.mask
}

// or sets the lanes of m in slot's row word i.
func (b *laneBits) or(slot uint32, i int, m uint64) {
	w, o := b.at(slot, i)
	b.words[w] |= m << o
}

// andNot clears the lanes of m in slot's row word i.
func (b *laneBits) andNot(slot uint32, i int, m uint64) {
	w, o := b.at(slot, i)
	b.words[w] &^= m << o
}

// put stores m as slot's row word i.
func (b *laneBits) put(slot uint32, i int, m uint64) {
	w, o := b.at(slot, i)
	b.words[w] = b.words[w]&^(b.mask<<o) | m<<o
}

// row copies slot's row into dst (stride words) and returns it; a slot
// past the span reads as all-zero.
func (b *laneBits) row(slot uint32, dst []uint64) []uint64 {
	if int(slot) >= b.n {
		clear(dst)
		return dst
	}
	for i := range dst {
		dst[i] = b.get(slot, i)
	}
	return dst
}

// zeroRow clears every lane of slot's row; a no-op past the span.
func (b *laneBits) zeroRow(slot uint32) {
	if int(slot) < b.n {
		for i := 0; i < b.stride; i++ {
			b.put(slot, i, 0)
		}
	}
}

// has reports whether lane li is set in h's slot row.
func (b *laneBits) has(h graph.Handle, li int) bool {
	return int(h.Slot) < b.n && li>>6 < b.stride && b.get(h.Slot, li>>6)&(1<<(li&63)) != 0
}

// anyLane reports whether slot's row has a lane set.
func (b *laneBits) anyLane(slot uint32) bool {
	for i := 0; i < b.stride; i++ {
		if b.get(slot, i) != 0 {
			return true
		}
	}
	return false
}

// covers reports whether slot's row holds every lane set in lanes (a
// stride-word mask). The push scan calls it once per neighbor visit.
func (b *laneBits) covers(slot uint32, lanes []uint64) bool {
	for i, l := range lanes {
		if l&^b.get(slot, i) != 0 {
			return false
		}
	}
	return true
}

// clearLane zeroes lane li's bit in every row. The plane calls it when a
// retired lane index is re-granted to a new message: stale bits of the
// previous occupant are masked out of every read while the lane is free
// (liveMask), but a reused lane must start from an all-zero column,
// exactly as a fresh Marks would. O(words).
func (b *laneBits) clearLane(li int) {
	if b.stride == 1 {
		var m uint64 // lane li of every row in a word
		for o := 0; o < 64; o += 1 << b.shift {
			m |= 1 << (o + li)
		}
		for w := range b.words {
			b.words[w] &^= m
		}
		return
	}
	for w := li >> 6; w < len(b.words); w += b.stride {
		b.words[w] &^= 1 << (li & 63)
	}
}

// onesOf returns the number of lanes set in slot's row, masked by mask
// (stride words) unless mask is nil.
func (b *laneBits) onesOf(slot uint32, mask []uint64) int {
	if int(slot) >= b.n {
		return 0
	}
	n := 0
	for i := 0; i < b.stride; i++ {
		x := b.get(slot, i)
		if mask != nil {
			x &= mask[i]
		}
		n += bits.OnesCount64(x)
	}
	return n
}

// footprintBytes returns the rows' size: 1<<shift bits a slot up to 64
// lanes, stride words a slot past.
func (b *laneBits) footprintBytes() int { return len(b.words) * 8 }

// claimBits is a laneBits whose rows count only under a per-slot node
// generation: the traffic plane's tracked bitset, whose fresh claims key
// the receiver lists' dedup. A row counts while the stored generation
// matches the handle's; generation 0 is graph.Nil, so a stored 0 marks a
// slot no node holds. Non-current rows are inert: reads treat them as
// all-zero and the first claim reclaims the slot by zeroing its row (the
// same contract graph.Marks.Unmark keeps for stale handles).
type claimBits struct {
	laneBits
	gen []uint32 // per slot: node generation the row belongs to (0 = none)
}

// grow spans at least n slots, rows and generations together; new slots
// start unclaimed.
func (b *claimBits) grow(n int) {
	b.laneBits.grow(n)
	if b.n > len(b.gen) {
		ng := make([]uint32, b.n)
		copy(ng, b.gen)
		b.gen = ng
	}
}

// current reports whether h's slot row belongs to h.
func (b *claimBits) current(h graph.Handle) bool {
	return !h.IsNil() && int(h.Slot) < len(b.gen) && b.gen[h.Slot] == h.Gen
}

// claim validates h's slot row for writing and reports whether the claim
// was fresh: the row did not belong to h, so its stale lanes were zeroed
// and h's generation stamped. The slot must already be spanned (grow). A
// fresh claim is what receiver-list dedup keys on: a tracked slot enters
// its owner shard's receiver list exactly when it is claimed for a node,
// and stays claimed — even with every bit cleared — until the admission
// sweep or the freeze drops the entry, or the node dies (all clearSlot).
func (b *claimBits) claim(h graph.Handle) (fresh bool) {
	if b.gen[h.Slot] == h.Gen {
		return false
	}
	b.zeroRow(h.Slot)
	b.gen[h.Slot] = h.Gen
	return true
}

// set adds lane li to h's slot row, growing the rows to span it, and
// reports whether the slot was freshly claimed (see claim).
func (b *claimBits) set(h graph.Handle, li int) (fresh bool) {
	b.grow(int(h.Slot) + 1)
	fresh = b.claim(h)
	b.or(h.Slot, li>>6, 1<<(li&63))
	return fresh
}

// has reports whether lane li currently holds h.
func (b *claimBits) has(h graph.Handle, li int) bool {
	return b.current(h) && b.laneBits.has(h, li)
}

// clear removes lane li from h's slot row; a no-op when the row is not
// current (stale state stays inert, the Unmark contract).
func (b *claimBits) clear(h graph.Handle, li int) {
	if b.current(h) {
		b.andNot(h.Slot, li>>6, 1<<(li&63))
	}
}

// clearSlot releases h's slot row for every lane at once — used on death
// and when a receiver entry is dropped. A no-op for a stale handle.
func (b *claimBits) clearSlot(h graph.Handle) {
	if b.current(h) {
		b.gen[h.Slot] = 0
	}
}
