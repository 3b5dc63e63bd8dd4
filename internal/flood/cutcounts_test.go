package flood

import (
	"fmt"
	"testing"

	"github.com/dyngraph/churnnet/internal/graph"
)

// row returns slot's exact counts, one per lane index, for the checks that
// compare counts; the engine reads cells (cellRow) and writes through the
// store's methods.
func (c *cutCounts) row(slot uint32) []int32 {
	r := make([]int32, 1<<c.shift)
	for li := range r {
		r[li] = c.count(slot, li)
	}
	return r
}

// cutCountsHarness drives a cutCounts and a plain int32 reference through
// the same operations and compares them cell by cell.
type cutCountsHarness struct {
	t     *testing.T
	c     cutCounts
	slots int
	lanes int       // allocated lanes; the store's rows are at least this wide
	ref   [][]int32 // ref[slot][lane], lane < lanes
}

func newCutCountsHarness(t *testing.T, w, slots int) *cutCountsHarness {
	h := &cutCountsHarness{t: t, c: newCutCounts(graph.NewShards(w, slots)), slots: slots, lanes: 1}
	h.c.grow(slots)
	h.ref = make([][]int32, slots)
	for s := range h.ref {
		h.ref[s] = make([]int32, 1)
	}
	return h
}

func (h *cutCountsHarness) inc(s, li int) { h.c.inc(uint32(s), li); h.ref[s][li]++ }
func (h *cutCountsHarness) dec(s, li int) { h.c.dec(uint32(s), li); h.ref[s][li]-- }
func (h *cutCountsHarness) zero(s, li int) {
	h.c.zero(uint32(s), li)
	h.ref[s][li] = 0
}

func (h *cutCountsHarness) set(s, li int, v int32) {
	h.c.set(uint32(s), li, v)
	h.ref[s][li] = v
}

// claim is a fresh claim of slot s: its old node's counts are dropped.
func (h *cutCountsHarness) claim(s int) {
	h.c.clearRow(uint32(s))
	clear(h.ref[s])
}

func (h *cutCountsHarness) clearLane(li int) {
	h.c.clearLane(li)
	for s := range h.ref {
		h.ref[s][li] = 0
	}
}

func (h *cutCountsHarness) dropEscapes(li int) {
	h.c.dropEscapes(li)
	for s := range h.ref {
		if h.ref[s][li] > maxInlineCount {
			h.ref[s][li] = 0
		}
	}
}

func (h *cutCountsHarness) widen(lanes int) {
	h.c.widen(lanes)
	for s := range h.ref {
		h.ref[s] = append(h.ref[s], make([]int32, lanes-h.lanes)...)
	}
	h.lanes = lanes
}

// check compares every count with the reference and pins the escape
// invariant: a cell is escapeCell exactly when its entry exists, in the
// slot's owner shard, and the table holds one entry per count above
// maxInlineCount — none once no count is.
func (h *cutCountsHarness) check(at string) {
	h.t.Helper()
	c := &h.c
	if width := 1 << c.shift; width < h.lanes || len(c.cells) != h.slots*width {
		h.t.Fatalf("%s: %d cells in rows of %d for %d slots and %d lanes", at, len(c.cells), width, h.slots, h.lanes)
	}
	above := 0
	for s := 0; s < h.slots; s++ {
		row := c.cellRow(uint32(s))
		for li, cell := range row {
			want := int32(0)
			if li < h.lanes {
				want = h.ref[s][li]
			}
			if got := c.count(uint32(s), li); got != want {
				h.t.Fatalf("%s: slot %d lane %d counts %d, want %d", at, s, li, got, want)
			}
			_, entry := c.over[c.sh.Owner(uint32(s))][overKey(uint32(s), li)]
			if (cell == escapeCell) != entry {
				h.t.Fatalf("%s: slot %d lane %d: cell %d, overflow entry %v", at, s, li, cell, entry)
			}
			if want > maxInlineCount {
				above++
			}
		}
	}
	for w, over := range c.over {
		for k := range over {
			if s := uint32(k >> 32); c.sh.Owner(s) != w {
				h.t.Fatalf("%s: entry for slot %d in shard %d, owner %d", at, s, w, c.sh.Owner(s))
			}
		}
	}
	if got := c.overflowEntries(); got != above {
		h.t.Fatalf("%s: %d overflow entries for %d counts above %d", at, got, above, maxInlineCount)
	}
}

// TestCutCountsOverflow drives the byte store's cells across the escape
// boundary (254 inline, 255 the escape, 256 beyond) and back through every
// write the engine makes — ++, --, = c, = 0, a fresh claim of a slot whose
// old node left an escaped cell, clearLane and dropEscapes on an escaped
// lane, and widen with escaped cells present — against an int32
// reference, on two shards so that entries live in the slot's owner
// shard.
func TestCutCountsOverflow(t *testing.T) {
	t.Parallel()
	const a, b = 7, 70 // slots in shard 0 and shard 1 (64-slot blocks)
	h := newCutCountsHarness(t, 2, 200)
	h.check("empty")

	h.set(a, 0, 250)
	for i := 0; i < 7; i++ { // 251 … 257: escapes at the step to 255
		h.inc(a, 0)
		h.check(fmt.Sprintf("++ to %d", h.ref[a][0]))
	}
	for i := 0; i < 7; i++ { // back to 250: inline again at 254
		h.dec(a, 0)
		h.check(fmt.Sprintf("-- to %d", h.ref[a][0]))
	}
	for _, d := range []int{+1, -1, +1, +1, -1, -1, +1, -1} { // ±1 around 254/255/256
		if d > 0 {
			h.inc(a, 0)
		} else {
			h.dec(a, 0)
		}
		h.check(fmt.Sprintf("%+d to %d", d, h.ref[a][0]))
	}
	for _, v := range []int32{300, 255, 256, 254, 1000, 0, 255, 254} { // = c
		h.set(b, 0, v)
		h.check(fmt.Sprintf("= %d", v))
	}
	h.set(b, 0, 400)
	h.zero(b, 0)
	h.check("= 0 on an escaped cell")

	// A fresh claim of a slot whose old node left an escaped cell.
	h.set(b, 0, 280)
	h.check("escaped before the claim")
	h.claim(b)
	h.check("fresh claim")

	// widen keeps escaped cells and their entries, at every row width.
	h.set(a, 0, 500)
	h.set(b, 0, 255)
	for _, lanes := range []int{2, 3, 64, 65, 130} {
		h.widen(lanes)
		h.check(fmt.Sprintf("widen(%d)", lanes))
		h.set(b, lanes-1, int32(255+lanes))
		h.set(a, lanes-1, int32(lanes))
	}
	h.check("escapes in wide rows")

	// clearLane on an escaped lane drops only that lane's entries.
	h.set(a, 64, 999)
	h.clearLane(64)
	h.check("clearLane(64)")
	h.dropEscapes(1)
	h.check("dropEscapes(1)")

	// Bring every count back inline: the table empties.
	for s := 0; s < h.slots; s++ {
		for li := 0; li < h.lanes; li++ {
			if h.ref[s][li] > maxInlineCount {
				h.set(s, li, maxInlineCount)
			}
		}
	}
	h.check("all inline")
	if n := h.c.overflowEntries(); n != 0 {
		t.Fatalf("%d overflow entries left with every count inline", n)
	}

	// A count never goes below zero: dec at zero panics instead of
	// wrapping the cell to the escape value.
	defer func() {
		if recover() == nil {
			t.Fatal("dec of a zero count did not panic")
		}
	}()
	h.c.dec(a, 5)
}

// FuzzCutCounts is the coverage-guided form of TestCutCountsOverflow: a
// script of 3-byte operations (op, slot, argument) over a 200-slot store
// on 1–4 shards, compared with the int32 reference after every operation.
// Set values land in 230..269, so the scripts cross the escape boundary
// with a handful of ±1 steps.
func FuzzCutCounts(f *testing.F) {
	f.Add([]byte{3, 7, 24, 0, 7, 0, 0, 7, 0, 1, 7, 0, 6, 7, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, script []byte, w uint8) {
		const slots = 200
		h := newCutCountsHarness(t, 1+int(w)%4, slots)
		for i := 0; i+2 < len(script) && i < 3*256; i += 3 {
			s, x := int(script[i+1])%slots, int(script[i+2])
			li := x % h.lanes
			var at string
			switch script[i] % 8 {
			case 0:
				h.inc(s, li)
				at = fmt.Sprintf("inc(%d, %d)", s, li)
			case 1:
				if h.ref[s][li] == 0 {
					continue // a count never goes below zero
				}
				h.dec(s, li)
				at = fmt.Sprintf("dec(%d, %d)", s, li)
			case 2:
				h.zero(s, li)
				at = fmt.Sprintf("zero(%d, %d)", s, li)
			case 3:
				v := int32(230 + x%40)
				h.set(s, li, v)
				at = fmt.Sprintf("set(%d, %d, %d)", s, li, v)
			case 4:
				h.claim(s)
				at = fmt.Sprintf("claim(%d)", s)
			case 5:
				h.clearLane(li)
				at = fmt.Sprintf("clearLane(%d)", li)
			case 6:
				h.dropEscapes(li)
				at = fmt.Sprintf("dropEscapes(%d)", li)
			case 7:
				lanes := min(130, h.lanes+1+x%70)
				h.widen(lanes)
				at = fmt.Sprintf("widen(%d)", lanes)
			}
			h.check(at)
		}
	})
}
