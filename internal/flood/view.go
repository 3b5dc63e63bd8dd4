package flood

import (
	"github.com/dyngraph/churnnet/internal/graph"
)

// Read-side accessors for serving layers (internal/serve): per-node and
// per-message informed state queried between Steps, and an immutable,
// incrementally captured view of the packed informed bitsets so a
// publisher can answer probes from a snapshot without touching the plane
// again.

// InformedAlive returns the number of currently-alive informed nodes of
// message id: the live counter for an in-flight message, the final count
// for a done or retired one. It panics on a MessageID the plane never
// issued.
func (t *Traffic) InformedAlive(id MessageID) int {
	msg := t.msg(id)
	if msg.status == MessageInFlight {
		return t.lanes[msg.laneIdx].informedAlive
	}
	return msg.res.FinalInformed
}

// Informed reports whether h is an alive node currently informed of
// message id. Meaningful for in-flight messages only: once a message is
// done its per-node membership goes stale against further churn, so done
// and retired messages report false for every node (their aggregate
// outcome stays queryable through Result). It panics on a MessageID the
// plane never issued. Call only between Steps (single-writer discipline).
func (t *Traffic) Informed(id MessageID, h graph.Handle) bool {
	msg := t.msg(id)
	if msg.status != MessageInFlight {
		return false
	}
	return t.g.IsAlive(h) && t.informed.has(h, msg.laneIdx)
}

// viewPageShift sets the TrafficView page: 1<<viewPageShift consecutive
// arena slots, a whole number of graph.ShardBlocks, so a page never splits an
// ownership block.
const (
	viewPageShift = 12
	viewPageSlots = 1 << viewPageShift
)

// viewPage is one immutable page of a TrafficView: the informed rows of
// viewPageSlots consecutive slots, as the plane held them when the page
// was captured, and the generation of the node alive in each, taken from
// the graph. A page starts on a word boundary at every row width, so its
// rows are laid out as the plane's (rowLayout) from offset 0.
type viewPage struct {
	gens  [viewPageSlots]uint32 // 0 = no alive node at capture
	words []uint64              // the page's rows, raw lane bits
}

// viewDirty is the plane's record of which view pages the informed bitset
// has changed on since the last CaptureView. Every write to the bitset is
// serial (cross, noteDeath, Inject's lane reuse and widening), so no
// sharded pass marks anything.
type viewDirty struct {
	bits []uint64 // one bit per page
	all  bool     // every page (lane reuse, row layout change)
	last *TrafficView
}

// mark records that slot's page changed.
func (d *viewDirty) mark(slot uint32) {
	p := int(slot >> viewPageShift)
	if w := p >> 6; w >= len(d.bits) {
		d.bits = append(d.bits, make([]uint64, w+1-len(d.bits))...)
	}
	d.bits[p>>6] |= 1 << (p & 63)
}

// has reports whether page p changed.
func (d *viewDirty) has(p int) bool {
	return d.all || p>>6 < len(d.bits) && d.bits[p>>6]&(1<<(p&63)) != 0
}

// TrafficView is an immutable copy of a plane's packed informed state for
// the messages in flight at capture time. A serving layer captures one
// view per published snapshot version and answers node/message probes
// from it without synchronizing with the plane again; the view stays
// internally consistent (it describes exactly the capture instant) even
// as the plane advances.
//
// A view is a table of immutable pages. The rows are stored raw, bits of
// lanes no longer in flight included: laneOf admits only the lanes in
// flight at capture, and a lane keeps its bits once it leaves flight, so
// no read reaches a stale bit (a reused lane clears its column first,
// which changes every page). A dead node's row is cleared at its death,
// so a page holds rows of live nodes only at its capture.
type TrafficView struct {
	rowLayout
	pages  []*viewPage
	laneOf map[MessageID]int
	ids    []MessageID // in-flight messages in admission order
}

// CaptureView captures the plane's informed state for every in-flight
// message. When prev is the view this plane captured last, only the pages
// the informed bitset changed on since then are copied, and every other
// page is shared with prev; prev stays valid and unchanged. Any other
// prev, nil included, takes a full capture. Call only between Steps, from
// the goroutine driving the plane.
func (t *Traffic) CaptureView(prev *TrafficView) *TrafficView {
	d := &t.viewDirty
	if prev != d.last {
		prev = nil
	}
	v := t.buildView(prev)
	clear(d.bits)
	d.all = false
	d.last = v
	return v
}

// buildView captures a view that shares with prev (nil shares nothing)
// every page not marked dirty, leaving the dirty record as it is.
func (t *Traffic) buildView(prev *TrafficView) *TrafficView {
	slots := t.informed.slots()
	v := &TrafficView{
		rowLayout: t.informed.rowLayout,
		pages:     make([]*viewPage, (slots+viewPageSlots-1)>>viewPageShift),
		laneOf:    make(map[MessageID]int, len(t.inFlight)),
		ids:       make([]MessageID, 0, len(t.inFlight)),
	}
	for p := range v.pages {
		if prev != nil && p < len(prev.pages) && !t.viewDirty.has(p) {
			v.pages[p] = prev.pages[p]
		} else {
			v.pages[p] = t.capturePage(p)
		}
	}
	for _, li := range t.inFlight {
		id := t.lanes[li].id
		v.laneOf[id] = li
		v.ids = append(v.ids, id)
	}
	return v
}

// capturePage copies page p of the informed bitset with the generations
// of the nodes alive in it.
func (t *Traffic) capturePage(p int) *viewPage {
	t.viewPagesCopied++
	b := &t.informed
	pg := &viewPage{words: make([]uint64, b.wordsFor(viewPageSlots))}
	lo := p << viewPageShift
	w, _ := b.at(uint32(lo), 0)
	copy(pg.words, b.words[w:])
	for s := lo; s < min(lo+viewPageSlots, t.g.NumSlots()); s++ {
		pg.gens[s-lo] = t.g.SlotHandle(uint32(s)).Gen
	}
	return pg
}

// InFlight returns the captured in-flight MessageIDs in admission order.
// The slice is owned by the view; callers must not mutate it.
func (v *TrafficView) InFlight() []MessageID { return v.ids }

// Informed reports whether h was an informed alive node for message id at
// capture time. Unknown messages (done, retired, injected after the
// capture, or never issued) report false, as do handles dead or unborn at
// capture time.
func (v *TrafficView) Informed(id MessageID, h graph.Handle) bool {
	li, ok := v.laneOf[id]
	if !ok {
		return false
	}
	w, ok := v.word(h, li>>6)
	return ok && w&(1<<(li&63)) != 0
}

// word returns word i of h's captured row, and false when h was not an
// alive node at capture time.
func (v *TrafficView) word(h graph.Handle, i int) (uint64, bool) {
	p, o := int(h.Slot>>viewPageShift), h.Slot&(viewPageSlots-1)
	if h.IsNil() || p >= len(v.pages) || v.pages[p].gens[o] != h.Gen {
		return 0, false
	}
	w, off := v.at(o, i)
	return v.pages[p].words[w] >> off & v.mask, true
}
