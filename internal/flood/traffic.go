package flood

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/dist"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// Traffic is the incremental cut-set flooding engine: M in-flight
// broadcasts share one model, one churn event stream and one hook chain,
// and Run is its one-message case. DESIGN.md ("The cut-set flooding
// engine", "Multi-message traffic plane") gives the full rationale.
//
// Where RunReference rescans every informed neighborhood each round, the
// plane keeps, per message, the size of the live cut at every receiver —
// the number of live edge incidences between an uninformed alive node and
// the message's informed nodes — and updates it only on the events that
// change it: a node crossing the cut (counted in one drain per Step or
// Inject, run before that call returns, which either scans the crossing
// nodes' neighborhoods or, once recounting every uninformed receiver from
// its own costs less, does that; see drainFrontiers), a death
// (Hooks.OnDeath, which walks the dead node's neighborhood once) and an
// edge creation or regeneration (Hooks.OnEdge). Admission needs only
// whether some frozen sender qualifies, and a count answers that: > 0 at
// the freeze, and still > 0 after this round's fresh edges are withdrawn
// under Discretized semantics. Completion is O(1) per round: a message's informedAlive
// against the shared preRoundAlive. Every round freezes exactly the live
// cut of the pre-advance snapshot, so each message's Result is
// bit-for-bit RunReference's on an identically seeded model advanced to
// its injection step (TestEngineMatchesReference,
// TestEngineCutMatchesRecompute, TestTrafficMatchesSingleMessageOracle).
//
// A message occupies a lane: a bit in the two packed per-slot bitsets
// (laneBits: "informs the slot's node" and "tracks it as a receiver", 64
// lanes per word under one shared per-slot generation), a cell in every
// row of the plane-wide count store (cutCounts, valid under tracked's
// generation), plus a constant-size private record with its counter and
// Result. Every cross-lane operation is word-parallel — an edge event
// classifies against all M cuts with one masked XOR per word, a node
// admitted by k lanes is queued and scanned once, and the freeze and
// admission sweeps visit each receiver once for all lanes. With one lane
// every word is a single uint64 and every count row a single byte (a
// count above 254 escapes to an exact per-shard overflow table; see
// cutCounts); there is no separate one-message path.
//
// Under TrafficOptions.Parallelism the cut is partitioned by arena slot
// (graph.Shards: block-cyclic, 64-slot blocks) and the frontier
// drain (in either direction), the freeze and the admission sweep fan
// out across the shards, one barrier per pass for all lanes. Merges run
// in a scheduling-free order, and Results are identical at every par:
// admission reads a receiver's count, which no order changes, and every
// Result field is a count over admitted sets, so no internal order is
// observable — which also makes same-Step Inject order unobservable
// (TestTrafficInjectionOrderInvariance). Model advancement and every hook
// stay serial.
//
// A message leaves the in-flight set on its own terms — completion
// (unless RunToMax), die-out or its MaxRounds cap — and its lane turns
// dormant, masked out of every event; Retire releases the lane for reuse,
// and the next Inject to take it starts from an all-zero bit column and
// count column, keeping memory O(peak live messages) · O(slots) plus a
// constant-size record per message (TestTrafficRetireReleasesAndReuses).
//
// The plane owns the model between NewTraffic and Close: callers must not
// advance the model themselves, and observer lifetimes must nest (Close
// restores the hooks saved at NewTraffic).
type Traffic struct {
	m    core.Model
	g    *graph.Graph
	opts TrafficOptions
	sh   graph.Shards // resolved worker shards and slot ownership

	maxRounds int
	prevHooks core.Hooks
	closed    bool

	steps int // plane rounds executed (Step calls)

	msgs      []message // indexed by MessageID; constant-size each
	lanes     []*lane   // lane slots; nil when retired
	freeLanes []int     // retired lane slots available for reuse
	inFlight  []int     // lane indices of in-flight messages, admission order

	// Packed lane-membership state, one bit per (slot, lane), 64 lanes
	// per word. stride = ceil(len(lanes)/64) words per slot; liveMask
	// holds the in-flight lane indices (stride words) and masks every
	// event read, so bits of dormant or retired lanes are inert.
	stride   int
	liveMask []uint64
	informed laneBits // lanes that consider the slot's node informed
	tracked  laneBits // lanes tracking the slot's node as a receiver

	// viewDirty records the TrafficView pages informed changed on since
	// the last CaptureView (see view.go); viewPagesCopied counts the pages
	// CaptureView copied, for the tests that pin a capture at O(dirty).
	viewDirty       viewDirty
	viewPagesCopied int

	// cnt holds, for every tracked slot, one cut count per lane; a row is
	// valid under tracked's generation for the slot (see claimRow). For a
	// live lane and an uninformed alive node it is exact at every freeze,
	// and nonzero only where the lane's tracking bit is set.
	cnt cutCounts

	// Fresh incidences of the running advance, recorded by edgeTo under
	// Discretized semantics: fresh[k] was counted toward its receiver for
	// the lanes in freshLanes[k*stride:(k+1)*stride]. Step drops the
	// records right after the freeze — an incidence made between Steps is
	// in the frozen snapshot — so at admission they are exactly the
	// advance's, which admission withdraws to read the frozen count minus
	// dead senders (see applyFresh).
	fresh      []freshEdge
	freshLanes []uint64

	// Shared per-round state: functions of the graph and the round alone,
	// identical for every lane. preRoundAlive counts alive nodes born
	// before the running round — the reference's required.
	preRoundAlive int
	roundStartSeq uint64

	// Pending frontier: scanNodes holds the nodes that crossed in the
	// running Step or Inject, scanLanes[k*stride:(k+1)*stride] the packed
	// lanes that queued scanNodes[k] (see cross). drainFrontiers counts
	// their incidences and empties it before the call returns, so no hook
	// — churn between Steps included — ever sees an informed node whose
	// incidences are not yet counted, and every pending handle is alive at
	// its scan.
	scanNodes []graph.Handle
	scanLanes []uint64

	shards []trafficShard

	// stage holds the parallel drain's routing buffers: chunk c stages
	// the cut edges it discovers for shard s in stage[c*par+s]. Buffers
	// are retained across rounds.
	stage     [][]laneCutEdge
	chunkNext atomic.Int64

	hookLanes []uint64 // the hooks' scratch for a masked lane mask

	// onStage, when non-nil, filters every discovered cut edge right
	// before it is recorded for lane li (false = drop). Test-only: the
	// corrupted-engine negative control drops one cross-message frontier
	// event and asserts the differential oracle catches the divergence.
	onStage func(li int, recv, sender graph.Handle) bool

	// onFreeze, when non-nil, observes the frozen cut (each shard's
	// receivers[:nFrozen] with their frozen words, and their counts) right
	// before the model advances. Test-only: the cut-vs-recompute property
	// test compares it with the cut recomputed from scratch.
	onFreeze func()

	// drainDir overrides the drain direction rule (see pullPays), and
	// onDrain, when non-nil, observes the direction every drain that
	// counts takes (true = pull) with the rule's inputs u and nScan.
	// Test-only: the oracles run under each forced direction, and check
	// which one the rule picks.
	drainDir drainDirection
	onDrain  func(pull bool, u, nScan int)
}

// drainDirection selects how drainFrontiers counts a wave's incidences;
// see pullPays.
type drainDirection uint8

const (
	drainAuto drainDirection = iota // the rule in pullPays
	drainPush                       // always scan the crossing nodes
	drainPull                       // always recount the uninformed receivers
)

// TrafficOptions configures a Traffic plane. Every option applies
// uniformly to all injected messages.
type TrafficOptions struct {
	// Mode selects Discretized (default) or Asynchronous semantics.
	Mode Mode
	// MaxRounds caps each message's rounds counted from its injection;
	// 0 selects DefaultMaxRounds(model.N()).
	MaxRounds int
	// KeepTrajectory records per-round informed/alive counts per message.
	KeepTrajectory bool
	// RunToMax keeps completed messages flooding until their round cap.
	RunToMax bool
	// Parallelism is the worker-shard count of the batched cut passes,
	// with the same contract as Options.Parallelism: 0 or 1 runs serial,
	// any negative value selects the Auto policy, and per-message Results
	// are bit-for-bit identical at every setting.
	Parallelism int
}

// MessageID identifies one message admitted to a Traffic plane. IDs are
// dense and monotone in admission order and are never reused, even when
// the lane slot backing the message is.
type MessageID int

// MessageStatus is the lifecycle state of an injected message.
type MessageStatus uint8

// Message lifecycle states.
const (
	// MessageInFlight: the message still floods on every Step.
	MessageInFlight MessageStatus = iota
	// MessageDone: the message finished (completed, died out or hit its
	// round cap); its lane is dormant until Retire.
	MessageDone
	// MessageRetired: the lane's per-slot state has been released; the
	// Result remains queryable.
	MessageRetired
)

// String names the status.
func (s MessageStatus) String() string {
	switch s {
	case MessageInFlight:
		return "in-flight"
	case MessageDone:
		return "done"
	case MessageRetired:
		return "retired"
	default:
		return fmt.Sprintf("MessageStatus(%d)", uint8(s))
	}
}

// message is the constant-size per-message record that survives
// retirement.
type message struct {
	laneIdx int // -1 after retirement
	status  MessageStatus
	step    int    // plane steps executed at injection
	res     Result // final copy, written when the message finishes
}

// lane is one message's private flooding state: everything that is not
// per slot. The informed/receiver membership lives in
// Traffic.informed/Traffic.tracked under this lane's bit index, and its
// cut counts in Traffic.cnt under the same index, so a lane is constant
// size.
type lane struct {
	id    MessageID
	round int // per-message rounds executed (relative to injection)

	informedAlive int
	res           Result
}

// trafficShard owns one shard's receiver-side bookkeeping, shared by
// every lane: a node tracked as a receiver by k lanes appears once.
type trafficShard struct {
	// receivers lists the receiver handles owned by this shard, each
	// live one exactly once: a handle is appended when its tracked slot
	// is freshly claimed and stays until the admission sweep or the
	// freeze releases the slot (see laneBits.claim). Entries whose slot a
	// death released are stale and dropped at the next freeze.
	receivers []graph.Handle

	// The frozen cut of the running round, flat in receiver order:
	// receivers[i], i < nFrozen, has a positive count for the lanes set in
	// frozenWords[i*stride:(i+1)*stride]. Receivers tracked during the
	// advance are appended past nFrozen.
	nFrozen     int
	frozenWords []uint64

	// Admission-sweep output, applied at the serial merge: admRecv[j]
	// was admitted by the lanes set in admWords[j*stride:(j+1)*stride].
	admRecv  []graph.Handle
	admWords []uint64
}

// laneCutEdge stages one discovered candidate edge for its receiver's
// owner shard; scan indexes the drain's scanNodes/scanLanes (the sender
// and the packed lanes the edge fans out to).
type laneCutEdge struct {
	recv graph.Handle
	scan int32
}

// freshEdge is one edge incidence counted during the running advance: an
// edge from sender toward recv (see Traffic.fresh).
type freshEdge struct {
	recv, sender graph.Handle
}

// NewTraffic opens a multi-message traffic plane over m. It installs the
// engine's hooks chained over any existing observer (restored by Close);
// the incremental cut bookkeeping relies on core.Model's edge-event
// contract.
func NewTraffic(m core.Model, opts TrafficOptions) *Traffic {
	maxRounds := opts.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds(m.N())
	}
	t := &Traffic{
		m:         m,
		g:         m.Graph(),
		opts:      opts,
		sh:        graph.NewShards(opts.Parallelism, m.N()),
		maxRounds: maxRounds,
		stride:    1,
		liveMask:  make([]uint64, 1),
	}
	t.cnt = newCutCounts(t.sh)
	t.informed.init(1)
	t.tracked.init(1)
	// Span the arena as it stands; the arrays double only when it outgrows
	// them.
	t.informed.grow(t.g.NumSlots())
	t.growTracked(t.g.NumSlots())
	t.shards = make([]trafficShard, t.sh.W())
	t.prevHooks = m.Hooks()
	m.SetHooks(core.ChainHooks(core.Hooks{OnDeath: t.noteDeath, OnEdge: t.noteEdge}, t.prevHooks))
	return t
}

// Close detaches the plane from the model's hook chain, restoring the
// hooks saved at NewTraffic. In-flight messages stop flooding; every
// message's Status and Result stay queryable. Closing twice is a no-op.
func (t *Traffic) Close() {
	if t.closed {
		return
	}
	t.closed = true
	t.m.SetHooks(t.prevHooks)
	t.inFlight = t.inFlight[:0]
}

// Inject admits a new message sourced at src (Nil selects the model's
// most recently born node, the single-run convention), counts the
// source's incidences into its cut, and returns its MessageID. The
// message's first flooding round is the next Step; its
// Result is bit-for-bit what RunReference from the same source and model
// state would produce. It panics if the source is not alive or the plane
// is closed.
func (t *Traffic) Inject(src graph.Handle) MessageID {
	if t.closed {
		panic("flood: Inject on a closed Traffic plane")
	}
	if src.IsNil() {
		src = t.m.LastBorn()
	}
	if !t.g.IsAlive(src) {
		panic("flood: traffic source is not an alive node")
	}
	id := MessageID(len(t.msgs))

	var li int
	if n := len(t.freeLanes); n > 0 {
		li = t.freeLanes[n-1]
		t.freeLanes = t.freeLanes[:n-1]
		// A reused lane index must start from an all-zero bit and count
		// column: while the lane was free its stale state was masked out
		// of every read by liveMask, but re-granting the index makes it
		// live. Clearing the column changes every view page.
		t.informed.clearLane(li)
		t.viewDirty.all = true
		t.tracked.clearLane(li)
		t.cnt.clearLane(li)
	} else {
		li = len(t.lanes)
		t.lanes = append(t.lanes, nil)
		if need := (len(t.lanes) + 63) / 64; need > t.stride {
			t.reshape(need)
		}
		t.cnt.widen(len(t.lanes))
	}
	ln := &lane{id: id}
	t.lanes[li] = ln

	ln.res = Result{
		Source:                src,
		CompletionRound:       -1,
		StrictCompletionRound: -1,
		DiedOutRound:          -1,
		PeakInformed:          1,
	}
	alive0 := t.g.NumAlive()
	if alive0 > 0 {
		ln.res.PeakFraction = 1 / float64(alive0)
	}
	if t.opts.KeepTrajectory {
		ln.res.Informed = append(ln.res.Informed, 1)
		ln.res.Alive = append(ln.res.Alive, alive0)
	}
	t.setLive(li)
	lanes := make([]uint64, t.stride)
	lanes[li>>6] = 1 << (li & 63)
	t.cross(src, lanes)
	t.drainFrontiers()

	t.inFlight = append(t.inFlight, li)
	t.msgs = append(t.msgs, message{laneIdx: li, status: MessageInFlight, step: t.steps})
	return id
}

// Steps returns the number of plane rounds executed so far.
func (t *Traffic) Steps() int { return t.steps }

// Live returns the number of in-flight messages.
func (t *Traffic) Live() int { return len(t.inFlight) }

// Injected returns the number of messages ever admitted.
func (t *Traffic) Injected() int { return len(t.msgs) }

// msg resolves id, panicking with a diagnosable message on an id this
// plane never issued — Status, Result and Retire share the check, so a
// caller's stale or foreign MessageID fails loudly instead of as a raw
// index-out-of-range deep in slice code.
func (t *Traffic) msg(id MessageID) *message {
	if id < 0 || int(id) >= len(t.msgs) {
		panic(fmt.Sprintf("flood: unknown MessageID %d (plane has admitted %d messages)", id, len(t.msgs)))
	}
	return &t.msgs[id]
}

// Status reports where id is in its lifecycle. It panics on a MessageID
// the plane never issued; it remains valid on a closed plane.
func (t *Traffic) Status(id MessageID) MessageStatus { return t.msg(id).status }

// Result returns id's flooding outcome: the final Result once the message
// is done or retired, or a snapshot of the in-progress one (fields cover
// the rounds executed so far). It panics on a MessageID the plane never
// issued; it remains valid on a closed plane.
func (t *Traffic) Result(id MessageID) Result {
	msg := t.msg(id)
	if msg.status == MessageInFlight {
		res := t.lanes[msg.laneIdx].res
		// Detach the trajectories: the lane keeps appending to its own.
		res.Informed = append([]int(nil), res.Informed...)
		res.Alive = append([]int(nil), res.Alive...)
		return res
	}
	return msg.res
}

// Retire releases a done message's lane — its bit columns in the packed
// membership state and its column of cut counts, whose overflow entries
// it drops — for reuse by later injections; the Result remains
// queryable. It panics on a MessageID the plane never issued, on a closed
// plane, and unless the message is MessageDone: in-flight messages run to
// their own finish, and retiring twice is a bug.
func (t *Traffic) Retire(id MessageID) {
	if t.closed {
		panic("flood: Retire on a closed Traffic plane")
	}
	msg := t.msg(id)
	if msg.status != MessageDone {
		panic("flood: Retire of a message that is " + msg.status.String())
	}
	t.lanes[msg.laneIdx] = nil
	t.cnt.dropEscapes(msg.laneIdx)
	t.freeLanes = append(t.freeLanes, msg.laneIdx)
	msg.laneIdx = -1
	msg.status = MessageRetired
}

// Step advances the plane one transmission unit: freeze every in-flight
// lane's cut, advance the model one round (churn events update all lanes
// through the shared hook chain), then run every lane's admission and
// round accounting, and scan the admitted nodes' neighborhoods for the
// lanes still in flight. Messages that finish this round leave the
// in-flight set with their Result final.
func (t *Traffic) Step() {
	if t.closed {
		panic("flood: Step on a closed Traffic plane")
	}
	t.steps++
	g := t.g

	t.freeze()
	t.fresh = t.fresh[:0]
	t.freshLanes = t.freshLanes[:0]
	t.roundStartSeq = g.NextBirthSeq()
	t.preRoundAlive = g.NumAlive()
	if t.onFreeze != nil {
		t.onFreeze()
	}

	t.m.AdvanceRound()

	// Admission over the frozen candidates; every shard sweeps its own
	// frozen receivers across all lanes at once, crossings apply at the
	// serial merge in (shard, receiver, ascending lane) order. The
	// advance's fresh incidences are out of the counts during the sweep
	// and back in for the lanes that did not admit.
	t.applyFresh(-1)
	t.sh.ForEachShard(func(w int) { t.admitShard(w) })
	t.applyFresh(+1)
	alive := g.NumAlive()
	for w := range t.shards {
		sh := &t.shards[w]
		for j, v := range sh.admRecv {
			t.cross(v, sh.admWords[j*t.stride:(j+1)*t.stride])
		}
	}
	keep := t.inFlight[:0]
	for _, li := range t.inFlight {
		ln := t.lanes[li]
		if t.roundAccounting(ln, alive) {
			keep = append(keep, li)
		} else {
			msg := &t.msgs[ln.id]
			msg.status = MessageDone
			msg.res = ln.res
			t.clearLive(li)
		}
	}
	t.inFlight = keep
	t.drainFrontiers()
}

// roundAccounting does one lane's per-round bookkeeping from the counters
// alone — no graph pass — and reports whether the message stays in
// flight. Every informed alive node predates the round (admission only
// reaches nodes alive at the freeze), so informedAlive doubles as the
// count of informed pre-round nodes.
func (t *Traffic) roundAccounting(ln *lane, alive int) bool {
	ln.round++
	res := &ln.res
	res.Rounds = ln.round

	informedAlive := ln.informedAlive
	if t.opts.KeepTrajectory {
		res.Informed = append(res.Informed, informedAlive)
		res.Alive = append(res.Alive, alive)
	}
	if informedAlive > res.PeakInformed {
		res.PeakInformed = informedAlive
	}
	if alive > 0 {
		if f := float64(informedAlive) / float64(alive); f > res.PeakFraction {
			res.PeakFraction = f
		}
	}
	res.FinalInformed, res.FinalAlive = informedAlive, alive

	if informedAlive == t.preRoundAlive && !res.Completed {
		res.Completed = true
		res.CompletionRound = ln.round
	}
	if informedAlive == alive && !res.StrictlyCompleted {
		res.StrictlyCompleted = true
		res.StrictCompletionRound = ln.round
	}
	if informedAlive == 0 {
		res.DiedOut = true
		res.DiedOutRound = ln.round
		return false // absorbing: nobody is left to transmit
	}
	if res.Completed && !t.opts.RunToMax {
		return false
	}
	return ln.round < t.maxRounds
}

// --- packed lane plumbing ---

// scanChunksPerWorker over-decomposes the frontier scan: workers claim
// chunks atomically, so a chunk of expensive neighborhoods does not
// serialize the tail of the pass. Chunk-indexed staging keeps the merge
// order independent of which worker claimed what.
const scanChunksPerWorker = 4

func (t *Traffic) setLive(li int)   { t.liveMask[li>>6] |= 1 << (li & 63) }
func (t *Traffic) clearLive(li int) { t.liveMask[li>>6] &^= 1 << (li & 63) }

// reshape widens the packed state to a new words-per-slot stride when
// the allocated lane count crosses a 64-lane word boundary. Serial
// context only (Inject, before its crossing): frozen/admission words are
// ephemeral within one Step and no scan is pending, so nothing else needs
// migration. Every view page changes layout.
func (t *Traffic) reshape(stride int) {
	t.informed.reshape(stride)
	t.viewDirty.all = true
	t.tracked.reshape(stride)
	lm := make([]uint64, stride)
	copy(lm, t.liveMask)
	t.liveMask = lm
	t.stride = stride
}

// cutCounts is the plane's count store: one byte cell per (arena slot,
// lane), slot-major in rows of 1<<shift cells, where 1<<shift is the
// smallest power of two at least the allocated lane count — 1 byte per
// slot at one lane. A cell holds its count inline up to maxInlineCount;
// the value escapeCell stands for a larger count, whose exact value lives
// in the overflow table of the slot's owner shard, keyed by (slot, lane
// index). A cell is escapeCell exactly when its entry exists, and a count
// is never negative (dec panics rather than wrap). A count is at most the
// node's degree, so the table is empty unless some receiver has more than
// maxInlineCount live incidences with one message's informed nodes.
//
// Every write goes through the methods below — only drainPull stores an
// inline count straight into a cell it knows is zero — and a write touches
// only the slot's owner shard's table, so the owner-shard passes stay
// race-free; widen, clearLane and dropEscapes are serial. The store keeps
// no validity of its own: a row counts only while Traffic.tracked holds
// the slot for its node, and a fresh claim zeroes it (claimRow).
type cutCounts struct {
	cells []uint8
	shift uint
	sh    graph.Shards
	over  []map[uint64]int32 // per owner shard: overKey(slot, li) -> exact count
}

const (
	maxInlineCount = 254 // the largest count a cell holds inline
	escapeCell     = 255 // the cell value of a count held in the overflow table

	// overflowEntryBytes is the charge per overflow entry in footprintBytes:
	// an 8-byte key and a 4-byte count padded to a 16-byte map slot, plus
	// the map's control bytes and spare slots at its typical load.
	overflowEntryBytes = 32
)

func newCutCounts(sh graph.Shards) cutCounts {
	return cutCounts{sh: sh, over: make([]map[uint64]int32, sh.W())}
}

// overKey keys (slot, li) in the overflow table. The key names the lane
// index, not the cell offset, so widen leaves every entry valid.
func overKey(slot uint32, li int) uint64 { return uint64(slot)<<32 | uint64(li) }

// cellRow returns slot's cells, one per lane index. A cell is positive
// exactly when its count is; use count for the exact value.
func (c *cutCounts) cellRow(slot uint32) []uint8 {
	s := int(slot) << c.shift
	return c.cells[s : s+1<<c.shift]
}

// inc adds one to lane li's count at slot; a count leaving the inline
// range escapes to the overflow table.
func (c *cutCounts) inc(slot uint32, li int) {
	if i := int(slot)<<c.shift | li; c.cells[i] < maxInlineCount {
		c.cells[i]++
	} else {
		c.setAt(i, c.countAt(i)+1)
	}
}

// dec subtracts one from lane li's count at slot; an escaped count that
// falls back into the inline range returns to its cell.
func (c *cutCounts) dec(slot uint32, li int) {
	if i := int(slot)<<c.shift | li; c.cells[i]-1 < maxInlineCount { // 1 ≤ cell ≤ maxInlineCount
		c.cells[i]--
	} else {
		c.setAt(i, c.countAt(i)-1)
	}
}

// set stores v as lane li's count at slot.
func (c *cutCounts) set(slot uint32, li int, v int32) {
	if i := int(slot)<<c.shift | li; c.cells[i] != escapeCell && uint32(v) <= maxInlineCount {
		c.cells[i] = uint8(v)
	} else {
		c.setAt(i, v)
	}
}

// zero sets lane li's count at slot to zero.
func (c *cutCounts) zero(slot uint32, li int) {
	i := int(slot)<<c.shift | li
	if c.cells[i] == escapeCell {
		delete(c.over[c.sh.Owner(slot)], overKey(slot, li))
	}
	c.cells[i] = 0
}

// count returns lane li's exact count at slot.
func (c *cutCounts) count(slot uint32, li int) int32 {
	return c.countAt(int(slot)<<c.shift | li)
}

// countAt and setAt are count and set on a cell offset, the slow path of
// the writes: setAt moves a count between its cell and the overflow
// table, and panics on a negative count, which a cell would wrap.
func (c *cutCounts) countAt(i int) int32 {
	if v := c.cells[i]; v != escapeCell {
		return int32(v)
	}
	slot := uint32(i >> c.shift)
	return c.over[c.sh.Owner(slot)][overKey(slot, i&(1<<c.shift-1))]
}

func (c *cutCounts) setAt(i int, v int32) {
	slot, li := uint32(i>>c.shift), i&(1<<c.shift-1)
	if v < 0 {
		panic(fmt.Sprintf("flood: negative cut count %d at slot %d, lane %d", v, slot, li))
	}
	w := c.sh.Owner(slot)
	if v <= maxInlineCount {
		if c.cells[i] == escapeCell {
			delete(c.over[w], overKey(slot, li))
		}
		c.cells[i] = uint8(v)
		return
	}
	if c.over[w] == nil {
		c.over[w] = make(map[uint64]int32)
	}
	c.over[w][overKey(slot, li)] = v
	c.cells[i] = escapeCell
}

// clearRow zeroes every count at slot (a fresh claim).
func (c *cutCounts) clearRow(slot uint32) {
	row := c.cellRow(slot)
	if over := c.over[c.sh.Owner(slot)]; len(over) > 0 {
		for li, v := range row {
			if v == escapeCell {
				delete(over, overKey(slot, li))
			}
		}
	}
	clear(row)
}

// grow spans at least n slots; new rows are zero.
func (c *cutCounts) grow(n int) {
	if need := n << c.shift; need > len(c.cells) {
		nc := make([]uint8, need)
		copy(nc, c.cells)
		c.cells = nc
	}
}

// widen doubles the row width until it holds lanes cells, keeping every
// row's cells; the overflow entries stay as they are. Serial context only
// (Inject).
func (c *cutCounts) widen(lanes int) {
	shift := c.shift
	for 1<<shift < lanes {
		shift++
	}
	if shift == c.shift {
		return
	}
	slots := len(c.cells) >> c.shift
	nc := make([]uint8, slots<<shift)
	for s := 0; s < slots; s++ {
		copy(nc[s<<shift:], c.cells[s<<c.shift:(s+1)<<c.shift])
	}
	c.cells, c.shift = nc, shift
}

// clearLane zeroes lane li's count in every row (lane index reuse; see
// Inject). O(slots). Serial context only.
func (c *cutCounts) clearLane(li int) {
	c.dropEscapes(li)
	for i := li; i < len(c.cells); i += 1 << c.shift {
		c.cells[i] = 0
	}
}

// dropEscapes zeroes lane li's escaped counts and deletes their overflow
// entries, in O(entries) (Retire; clearLane). Serial context only.
func (c *cutCounts) dropEscapes(li int) {
	for _, over := range c.over {
		//churnvet:ordered each matching entry is zeroed and deleted on its own; no order is observable
		for k := range over {
			if int(uint32(k)) == li {
				c.cells[int(k>>32)<<c.shift|li] = 0
				delete(over, k)
			}
		}
	}
}

// overflowEntries returns the number of escaped counts.
func (c *cutCounts) overflowEntries() int {
	n := 0
	for _, over := range c.over {
		n += len(over)
	}
	return n
}

// footprintBytes returns the store's size: 1 byte per cell plus
// overflowEntryBytes per overflow entry.
func (c *cutCounts) footprintBytes() int {
	return len(c.cells) + c.overflowEntries()*overflowEntryBytes
}

// growTracked spans n slots in the tracked bitset and the count store,
// which grow together. Serial context only.
func (t *Traffic) growTracked(n int) {
	t.tracked.grow(n)
	t.cnt.grow(t.tracked.slots())
}

// claimRow claims x's tracked slot and returns its tracking words. A
// fresh claim zeroes the slot's count row — whatever it holds belongs to
// an earlier node or an earlier tracking spell — and lists x in its owner
// shard's receivers. Owner-shard context (see fanOut).
func (t *Traffic) claimRow(x graph.Handle) []uint64 {
	tw, fresh := t.tracked.claim(x)
	if fresh {
		t.cnt.clearRow(x.Slot)
		sh := &t.shards[t.sh.Owner(x.Slot)]
		sh.receivers = append(sh.receivers, x)
	}
	return tw
}

// cross moves v to the informed side of every lane set in lanes (a
// stride-word mask), counting it in each lane, and queues v's
// neighborhood scan with those lanes for the drain that ends the calling
// Step or Inject. Serial context only. No lane in lanes tracks v — the
// admission sweep dropped the admitting lanes' tracking, and a fresh lane
// tracks nothing — which keeps the invariant later passes rely on: a lane
// never tracks a node it informs. The sweep admits a node for all its
// lanes at once and Inject queues one node, so no drain scans a node
// twice.
func (t *Traffic) cross(v graph.Handle, lanes []uint64) {
	t.informed.grow(int(v.Slot) + 1)
	iw, _ := t.informed.claim(v)
	t.viewDirty.mark(v.Slot)
	for i, m := range lanes {
		iw[i] |= m
		t.scanLanes = append(t.scanLanes, m)
		for ; m != 0; m &= m - 1 {
			ln := t.lanes[i<<6|bits.TrailingZeros64(m)]
			ln.res.EverInformed++
			ln.informedAlive++
		}
	}
	t.scanNodes = append(t.scanNodes, v)
}

// noteDeath maintains the shared pre-round counter, decrements the
// informed counter of exactly the in-flight lanes whose bit is set on
// the dead slot, withdraws the dead node's incidences from its neighbors'
// counts for those lanes, and drops the slot's receiver tracking for all
// lanes with one store. The node's edges are still in the graph here
// (core.Hooks), and every incidence was counted: a crossing node's
// incidences are drained before the Step or Inject that made it cross
// returns, so before it can die.
func (t *Traffic) noteDeath(h graph.Handle) {
	if t.g.BirthSeq(h) < t.roundStartSeq {
		t.preRoundAlive--
	}
	if len(t.inFlight) == 0 {
		return
	}
	if iw := t.informed.wordsOf(h); iw != nil {
		t.viewDirty.mark(h.Slot) // the next view drops the dead node
		lanes := t.hookLanes[:0]
		informs := false
		for i, w := range iw {
			w &= t.liveMask[i]
			lanes = append(lanes, w)
			informs = informs || w != 0
			for ; w != 0; w &= w - 1 {
				t.lanes[i<<6|bits.TrailingZeros64(w)].informedAlive--
			}
		}
		t.hookLanes = lanes
		if informs {
			// Each visit is one incidence, withdrawn from the neighbor's
			// count in the lanes that track it; a lane that does not track
			// a neighbor informs it, so the neighbor has no count there.
			t.g.Neighbors(h, func(x graph.Handle) bool {
				if tw := t.tracked.wordsOf(x); tw != nil {
					for i, m := range lanes {
						for m &= tw[i]; m != 0; m &= m - 1 {
							t.cnt.dec(x.Slot, i<<6|bits.TrailingZeros64(m))
						}
					}
				}
				return true
			})
		}
	}
	t.tracked.clearSlot(h)
}

// noteEdge classifies a fresh request edge against every in-flight
// lane's cut at once: the lanes that inform exactly one endpoint are the
// lanes for which the edge straddles the cut — a single event can be a
// candidate for some messages and internal or irrelevant for others —
// and each direction fans out over its set bits. Edges made during a
// round join the cut for the next round, matching the reference's
// pre-advance capture: the freeze has already fixed which lanes each
// receiver is frozen for, and under Discretized semantics admission
// withdraws the fresh incidences from the counts it reads (applyFresh).
// Edges made between Steps are part of the next freeze's snapshot and
// count there like any other.
func (t *Traffic) noteEdge(u, v graph.Handle) {
	if len(t.inFlight) == 0 {
		return
	}
	uw := t.informed.wordsOf(u)
	vw := t.informed.wordsOf(v)
	t.edgeTo(v, u, uw, vw)
	t.edgeTo(u, v, vw, uw)
}

// edgeTo counts a churn edge between sender s and receiver x in the
// in-flight lanes that inform s (sw) but not x (xw); nil words inform no
// lane. Under Discretized semantics it also records the incidence as
// fresh, for admission to withdraw. Serial hook context: births during the
// advance may outgrow the arrays the last drain spanned, so it grows them
// first.
func (t *Traffic) edgeTo(x, s graph.Handle, sw, xw []uint64) {
	if sw == nil {
		return
	}
	lanes := t.hookLanes[:0]
	cut := false
	for i, w := range sw {
		w &= t.liveMask[i]
		if xw != nil {
			w &^= xw[i]
		}
		lanes = append(lanes, w)
		cut = cut || w != 0
	}
	t.hookLanes = lanes
	if !cut {
		return
	}
	t.growTracked(int(x.Slot) + 1)
	t.fanOut(lanes, nil, x, s)
	if t.opts.Mode == Discretized {
		t.fresh = append(t.fresh, freshEdge{recv: x, sender: s})
		t.freshLanes = append(t.freshLanes, lanes...)
	}
}

// applyFresh adds delta (±1) to the counts of this advance's fresh
// incidences whose sender is still alive, in the lanes that still track
// the receiver. A dead sender's incidences already left the counts at its
// death (noteDeath), and a dead receiver's row is invalid. Run with -1
// before the admission sweep, the counts hold exactly the frozen
// incidences whose sender survived — the Discretized admission test — and
// with +1 after it, the lanes that did not admit get theirs back. Serial
// context; a no-op under Asynchronous semantics, which records none.
func (t *Traffic) applyFresh(delta int) {
	for k, e := range t.fresh {
		if !t.g.IsAlive(e.sender) {
			continue
		}
		tw := t.tracked.wordsOf(e.recv)
		if tw == nil {
			continue
		}
		for i, m := range t.freshLanes[k*t.stride : (k+1)*t.stride] {
			for m &= tw[i]; m != 0; m &= m - 1 {
				if li := i<<6 | bits.TrailingZeros64(m); delta > 0 {
					t.cnt.inc(e.recv.Slot, li)
				} else {
					t.cnt.dec(e.recv.Slot, li)
				}
			}
		}
	}
}

// --- the batched freeze ---

// freeze compacts the shared receiver lists into the live cut of the
// current snapshot, one worker sweep across all messages. The counts are
// exact already: every crossing was scanned before the Step or Inject
// that made it returned, and every event since updated them.
func (t *Traffic) freeze() {
	if len(t.inFlight) > 0 {
		t.sh.ForEachShard(func(w int) { t.compactShard(w) })
	}
}

// drainFrontiers counts the incidences of every node that crossed any
// lane's cut in the running Step or Inject into its uninformed neighbors'
// rows, and empties the pending list. It runs in one of two directions
// (DESIGN.md, "Drain direction"), whichever pullPays prices lower:
//
//   - push scans each crossing node's neighborhood once for all the lanes
//     that queued it, deduplicating the work M separate runs would repeat;
//   - pull passes over every arena slot and recounts, for every alive
//     receiver some pending lane does not inform, that receiver's row from
//     its own neighborhood (drainPull). It stages nothing, and a visit
//     costs about a third of a push visit at one lane, and less with many
//     lanes, which it counts word-parallel.
//
// Either way the counts come out identical.
//
// The push scan filters before it fans out or stages: a neighbor every
// queueing lane already informs is skipped with one load and a compare,
// and the rest of the work sits behind the filter, in fanOut, so the
// callback's common path stays short and staging stays proportional to
// the cut (DESIGN.md, "The scan filter"). A neighbor visited twice in one
// scan — a parallel edge, or the out+in visit of a mutual request — is
// counted twice, once per incidence, as the death walk will withdraw it.
func (t *Traffic) drainFrontiers() {
	if len(t.scanNodes) == 0 {
		return
	}
	// Mask every pending entry down to its in-flight lanes once, so the
	// passes below read scanLanes as-is: lanes that finished this Step
	// drop out, and an all-zero entry is skipped. The union of what is
	// left and the number of entries with a lane feed the direction rule.
	lanes := make([]uint64, t.stride)
	nScan := 0
	for k := range t.scanNodes {
		lw := t.scanLanes[k*t.stride : (k+1)*t.stride]
		pending := false
		for i := range lw {
			lw[i] &= t.liveMask[i]
			lanes[i] |= lw[i]
			pending = pending || lw[i] != 0
		}
		if pending {
			nScan++
		}
	}
	// Counting never reallocates: every handle either direction reaches
	// lives in the current snapshot, so spanning the arena up front
	// suffices. When every pending lane informs every alive node there is
	// nothing to count in either direction.
	t.growTracked(t.g.NumSlots())
	if u := t.uninformed(lanes); nScan > 0 && u > 0 {
		pull := t.pullPays(u, nScan)
		if t.onDrain != nil {
			t.onDrain(pull, u, nScan)
		}
		switch {
		case pull:
			t.sh.ForEachShard(func(w int) { t.drainPull(w, lanes) })
		case t.sh.W() == 1:
			for k, v := range t.scanNodes {
				lw := t.scanLanes[k*t.stride : (k+1)*t.stride]
				if !anyBit(lw) {
					continue // queued only by lanes that since finished
				}
				t.g.Neighbors(v, func(x graph.Handle) bool {
					if !t.informed.covers(x, lw) {
						t.fanOut(lw, t.informed.wordsOf(x), x, v)
					}
					return true
				})
			}
		default:
			t.drainFrontiersSharded()
		}
	}
	t.scanNodes = t.scanNodes[:0]
	t.scanLanes = t.scanLanes[:0]
}

// uninformed returns u, the number of neighborhoods a pull of lanes walks,
// estimated from the lanes' counters as min(NumAlive,
// Σ_{l∈lanes}(NumAlive − informedAlive_l)): pull walks every alive node
// that some lane does not inform once, for all lanes. It is exact for one
// lane and an upper bound for several, and 0 exactly when every lane
// informs every alive node.
func (t *Traffic) uninformed(lanes []uint64) int {
	alive := t.g.NumAlive()
	u := 0
	for i, w := range lanes {
		for ; w != 0 && u < alive; w &= w - 1 {
			u += alive - t.lanes[i<<6|bits.TrailingZeros64(w)].informedAlive
		}
	}
	return min(u, alive)
}

// pushVisitCost is κ, what one push neighbor visit costs in pull neighbor
// visits. A push visit filters the neighbor and then adds the incidence to
// a count row anywhere in the store (sharded, it stages the edge and merges
// it again in a second pass); a pull visit reads the neighbor's informed
// word and adds it to the bit planes of the node it walks from, whose row
// it writes once, in slot order. The ratio measures about 3 at one lane
// and 4–6 on the dense waves of a 64-message burst; any κ in about
// [1.6, 25] picks the faster direction on every drain DESIGN.md times
// ("Drain direction"), and 3 keeps a one-lane broadcast at n = 10⁶ pushing
// four drains and then pulling, as before.
const pushVisitCost = 3

// pullPays is the drain direction rule. It prices both directions in one
// unit, pull neighbor visits, taking δ = 2·D (the mean live degree of the
// regenerating models) as the length of a walk:
//
//   - push walks the nScan pending neighborhoods at κ = pushVisitCost a
//     visit: κ·nScan·δ;
//   - pull walks the u uninformed neighborhoods and, before them, passes
//     once over every arena slot, charged at one visit a slot (it measures
//     under half of one): u·δ + NumSlots;
//
// and pulls exactly when pull costs less. A lone pending scan always
// pushes: it is one walk, which pull (at least one walk and a pass over at
// least two slots) could undercut only in an arena of fewer than 2δ slots,
// and pushing it keeps every Inject, whose drain holds its source alone, a
// push. So the rule keeps push for sparse frontiers — every Inject, a
// broadcast's early rounds, staggered traffic, and the handful of newborns
// a completed RunToMax broadcast informs each round, which would not pay
// for the slot pass — and pulls the dense waves, including those of a
// multi-message burst, where every node crosses in some lane and pushing
// each one costs κ times its recount. It reads plane, graph and model
// counters only, so the choice is deterministic and independent of par and
// scheduling.
func (t *Traffic) pullPays(u, nScan int) bool {
	switch t.drainDir {
	case drainPush:
		return false
	case drainPull:
		return true
	}
	walk := max(1, 2*t.m.D())
	return nScan > 1 && u*walk+t.g.NumSlots() < pushVisitCost*nScan*walk
}

// drainPull is the pull direction of the drain over shard w's slots (the
// pass pullPays charges at one visit a slot): for every alive node x that
// some pending lane (lanes) does not inform, it zeroes x's counts and
// tracking bits in those lanes, lx, and recounts them from x's own
// neighborhood — one count per visit of a neighbor y in each lane of lx
// that informs y. Every write lands in x's owner shard, so nothing is
// staged or merged, and only x's owner walks Neighbors(x).
//
// The walk counts word-parallel, in bit planes: plane p holds bit p of
// every lane's count, and a visit adds its lane word lx & informed(y) to
// the planes with a ripple-carry add — about two word operations whatever
// the number of lanes it counts in. Each visit adds at most one to a lane,
// so bits.Len(OutSlotCount(x) + InDegreeLive(x)) planes hold every count
// and a carry never leaves the top plane. After the walk each lane that
// counts writes its count into x's row once and sets its tracking bit (the
// OR of the planes), and x's row is claimed there, only if some lane
// counts. Only x's own claim could happen during x's walk, so the
// receivers keep the order a claim at the first count gave them.
//
// The recount is exact. Before the drain, a lane l's count at x is the
// number of live incidences between x and l's informed nodes other than
// the ones crossing now (the invariant every event maintains; in a Step
// the advance's fresh incidences are back in, applyFresh(+1)), and push
// would add one per incidence between x and a crossing node. Neighbors
// visits x's out-targets and in-sources, and the arena keeps out-slots
// and in-refs in one-to-one correspondence (graph.CheckInvariants), so
// the visits of x from its neighbors' side and of its neighbors from x's
// side are the same multiset of incidences: the recount is the old count
// plus exactly the pushes it replaces, and the count is again exact, and
// nonzero only where the lane tracks x, when the drain returns. Lanes
// outside lx are untouched; pending lanes that inform x never track it
// (see cross).
func (t *Traffic) drainPull(w int, lanes []uint64) {
	g := t.g
	st := t.stride
	lx := make([]uint64, st)
	counted := make([]uint64, st) // the lanes of lx with a nonzero count
	var planes []uint64           // plane p's word i at [p*st+i]; reused across x
	n := g.NumSlots()
	first, stride := t.sh.Blocks(w)
	for lo := first; lo < n; lo += stride {
		for s := lo; s < min(lo+graph.ShardBlock, n); s++ {
			x := g.SlotHandle(uint32(s))
			if x.IsNil() {
				continue
			}
			xw := t.informed.wordsOf(x)
			recount := false
			for i, l := range lanes {
				if xw != nil {
					l &^= xw[i]
				}
				lx[i] = l
				recount = recount || l != 0
			}
			if !recount {
				continue
			}
			if tw := t.tracked.wordsOf(x); tw != nil {
				for i, m := range lx {
					tw[i] &^= m
					for ; m != 0; m &= m - 1 {
						t.cnt.zero(x.Slot, i<<6|bits.TrailingZeros64(m))
					}
				}
			}
			np := bits.Len(uint(g.OutSlotCount(x) + g.InDegreeLive(x)))
			if len(planes) < np*st {
				planes = make([]uint64, np*st)
			}
			ps := planes[:np*st]
			clear(ps)
			g.Neighbors(x, func(y graph.Handle) bool {
				yw := t.informed.wordsOf(y)
				if yw == nil {
					return true
				}
				for i, m := range lx {
					m &= yw[i]
					if t.onStage != nil { // drop the filtered lanes before the add
						for b := m; b != 0; b &= b - 1 {
							if !t.onStage(i<<6|bits.TrailingZeros64(b), x, y) {
								m &^= b & -b
							}
						}
					}
					// Ripple-carry add of one in every lane of m.
					for p := i; m != 0; p += st {
						c := ps[p]
						ps[p] = c ^ m
						m &= c
					}
				}
				return true
			})
			for i := range counted {
				var c uint64
				for p := i; p < len(ps); p += st {
					c |= ps[p]
				}
				counted[i] = c
			}
			if !anyBit(counted) {
				continue
			}
			// The counted lanes' cells are zero here, zeroed above or by a
			// fresh claim, so only a count above the inline range needs set.
			tw := t.claimRow(x)
			row := t.cnt.cellRow(x.Slot)
			for i, m := range counted {
				tw[i] |= m
				for ; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					var c int32
					for p, k := i, 0; p < len(ps); p, k = p+st, k+1 {
						c |= int32(ps[p]>>b&1) << k
					}
					if c <= maxInlineCount {
						row[i<<6|b] = uint8(c)
					} else {
						t.cnt.set(x.Slot, i<<6|b, c)
					}
				}
			}
		}
	}
}

// anyBit reports whether any word of w is nonzero.
func anyBit(w []uint64) bool {
	for _, x := range w {
		if x != 0 {
			return true
		}
	}
	return false
}

// fanOut counts one incidence of the cut edge (v -> x) for every lane in
// lanes that does not hold x in xw (x's informed words; nil holds none),
// setting the lane's tracking bit on x. x's slot is claimed once, at the
// first counted lane. Owner-shard context — only x's owner shard calls it
// during a parallel phase — and the slot-indexed arrays must already span
// x (growth is serial: growTracked).
func (t *Traffic) fanOut(lanes, xw []uint64, x, v graph.Handle) {
	var tw []uint64
	for i, w := range lanes {
		if xw != nil {
			w &^= xw[i]
		}
		for ; w != 0; w &= w - 1 {
			li := i<<6 | bits.TrailingZeros64(w)
			if t.onStage != nil && !t.onStage(li, x, v) {
				continue
			}
			if tw == nil {
				tw = t.claimRow(x)
			}
			tw[i] |= w & -w
			t.cnt.inc(x.Slot, li)
		}
	}
}

// drainFrontiersSharded is the parallel drain, in two barriered passes:
// chunk-claimed scans over the pending node list stage each candidate
// edge for its receiver's owner shard, then every shard drains its
// buffers in chunk order — so the per-shard receiver insertion order is a
// pure function of the pending scans, not of scheduling.
func (t *Traffic) drainFrontiersSharded() {
	nScan := len(t.scanNodes)
	par := t.sh.W()
	nChunks := min(nScan, par*scanChunksPerWorker)
	if need := nChunks * par; len(t.stage) < need {
		grown := make([][]laneCutEdge, need)
		copy(grown, t.stage)
		t.stage = grown
	}

	// Scan: the packed masks and informed words are read-only here, so
	// the staged edges carry only the receiver and the scan index.
	t.chunkNext.Store(0)
	t.sh.ForEachShard(func(w int) {
		for {
			c := int(t.chunkNext.Add(1)) - 1
			if c >= nChunks {
				return
			}
			buf := t.stage[c*par : (c+1)*par]
			for k := c * nScan / nChunks; k < (c+1)*nScan/nChunks; k++ {
				lw := t.scanLanes[k*t.stride : (k+1)*t.stride]
				if !anyBit(lw) {
					continue
				}
				t.g.Neighbors(t.scanNodes[k], func(x graph.Handle) bool {
					if !t.informed.covers(x, lw) {
						s := t.sh.Owner(x.Slot)
						buf[s] = append(buf[s], laneCutEdge{recv: x, scan: int32(k)})
					}
					return true
				})
			}
		}
	})

	// Merge: each shard drains the buffers addressed to it in chunk
	// order, fanning each edge out over the lanes of its scan entry that
	// do not inform the receiver — re-read here rather than staged, which
	// would double the staging memory.
	t.sh.ForEachShard(func(w int) {
		for c := 0; c < nChunks; c++ {
			buf := t.stage[c*par+w]
			for _, ce := range buf {
				k := int(ce.scan)
				t.fanOut(t.scanLanes[k*t.stride:(k+1)*t.stride], t.informed.wordsOf(ce.recv), ce.recv, t.scanNodes[k])
			}
			t.stage[c*par+w] = buf[:0]
		}
	})
}

// compactShard is the freeze pass over one shard's shared receivers,
// batched across every lane: each receiver is visited once and freezes
// the lanes of its masked tracking words whose count is positive. Stale
// receivers are dropped, and so are dormant lanes' bits and the bits of
// lanes whose count fell to zero as senders died; a receiver no lane
// still tracks is dropped and its slot released (clearSlot), so a later
// edge re-enters it once. The frozen lanes are recorded in receiver order
// for the admission sweep. Tracked lanes never inform the receiver (see
// cross), so the pass reads no informed state. Every write is to
// shard-owned slots, so shards compact concurrently.
func (t *Traffic) compactShard(w int) {
	sh := &t.shards[w]
	st := t.stride
	// First gather every receiver's live tracking words (zero for a stale
	// entry): the loads are independent and overlap, and the pass below
	// then takes its lanes from this sequential copy, so its count loads
	// do not wait on them. A death with lanes in flight releases the
	// node's slot, so a stale entry reads nil; a node that died while none
	// were in flight keeps only dormant lanes' bits.
	sh.frozenWords = sh.frozenWords[:0]
	for _, v := range sh.receivers {
		tw := t.tracked.wordsOf(v)
		for i := 0; i < st; i++ {
			var live uint64
			if tw != nil {
				live = tw[i] & t.liveMask[i]
			}
			sh.frozenWords = append(sh.frozenWords, live)
		}
	}
	n := 0
	for r, v := range sh.receivers {
		row := t.cnt.cellRow(v.Slot)
		anyFrozen := false
		for i := 0; i < st; i++ {
			var frozen uint64
			for m := sh.frozenWords[r*st+i]; m != 0; m &= m - 1 {
				if row[i<<6|bits.TrailingZeros64(m)] > 0 {
					frozen |= m & -m
				}
			}
			sh.frozenWords[n*st+i] = frozen // n <= r: word r*st+i is read
			anyFrozen = anyFrozen || frozen != 0
		}
		if !anyFrozen {
			t.tracked.clearSlot(v) // a no-op for a stale entry
			continue               // no lane holds a live count: entry dropped
		}
		// Some live lane tracks v, so its slot is current: store the
		// frozen lanes as its tracking words.
		copy(t.tracked.words[int(v.Slot)*st:], sh.frozenWords[n*st:(n+1)*st])
		sh.receivers[n] = v
		n++
	}
	sh.receivers = sh.receivers[:n]
	sh.frozenWords = sh.frozenWords[:n*st]
	sh.nFrozen = n
}

// admitShard runs the admission test over one shard's frozen receivers,
// batched across lanes: per receiver the liveness check is paid once, and
// a frozen lane admits when some frozen sender qualifies — any under
// Asynchronous semantics, a still-alive one under Discretized, which is a
// positive count once Step has withdrawn the advance's fresh incidences
// (applyFresh). Nothing informs a node between the freeze and this sweep,
// so a frozen lane needs no informed check. The outcome per receiver is
// independent of every iteration order; the admitted lanes are staged per
// shard and applied at the serial merge.
//
// An admitting lane stops tracking the receiver here, in the owner shard:
// its count is zeroed and its bit cleared, so the serial cross that
// follows only marks the node informed. The sweep also prunes the
// receiver list — a receiver that died, or that every tracking lane
// admitted, is dropped now, with its slot released, rather than visited by
// the next freeze — and ends the frozen cut.
func (t *Traffic) admitShard(w int) {
	sh := &t.shards[w]
	g := t.g
	async := t.opts.Mode == Asynchronous
	sh.admRecv = sh.admRecv[:0]
	sh.admWords = sh.admWords[:0]
	n := 0
	for fi, v := range sh.receivers[:sh.nFrozen] {
		if !g.IsAlive(v) {
			continue // died during the advance (its tracking went with it)
		}
		fw := sh.frozenWords[fi*t.stride : (fi+1)*t.stride]
		row := t.cnt.cellRow(v.Slot)
		wordBase := len(sh.admWords)
		var tw []uint64 // v's tracking words, fetched at the first admission
		for i, m := range fw {
			var admitted uint64
			for ; m != 0; m &= m - 1 {
				li := i<<6 | bits.TrailingZeros64(m)
				if async || row[li] > 0 {
					admitted |= m & -m
					t.cnt.zero(v.Slot, li)
				}
			}
			sh.admWords = append(sh.admWords, admitted)
			if admitted != 0 {
				if tw == nil {
					tw = t.tracked.wordsOf(v)
				}
				tw[i] &^= admitted
			}
		}
		if tw == nil {
			sh.admWords = sh.admWords[:wordBase] // no lane admitted v
		} else {
			sh.admRecv = append(sh.admRecv, v)
			if !anyBit(tw) {
				t.tracked.clearSlot(v) // every lane tracking v admitted it
				continue
			}
		}
		sh.receivers[n] = v
		n++
	}
	// Receivers tracked during the advance follow the surviving frozen
	// ones, in order.
	n += copy(sh.receivers[n:], sh.receivers[sh.nFrozen:])
	sh.receivers = sh.receivers[:n]
	sh.nFrozen = 0
}

// laneFootprint reports the allocated lane count and the per-slot state
// held for lanes: the nonzero count cells across allocated lanes plus the
// overflow entries of lanes that are not allocated — the quantities the
// retirement property test tracks to pin memory at O(live messages), not
// O(all ever injected).
func (t *Traffic) laneFootprint() (lanes, slotState int) {
	width := 1 << t.cnt.shift
	for li, ln := range t.lanes {
		if ln == nil {
			continue
		}
		lanes++
		for i := li; i < len(t.cnt.cells); i += width {
			if t.cnt.cells[i] != 0 {
				slotState++
			}
		}
	}
	for _, over := range t.cnt.over {
		for k := range over {
			if t.lanes[uint32(k)] == nil {
				slotState++
			}
		}
	}
	return lanes, slotState
}

// TrafficMemStats describes a plane's per-slot memory layout; see
// MemStats.
type TrafficMemStats struct {
	// Slots is the arena-slot span of the packed state: the arena's size
	// at NewTraffic, doubled whenever the arena outgrew it since.
	Slots int
	// Lanes is the number of lane slots allocated — the peak simultaneous
	// message count, the packed layout's capacity denominator.
	Lanes int
	// WordsPerSlot is ceil(Lanes/64): the packed words each arena slot
	// carries.
	WordsPerSlot int
	// PackedInformedBytes is the plane-owned informed-state footprint:
	// the lane-membership words plus the shared per-slot generation, for
	// all lanes together — WordsPerSlot·8 + 4 bytes per slot.
	PackedInformedBytes int
	// MarksBaselineBytes is what the same membership state costs in the
	// pre-packing layout of one graph.Marks per lane: 12 bytes (an
	// 8-byte epoch plus a 4-byte generation) per slot per lane.
	MarksBaselineBytes int
	// CutCountBytes is the cut-count store's footprint: one 1-byte count
	// cell per slot per lane, in rows of the smallest power of two at
	// least Lanes, over the tracked bitset's slot span, plus 32 bytes
	// (overflowEntryBytes) for each count above 254 held in the overflow
	// table.
	CutCountBytes int
	// ViewPagesCopied is the number of TrafficView pages CaptureView has
	// copied over the plane's life; every other page a capture holds is
	// shared with the view before it.
	ViewPagesCopied int
}

// MemStats reports the plane's per-slot memory layout — the numbers
// behind the packed-bitset design: PackedInformedBytes/Lanes versus
// MarksBaselineBytes/Lanes is the per-lane saving (≈ 93× at M = 1024,
// since an epoch+gen pair per slot per lane collapses to one bit plus a
// 1/M share of the shared per-slot generation) — and the cut-count
// store's size.
func (t *Traffic) MemStats() TrafficMemStats {
	st := TrafficMemStats{
		Slots:           t.informed.slots(),
		Lanes:           len(t.lanes),
		WordsPerSlot:    t.stride,
		CutCountBytes:   t.cnt.footprintBytes(),
		ViewPagesCopied: t.viewPagesCopied,
	}
	st.PackedInformedBytes = t.informed.footprintBytes()
	st.MarksBaselineBytes = st.Slots * 12 * st.Lanes
	return st
}

// --- injection schedules ---

// TrafficSchedule generates the injection steps of the named schedule:
// message i of `messages` is injected after schedule[i] plane Steps.
// Schedules:
//
//   - "burst": every message at step 0;
//   - "staggered": one message every `gap` steps (0, gap, 2·gap, …);
//   - "poisson": Poisson arrivals at rate 1/gap per step (the continuous
//     analogue of staggered), drawn deterministically from seed.
//
// gap must be >= 1 (it is ignored for burst); the steps come back sorted.
func TrafficSchedule(schedule string, messages, gap int, seed uint64) ([]int, error) {
	if messages < 1 {
		return nil, fmt.Errorf("flood: schedule needs messages >= 1, got %d", messages)
	}
	if gap < 1 && schedule != "burst" {
		return nil, fmt.Errorf("flood: schedule %q needs gap >= 1, got %d", schedule, gap)
	}
	steps := make([]int, 0, messages)
	switch schedule {
	case "burst":
		for i := 0; i < messages; i++ {
			steps = append(steps, 0)
		}
	case "staggered":
		for i := 0; i < messages; i++ {
			steps = append(steps, i*gap)
		}
	case "poisson":
		r := rng.New(seed)
		rate := 1 / float64(gap)
		for step := 0; len(steps) < messages; step++ {
			for k := dist.Poisson(r, rate); k > 0 && len(steps) < messages; k-- {
				steps = append(steps, step)
			}
		}
	default:
		return nil, fmt.Errorf("flood: unknown schedule %q (want burst, staggered or poisson)", schedule)
	}
	return steps, nil
}
