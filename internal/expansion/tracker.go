package expansion

// This file implements the incremental expansion-witness engine: where
// Estimate rescans every candidate family from scratch on each snapshot
// (O(n·d) per call), the Tracker subscribes to the model's OnEdge/OnDeath
// event stream — the edge-event contract of core.Model that the flooding
// engine rides — and maintains |S|, |∂out(S)| and the ratio of a
// configurable family of witness sets under churn in O(events).
//
// # Bookkeeping
//
// Membership is fixed between re-seeds, so the only quantities that move
// are the live-member count of each set and the per-node count of live
// edges into the set:
//
//	cnt[x][s] = number of live edges between node x and the live members
//	            of set s, for x not a member of s
//	|∂out(s)| = #{x : cnt[x][s] > 0}
//
// Every event that can change a count is visible on the hook stream:
//
//   - OnEdge(u, v) with exactly one endpoint a member of s adds one unit
//     to the other endpoint's count;
//   - a non-member death zeroes its counts (all its edges vanish,
//     rule 2), removing it from every boundary it was on;
//   - a member death removes one unit per live incident edge to a
//     non-member — the hook fires before removal, while the neighborhood
//     is still inspectable — and decrements the set's live size.
//
// Regeneration needs no special case: the orphaned edge disappears with
// the death that orphaned it, and the re-pointed request fires a fresh
// OnEdge (rule 3).
//
// # One state plane, and the seeding sweep
//
// All state — the membership bitset, per-slot count lists, and each set's
// live size and |∂out| — is updated in place by the hook handlers as
// events arrive (hooks are strictly serial), so an observation is a plain
// read. Membership is one dense bitset of ⌈sets/64⌉ words a slot: bit s of
// slot x's row is set while the node in x belongs to set s. A re-seed
// clears and rebuilds it, a death clears the dying slot's row (so a reused
// slot is never a member), and slots past the seeded arena read as empty,
// so a slot's row alone answers membership, with no generation check. The
// hooks work a word at a time: the sets an edge u–v crosses from u's side
// are the bits of row(u) &^ row(v). The count lists keep epoch tags: a
// re-seed bumps the tracker epoch, which invalidates every list lazily,
// the same trick graph.Marks uses for generations.
//
// The one O(Σ|S|·d)-sized pass is seeding, at construction and at every
// re-seed. Instead of walking each set's members, it runs one sweep in
// which every alive node x walks its own neighborhood once by arena slot
// (graph.NeighborSlots) and counts, per set x is not in, its live edges to
// that set's members. The counts are kept word-parallel in carry-save bit
// planes — each visit adds row(y) &^ row(x) into them, so one ripple-carry
// add counts a neighbor for every set at once — and read back bit by bit
// for the sets x borders. The sweep runs on graph.Shards, the scaffold the
// flooding engine shares: worker w walks only the slot blocks it owns, so
// it writes only its own nodes' count lists, reads the graph (which no
// neighborhood visit writes) freely, and accumulates per-set boundary
// sizes in a private row; the rows are summed at the barrier. A node's
// counts depend only on its own neighborhood and integer sums are
// order-independent, so every observable is bit-for-bit identical at any
// W (pinned by TestTrackerParallelismInvariance and TestTrackerGolden).
import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// Family identifies which candidate family a tracked set was seeded from.
type Family uint8

// The tracked witness families, mirroring Estimate's candidate passes.
const (
	// FamilySingleton sets hold one low-degree node each.
	FamilySingleton Family = iota
	// FamilyOldest sets hold the k oldest nodes at seed time.
	FamilyOldest
	// FamilyYoungest sets hold the k youngest nodes at seed time.
	FamilyYoungest
	// FamilyRandom sets are uniform k-samples of the alive nodes.
	FamilyRandom
	// FamilyBFS sets are BFS balls grown around low-degree seeds.
	FamilyBFS
	// FamilyGreedy sets come from greedy boundary-minimizing growth.
	FamilyGreedy
)

// String names the family.
func (f Family) String() string {
	switch f {
	case FamilySingleton:
		return "singleton"
	case FamilyOldest:
		return "oldest"
	case FamilyYoungest:
		return "youngest"
	case FamilyRandom:
		return "random"
	case FamilyBFS:
		return "bfs"
	case FamilyGreedy:
		return "greedy"
	default:
		return "unknown"
	}
}

// TrackerConfig tunes a Tracker. The zero value selects the defaults
// noted per field; set a count negative to disable its family.
type TrackerConfig struct {
	// Singletons tracks this many size-1 sets, seeded on the
	// lowest-degree nodes (default 8).
	Singletons int
	// RandomSetsPerSize tracks this many uniform k-sets per ladder size
	// (default 2).
	RandomSetsPerSize int
	// SkipAgeSets disables the oldest-k/youngest-k pair tracked per
	// ladder size (the cohorts where no-regeneration models grow their
	// isolated nodes, Lemma 3.5).
	SkipAgeSets bool
	// LadderStride tracks every k-th rung of the geometric size ladder
	// for the age and random families (default 1 = every rung). The
	// ladder factor is 1.6, so stride 2 still bounds every band minimum
	// within a 2.56× size window while halving the dominant seeding cost,
	// Σ|S|·d — the right trade at n ≥ 10⁵.
	LadderStride int
	// BFSSeeds grows this many BFS balls around low-degree seeds
	// (default 4); MaxBFSSize caps each ball (default n/2).
	BFSSeeds   int
	MaxBFSSize int
	// GreedySeeds runs this many greedy boundary-minimizing growths
	// (default 2); MaxGreedySize caps each (default min(n/2, 2048) —
	// greedy growth is the one superlinear seeding pass).
	GreedySeeds   int
	MaxGreedySize int
	// ReseedEvery re-derives every family from the current snapshot on
	// each ReseedEvery-th Observe call (0 = seed once at construction).
	// Adaptive re-seeding keeps the low-degree and age families pointed
	// at the cohorts where churn currently concentrates weak witnesses;
	// a tracker that never re-seeds watches its frozen sets age out.
	ReseedEvery int
	// Parallelism is the worker-shard count of the seeding sweep: 0 or 1
	// serial, negative picks graph.AutoWorkers(n) from GOMAXPROCS and
	// the model size. Results are bit-for-bit identical at any setting.
	Parallelism int
}

func (c TrackerConfig) withDefaults() TrackerConfig {
	if c.Singletons == 0 {
		c.Singletons = 8
	}
	if c.RandomSetsPerSize == 0 {
		c.RandomSetsPerSize = 2
	}
	if c.LadderStride < 1 {
		c.LadderStride = 1
	}
	if c.BFSSeeds == 0 {
		c.BFSSeeds = 4
	}
	if c.GreedySeeds == 0 {
		c.GreedySeeds = 2
	}
	return c
}

// defaultMaxGreedyTracked caps greedy growth during seeding unless the
// config overrides it: each step walks up to greedyCandidateCap
// candidates' neighborhoods, so a grown set costs its size times that.
const defaultMaxGreedyTracked = 2048

// slotBnd holds one node's live-edge counts into the sets it borders
// (entries only for counts >= 1).
type slotBnd struct {
	epoch   uint32
	gen     uint32
	entries []bndEntry
}

type bndEntry struct {
	set uint32
	cnt int32
}

type trackedSet struct {
	family   Family
	members  []graph.Handle
	live     int // alive members
	boundary int // |∂out|
}

// SetState reports one tracked set; Members is the seeded list (dead
// members retained — BoundarySize and Ratio ignore them, so the list can
// be rescanned as-is by the oracle tests).
type SetState struct {
	Family   Family
	Members  []graph.Handle
	Live     int
	Boundary int
}

// Observation is one time-resolved expansion measurement.
type Observation struct {
	// Time is the model clock at the observation; N the alive count.
	Time float64
	N    int
	// Min is the smallest ratio over tracked sets with live size in
	// [1, N/2] (an h_out upper bound, +Inf if no tracked set qualifies),
	// achieved by MinWitness.
	Min        float64
	MinWitness Witness
	// Profile holds the best tracked witness per live set size — the
	// same shape Estimate returns, so band queries (MinInRange) work
	// unchanged on tracked measurements.
	Profile *Profile
}

// Tracker maintains expansion witnesses incrementally from a model's
// churn event stream. Construct with NewTracker, read with Observe (and
// Sets for per-set detail), release the hook chain with Close.
//
// The tracker chains onto the model's existing hooks and other observers
// chain onto the tracker — flood.Run over a tracked model works and drops
// no events (both follow the core.ChainHooks discipline; lifetimes must
// nest). All methods must be called from the goroutine advancing the
// model.
type Tracker struct {
	m   core.Model
	g   *graph.Graph
	r   *rng.RNG
	cfg TrackerConfig
	sh  graph.Shards // seeding-sweep workers and slot ownership

	prev   core.Hooks
	closed bool

	epoch uint32
	sets  []trackedSet

	// memb is the membership bitset: slot x's row is
	// memb[x·words : (x+1)·words], bit s set while x's node is in set s.
	memb  []uint64
	words int       // ⌈len(sets)/64⌉
	bnd   []slotBnd // indexed by arena slot

	inSet graph.Marks // seeding scratch

	observations, reseeds int
	last                  Observation // most recent Observe result
}

// NewTracker attaches a tracker to m, seeds the witness families from the
// current snapshot (consuming r, which the tracker keeps for re-seeds) and
// returns it. Incremental maintenance relies on core.Model's edge-event
// contract: an edge change that fires no hook is invisible to the tracker.
func NewTracker(m core.Model, r *rng.RNG, cfg TrackerConfig) *Tracker {
	cfg = cfg.withDefaults()
	t := &Tracker{m: m, g: m.Graph(), r: r, cfg: cfg, sh: graph.NewShards(cfg.Parallelism, m.N())}
	t.prev = m.Hooks()
	m.SetHooks(core.ChainHooks(core.Hooks{OnDeath: t.onDeath, OnEdge: t.onEdge}, t.prev))
	t.reseed()
	return t
}

// Close detaches the tracker, restoring the hooks the model had before
// NewTracker. Closing also unchains any observer installed after the
// tracker (lifetimes must nest). Idempotent.
func (t *Tracker) Close() {
	if t.closed {
		return
	}
	t.closed = true
	t.m.SetHooks(t.prev)
}

// Parallelism returns the resolved seeding-sweep worker-shard count.
func (t *Tracker) Parallelism() int { return t.sh.W() }

// Observations returns how many Observe calls have been made.
func (t *Tracker) Observations() int { return t.observations }

// Reseeds returns how many times the families were (re-)seeded, the
// initial seeding included.
func (t *Tracker) Reseeds() int { return t.reseeds }

// NumSets returns the number of currently tracked sets.
func (t *Tracker) NumSets() int { return len(t.sets) }

// LastObservation returns the most recent Observe result without
// measuring again (a pure read — serving layers republish it between
// observation ticks). The second result is false before the first
// Observe.
func (t *Tracker) LastObservation() (Observation, bool) {
	return t.last, t.observations > 0
}

// Observe returns the current measurement, read from the counts the hooks
// keep up to date; on every cfg.ReseedEvery-th call it then re-derives the
// families from the current snapshot (the returned observation still
// reflects the sets tracked up to this instant).
func (t *Tracker) Observe() Observation {
	p := &Profile{N: t.g.NumAlive(), BestBySize: make(map[int]Witness)}
	for i := range t.sets {
		st := &t.sets[i]
		if st.live <= 0 {
			continue
		}
		w := Witness{Size: st.live, Boundary: st.boundary, Ratio: float64(st.boundary) / float64(st.live)}
		if old, ok := p.BestBySize[st.live]; !ok || w.Ratio < old.Ratio {
			p.BestBySize[st.live] = w
		}
	}
	min, mw := p.Min()
	obs := Observation{Time: t.m.Now(), N: p.N, Min: min, MinWitness: mw, Profile: p}
	t.last = obs
	t.observations++
	if t.cfg.ReseedEvery > 0 && t.observations%t.cfg.ReseedEvery == 0 {
		t.reseed()
	}
	return obs
}

// Sets returns every tracked set's current state, in stable set-index
// order. The member slices are copies.
func (t *Tracker) Sets() []SetState {
	out := make([]SetState, len(t.sets))
	for i := range t.sets {
		st := &t.sets[i]
		members := make([]graph.Handle, len(st.members))
		copy(members, st.members)
		out[i] = SetState{Family: st.family, Members: members, Live: st.live, Boundary: st.boundary}
	}
	return out
}

// --- event handlers ---

// row returns slot's membership words, or nil for a slot past the seeded
// arena (a member of no set).
func (t *Tracker) row(slot uint32) []uint64 {
	lo := int(slot) * t.words
	if lo >= len(t.memb) {
		return nil
	}
	return t.memb[lo : lo+t.words : lo+t.words]
}

// counts returns h's count list if it belongs to h's incarnation in the
// current epoch, nil otherwise.
func (t *Tracker) counts(h graph.Handle) *slotBnd {
	if int(h.Slot) >= len(t.bnd) {
		return nil
	}
	b := &t.bnd[h.Slot]
	if b.epoch != t.epoch || b.gen != h.Gen {
		return nil
	}
	return b
}

// onEdge handles a fresh request edge u–v: for each set holding exactly
// one endpoint, the other endpoint gains one unit of boundary count.
func (t *Tracker) onEdge(u, v graph.Handle) {
	t.noteEdgeSide(u, v)
	t.noteEdgeSide(v, u)
}

func (t *Tracker) noteEdgeSide(m, x graph.Handle) {
	xr := t.row(x.Slot)
	for i, w := range t.row(m.Slot) {
		if xr != nil {
			w &^= xr[i]
		}
		for ; w != 0; w &= w - 1 {
			t.incr(x, uint32(i<<6|bits.TrailingZeros64(w)))
		}
	}
}

// incr adds one live edge between x and set; x joins the set's boundary
// on its first unit.
func (t *Tracker) incr(x graph.Handle, set uint32) {
	b := t.counts(x)
	if b == nil {
		// First count of this incarnation (or of this epoch): any
		// leftover entries belong to a drained past and were already
		// debited when it died or re-seeded.
		t.growBnd(int(x.Slot) + 1)
		b = &t.bnd[x.Slot]
		b.epoch, b.gen = t.epoch, x.Gen
		b.entries = b.entries[:0]
	}
	for i := range b.entries {
		if b.entries[i].set == set {
			b.entries[i].cnt++
			return
		}
	}
	b.entries = append(b.entries, bndEntry{set: set, cnt: 1})
	t.sets[set].boundary++
}

// decr removes one live edge between x and set; x leaves the set's
// boundary with its last unit. A decrement always finds its unit: the edge
// it retires was counted either by the seeding sweep or by an earlier
// incr. A miss means the model broke the edge-event contract (or an
// observer dropped events).
func (t *Tracker) decr(x graph.Handle, set uint32) {
	if b := t.counts(x); b != nil {
		for i := range b.entries {
			if b.entries[i].set != set {
				continue
			}
			if b.entries[i].cnt--; b.entries[i].cnt == 0 {
				last := len(b.entries) - 1
				b.entries[i] = b.entries[last]
				b.entries = b.entries[:last]
				t.sets[set].boundary--
			}
			return
		}
	}
	panic("expansion: tracker boundary decrement without a matching count (edge-event contract violated)")
}

// onDeath handles a death: the node leaves every boundary it was on, and
// if it was a member its sets lose one live node plus one boundary unit
// per live incident edge to a non-member — read here, while the hook
// contract keeps the neighborhood inspectable. Its membership row is then
// cleared, so whichever node reuses the slot is a member of nothing.
func (t *Tracker) onDeath(h graph.Handle) {
	if b := t.counts(h); b != nil {
		for _, e := range b.entries {
			t.sets[e.set].boundary--
		}
		b.entries = b.entries[:0]
	}
	hr := t.row(h.Slot)
	member := false
	for i, w := range hr {
		for ; w != 0; w &= w - 1 {
			t.sets[i<<6|bits.TrailingZeros64(w)].live--
			member = true
		}
	}
	if !member {
		return
	}
	t.g.Neighbors(h, func(x graph.Handle) bool {
		xr := t.row(x.Slot)
		for i, w := range hr {
			if xr != nil {
				w &^= xr[i]
			}
			for ; w != 0; w &= w - 1 {
				t.decr(x, uint32(i<<6|bits.TrailingZeros64(w)))
			}
		}
		return true
	})
	clear(hr)
}

func (t *Tracker) growBnd(n int) {
	if n <= len(t.bnd) {
		return
	}
	grown := make([]slotBnd, n*2)
	copy(grown, t.bnd)
	t.bnd = grown
}

// --- seeding ---

// reseed derives every family from the current snapshot: epoch-invalidate
// the count lists, build the member lists (consuming the tracker RNG in a
// fixed order), rebuild the membership bitset, and count every set's
// crossing edges in one sharded sweep — seeding is the tracker's one
// O(Σ|S|·d) pass, and the one that benefits from W > 1.
func (t *Tracker) reseed() {
	t.epoch++
	t.sets = t.sets[:0]
	t.memb, t.words = t.memb[:0], 0
	t.reseeds++
	g, cfg := t.g, t.cfg
	hs := g.AliveHandles()
	n := len(hs)
	if n == 0 {
		return
	}

	add := func(f Family, members []graph.Handle) {
		t.sets = append(t.sets, trackedSet{family: f, members: members})
	}
	// One low-degree ordering serves both the singletons and the BFS
	// seeds: each family takes its own prefix of it.
	var byDegree []graph.Handle
	if k := max(cfg.Singletons, cfg.BFSSeeds); k > 0 {
		byDegree = lowDegreeSeeds(g, hs, k)
	}
	if cfg.Singletons > 0 {
		for _, h := range byDegree[:min(cfg.Singletons, n)] {
			add(FamilySingleton, []graph.Handle{h})
		}
	}
	ladder := sizeLadder(n)
	if cfg.LadderStride > 1 {
		// Keep every stride-th rung plus the last (the n/2 band anchor).
		kept := ladder[:0]
		for i, k := range ladder {
			if i%cfg.LadderStride == 0 || i == len(ladder)-1 {
				kept = append(kept, k)
			}
		}
		ladder = kept
	}
	if !cfg.SkipAgeSets {
		byAge := make([]graph.Handle, n)
		copy(byAge, hs)
		sort.Slice(byAge, func(i, j int) bool { return g.BirthSeq(byAge[i]) < g.BirthSeq(byAge[j]) })
		for _, k := range ladder {
			oldest := make([]graph.Handle, k)
			copy(oldest, byAge[:k])
			add(FamilyOldest, oldest)
			youngest := make([]graph.Handle, k)
			copy(youngest, byAge[n-k:])
			add(FamilyYoungest, youngest)
		}
	}
	if cfg.RandomSetsPerSize > 0 {
		for _, k := range ladder {
			for i := 0; i < cfg.RandomSetsPerSize; i++ {
				set := make([]graph.Handle, 0, k)
				t.inSet.Reset()
				for len(set) < k {
					h := hs[t.r.Intn(n)]
					if t.inSet.Mark(h) {
						set = append(set, h)
					}
				}
				add(FamilyRandom, set)
			}
		}
	}
	if cfg.BFSSeeds > 0 {
		maxBFS := cfg.MaxBFSSize
		if maxBFS <= 0 || maxBFS > n/2 {
			maxBFS = n / 2
		}
		if maxBFS < 1 {
			maxBFS = 1
		}
		for _, seed := range byDegree[:min(cfg.BFSSeeds, n)] {
			ball := bfsOrder(g, seed, maxBFS, &t.inSet)
			set := make([]graph.Handle, len(ball))
			copy(set, ball)
			add(FamilyBFS, set)
		}
	}
	if cfg.GreedySeeds > 0 {
		maxGreedy := cfg.MaxGreedySize
		if maxGreedy <= 0 {
			maxGreedy = defaultMaxGreedyTracked
		}
		if maxGreedy > n/2 {
			maxGreedy = n / 2
		}
		if maxGreedy < 1 {
			maxGreedy = 1
		}
		for i := 0; i < cfg.GreedySeeds; i++ {
			seed := hs[t.r.Intn(n)]
			add(FamilyGreedy, greedyGrow(g, seed, maxGreedy, t.r, func(int, int) {}))
		}
	}

	// Install memberships first — the sweep must see every same-set
	// co-member — then count each set's crossing edges with multiplicity
	// (so that later per-edge decrements net out exactly).
	t.words = (len(t.sets) + 63) / 64
	if need := g.NumSlots() * t.words; cap(t.memb) < need {
		t.memb = make([]uint64, need)
	} else {
		t.memb = t.memb[:need]
		clear(t.memb)
	}
	for id := range t.sets {
		st := &t.sets[id]
		for _, h := range st.members {
			t.memb[int(h.Slot)*t.words+id>>6] |= 1 << (id & 63)
		}
		st.live = len(st.members)
	}
	t.growBnd(g.NumSlots())
	rows := make([][]int, t.sh.W())
	t.sh.ForEachShard(func(w int) { rows[w] = t.sweepShard(w) })
	for _, row := range rows {
		for s, b := range row {
			t.sets[s].boundary += b
		}
	}
}

// sweepShard is worker w's part of the seeding sweep: every alive node x
// in w's slot blocks (graph.Shards) walks its own neighborhood once and
// counts, per set x is not a member of, the live edges to that set's
// members. It writes only the count lists of the slots w owns, and returns
// the number of nodes it put on each set's boundary. A node's counts
// depend on its own neighborhood alone and the row sums are integer, so
// no visit order is observable.
//
// x's counts live in carry-save bit planes, word i of plane p at
// planes[p·words+i]: bit s of the planes spells x's count into set s.
// A count never exceeds x's degree, so bits.Len(degree) planes hold it.
func (t *Tracker) sweepShard(w int) []int {
	g, nw := t.g, t.words
	row := make([]int, len(t.sets))
	var own, ps, planes []uint64
	visit := func(y uint32) {
		for i, m := range t.memb[int(y)*nw : int(y)*nw+nw] {
			m &^= own[i]
			// Ripple-carry add of one in every set of m.
			for p := i; m != 0; p += nw {
				c := ps[p]
				ps[p] = c ^ m
				m &= c
			}
		}
	}
	n := g.NumSlots()
	first, stride := t.sh.Blocks(w)
	for lo := first; lo < n; lo += stride {
		for slot := lo; slot < min(lo+graph.ShardBlock, n); slot++ {
			x := g.SlotHandle(uint32(slot))
			if x.IsNil() {
				continue
			}
			own = t.memb[slot*nw : slot*nw+nw]
			np := bits.Len(uint(g.OutSlotCount(x) + g.InDegreeLive(x)))
			if len(planes) < np*nw {
				planes = make([]uint64, np*nw)
			}
			ps = planes[:np*nw]
			clear(ps)
			g.NeighborSlots(x.Slot, visit)
			b := &t.bnd[slot]
			b.epoch, b.gen = t.epoch, x.Gen
			b.entries = b.entries[:0]
			for i := 0; i < nw; i++ {
				var counted uint64
				for p := i; p < len(ps); p += nw {
					counted |= ps[p]
				}
				for ; counted != 0; counted &= counted - 1 {
					bit := bits.TrailingZeros64(counted)
					var c int32
					for p, k := i, 0; p < len(ps); p, k = p+nw, k+1 {
						c |= int32(ps[p]>>bit&1) << k
					}
					s := i<<6 | bit
					b.entries = append(b.entries, bndEntry{set: uint32(s), cnt: c})
					row[s]++
				}
			}
		}
	}
	return row
}

// VerifyTracker is the tracker's rescan oracle: it compares every tracked
// set's live size and |∂out| with a from-scratch count of its member list
// on g's current snapshot (liveness and BoundarySize). The error names
// the first set that disagrees and its family. It backs the tracker
// tests and the expansion bench row's audit.
func VerifyTracker(g *graph.Graph, tr *Tracker) error {
	for i := range tr.sets {
		st := &tr.sets[i]
		live := 0
		for _, h := range st.members {
			if g.IsAlive(h) {
				live++
			}
		}
		if st.live != live {
			return fmt.Errorf("set %d (%s): tracked live %d, rescan %d", i, st.family, st.live, live)
		}
		if want := BoundarySize(g, st.members); st.boundary != want {
			return fmt.Errorf("set %d (%s, |S|=%d, live %d): tracked boundary %d, rescan %d",
				i, st.family, len(st.members), live, st.boundary, want)
		}
	}
	return nil
}
