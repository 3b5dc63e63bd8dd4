// Package overlay implements the unstructured peer-to-peer network that
// motivates the paper's models (Section 1.1): a Bitcoin-Core-style overlay
// in which every node keeps a target number d of outbound connections, an
// inbound cap, and a bounded address book that is seeded at join ("DNS
// seeds") and refreshed by periodic ADDR gossip. When an outbound peer
// disappears the node redials an address from its book — the realistic
// counterpart of the models' idealized uniform edge regeneration.
//
// The paper argues that "in the long run each full-node samples its
// out-neighbors from a list formed by a 'sufficiently random' subset of all
// the nodes of the network", which is why PDGR with uniform sampling is a
// reasonable abstraction. The overlay exists to test that claim: it
// implements core.Model, so the same flooding and expansion machinery runs
// on both, and experiment F21 compares them side by side.
//
// The simulation is event-driven (package eventsim): node churn follows
// the same Poisson jump dynamics as PDGR, while per-node maintenance and
// gossip timers fire with deterministic per-node phases.
package overlay

import (
	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/dist"
	"github.com/dyngraph/churnnet/internal/eventsim"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
)

// Config parameterizes the overlay protocol.
type Config struct {
	// N is the expected population (churn rates λ = 1, µ = 1/N).
	N int
	// D is the target outbound-connection count (Bitcoin Core: 8).
	D int
	// MaxIn caps inbound connections (Bitcoin Core: 125); 0 = unlimited.
	MaxIn int
	// AddrBookCap bounds the address book (default 256).
	AddrBookCap int
	// SeedSize is how many addresses the DNS seed returns at join
	// (default 4·D).
	SeedSize int
	// GossipInterval is the period of ADDR gossip (default 8 time units).
	GossipInterval float64
	// GossipSample is how many book entries are advertised per gossip
	// (default 8).
	GossipSample int
	// GossipFanout is how many current neighbors receive each ADDR
	// message (default 2, like Bitcoin's addr relay).
	GossipFanout int
	// MaintenanceInterval is the period of the redial loop (default 0.5).
	MaintenanceInterval float64
	// DialAttempts bounds how many book entries a maintenance pass tries
	// per missing connection (default 8).
	DialAttempts int
}

func (c Config) withDefaults() Config {
	if c.AddrBookCap == 0 {
		c.AddrBookCap = 256
	}
	if c.SeedSize == 0 {
		c.SeedSize = 4 * c.D
	}
	if c.GossipInterval == 0 {
		c.GossipInterval = 8
	}
	if c.GossipSample == 0 {
		c.GossipSample = 8
	}
	if c.GossipFanout == 0 {
		c.GossipFanout = 2
	}
	if c.MaintenanceInterval == 0 {
		c.MaintenanceInterval = 0.5
	}
	if c.DialAttempts == 0 {
		c.DialAttempts = 8
	}
	return c
}

// Overlay is a live address-gossip P2P network. It implements core.Model:
// AdvanceRound plays one unit of simulated time (churn events, redials,
// gossip), so flood.Run and the expansion estimators apply unchanged.
type Overlay struct {
	cfg   Config
	q     eventsim.Queue
	g     *graph.Graph
	r     *rng.RNG
	books [][]graph.Handle       // per slot: known addresses
	index []map[graph.Handle]int // per slot: address -> position in books
	in    []int                  // per slot: live inbound count
	last  graph.Handle
	hooks core.Hooks

	// Stats counters over the whole run.
	dialsOK, dialsStale, dialsFull int
}

// New builds an empty overlay and schedules its churn process. Populate it
// with WarmUp (or AdvanceTime).
func New(cfg Config, r *rng.RNG) *Overlay {
	if cfg.N <= 0 || cfg.D < 0 {
		panic("overlay: Config requires N > 0 and D >= 0")
	}
	o := &Overlay{
		cfg: cfg.withDefaults(),
		g:   graph.New(cfg.N+cfg.N/2, cfg.D),
		r:   r,
	}
	o.scheduleChurn()
	return o
}

// Kind implements core.Model.
func (o *Overlay) Kind() core.Kind { return core.Overlay }

// Graph implements core.Model.
func (o *Overlay) Graph() *graph.Graph { return o.g }

// N implements core.Model.
func (o *Overlay) N() int { return o.cfg.N }

// D implements core.Model.
func (o *Overlay) D() int { return o.cfg.D }

// Now implements core.Model.
func (o *Overlay) Now() float64 { return o.q.Now() }

// LastBorn implements core.Model.
func (o *Overlay) LastBorn() graph.Handle { return o.last }

// SetHooks implements core.Model.
func (o *Overlay) SetHooks(h core.Hooks) { o.hooks = h }

// Hooks implements core.Model.
func (o *Overlay) Hooks() core.Hooks { return o.hooks }

// AdvanceRound implements core.Model: one unit of simulated time.
func (o *Overlay) AdvanceRound() { o.AdvanceTime(1) }

// AdvanceTime plays the event queue for the given duration.
func (o *Overlay) AdvanceTime(duration float64) {
	o.q.RunUntil(o.q.Now() + duration)
}

// WarmUp grows the overlay from empty for 3·N time units — enough for the
// population to reach its stationary band and for address books to mix.
func (o *Overlay) WarmUp() { o.AdvanceTime(3 * float64(o.cfg.N)) }

// DialStats returns cumulative redial outcomes: successful dials, dials
// that hit a stale address, and dials refused by a full inbound side.
func (o *Overlay) DialStats() (ok, stale, full int) {
	return o.dialsOK, o.dialsStale, o.dialsFull
}

// --- churn ---

// scheduleChurn samples the next jump-chain event (same dynamics as PDGR:
// rate N·µ + λ, birth w.p. λ/(N·µ+λ)) and queues it.
func (o *Overlay) scheduleChurn() {
	n := o.g.NumAlive()
	rate := float64(n)/float64(o.cfg.N) + 1
	dt := dist.Exponential(o.r, rate)
	birth := float64(n) == 0 || o.r.Float64()*rate < 1
	o.q.Schedule(dt, func() {
		if birth {
			o.born()
		} else {
			o.die()
		}
		o.scheduleChurn()
	})
}

func (o *Overlay) born() {
	h := o.g.AddNode(o.q.Now())
	o.last = h
	o.grow(int(h.Slot) + 1)
	o.books[h.Slot] = o.books[h.Slot][:0]
	o.index[h.Slot] = make(map[graph.Handle]int, o.cfg.AddrBookCap)
	o.in[h.Slot] = 0

	// DNS seeding: the joining node learns a bounded sample of addresses.
	// Reachability of the seed is global knowledge, exactly like the DNS
	// seeds of Bitcoin Core's bootstrap.
	for i := 0; i < o.cfg.SeedSize; i++ {
		if a := o.g.RandomAliveExcept(o.r, h); !a.IsNil() {
			o.bookAdd(h, a)
		}
	}
	o.maintain(h)
	o.schedulePeriodic(h)
	if o.hooks.OnBirth != nil {
		o.hooks.OnBirth(h)
	}
}

func (o *Overlay) die() {
	victim := o.g.RandomAlive(o.r)
	if victim.IsNil() {
		return
	}
	if o.hooks.OnDeath != nil {
		o.hooks.OnDeath(victim)
	}
	// The victim's outbound connections release inbound capacity.
	o.g.OutTargets(victim, func(t graph.Handle) bool {
		if o.in[t.Slot] > 0 {
			o.in[t.Slot]--
		}
		return true
	})
	// Peers that lose an outbound connection redial on their next
	// maintenance tick (Bitcoin's behavior) — nothing to do eagerly.
	o.g.RemoveNode(victim, nil)
}

// schedulePeriodic starts the node's maintenance and gossip loops with a
// random phase so that timers do not synchronize across the network.
func (o *Overlay) schedulePeriodic(h graph.Handle) {
	var maintTick, gossipTick func()
	maintTick = func() {
		if !o.g.IsAlive(h) {
			return
		}
		o.maintain(h)
		o.q.Schedule(o.cfg.MaintenanceInterval, maintTick)
	}
	gossipTick = func() {
		if !o.g.IsAlive(h) {
			return
		}
		o.gossip(h)
		o.q.Schedule(o.cfg.GossipInterval, gossipTick)
	}
	o.q.Schedule(o.r.Float64()*o.cfg.MaintenanceInterval, maintTick)
	o.q.Schedule(o.r.Float64()*o.cfg.GossipInterval, gossipTick)
}

// --- address book ---

func (o *Overlay) grow(n int) {
	for len(o.books) < n {
		o.books = append(o.books, nil)
		o.index = append(o.index, nil)
		o.in = append(o.in, 0)
	}
}

// bookAdd inserts addr into h's book, deduplicating via the index map
// (O(1)) and evicting a random entry when full. Dead addresses are allowed
// in (they are pruned on dial), matching the staleness of real address
// books.
func (o *Overlay) bookAdd(h, addr graph.Handle) {
	if addr == h || addr.IsNil() {
		return
	}
	idx := o.index[h.Slot]
	if _, ok := idx[addr]; ok {
		return
	}
	book := o.books[h.Slot]
	if len(book) >= o.cfg.AddrBookCap {
		i := o.r.Intn(len(book))
		delete(idx, book[i])
		book[i] = addr
		idx[addr] = i
		return
	}
	idx[addr] = len(book)
	o.books[h.Slot] = append(book, addr)
}

// bookSample returns a random book entry, pruning stale entries it trips
// over; Nil if the book is empty.
func (o *Overlay) bookSample(h graph.Handle) graph.Handle {
	book := o.books[h.Slot]
	idx := o.index[h.Slot]
	for len(book) > 0 {
		i := o.r.Intn(len(book))
		a := book[i]
		if o.g.IsAlive(a) {
			return a
		}
		delete(idx, a)
		last := book[len(book)-1]
		book[i] = last
		if last != a {
			idx[last] = i
		}
		book = book[:len(book)-1]
		o.books[h.Slot] = book
	}
	return graph.Nil
}

// --- connection maintenance ---

// maintain tops up h's outbound connections toward the target D by
// redialing addresses from the book. Dead out-slots are redirected (the
// regeneration of Definition 4.14, but sampled from the local book instead
// of the whole network); missing slots are added.
func (o *Overlay) maintain(h graph.Handle) {
	// Redirect slots whose target died.
	for idx := 0; idx < o.g.OutSlotCount(h); idx++ {
		tgt, _ := o.g.OutTarget(h, idx)
		if o.g.IsAlive(tgt) {
			continue
		}
		if a := o.dial(h); !a.IsNil() {
			o.g.RedirectOutEdge(h, idx, a)
			o.in[a.Slot]++
			if o.hooks.OnEdge != nil {
				o.hooks.OnEdge(h, a)
			}
		}
	}
	// Open new slots until the target degree is reached.
	for o.g.OutSlotCount(h) < o.cfg.D {
		a := o.dial(h)
		if a.IsNil() {
			return
		}
		o.g.AddOutEdge(h, a)
		o.in[a.Slot]++
		if o.hooks.OnEdge != nil {
			o.hooks.OnEdge(h, a)
		}
	}
}

// dial picks a connectable address: alive, not h itself, not already an
// outbound peer, and with inbound capacity. It consumes at most
// DialAttempts book samples and returns Nil on failure.
func (o *Overlay) dial(h graph.Handle) graph.Handle {
	for attempt := 0; attempt < o.cfg.DialAttempts; attempt++ {
		a := o.bookSample(h)
		if a.IsNil() {
			o.dialsStale++
			return graph.Nil
		}
		if a == h || o.alreadyPeered(h, a) {
			o.dialsStale++
			continue
		}
		if o.cfg.MaxIn > 0 && o.in[a.Slot] >= o.cfg.MaxIn {
			o.dialsFull++
			continue
		}
		o.dialsOK++
		return a
	}
	return graph.Nil
}

func (o *Overlay) alreadyPeered(h, a graph.Handle) bool {
	peered := false
	o.g.OutTargets(h, func(t graph.Handle) bool {
		if t == a {
			peered = true
			return false
		}
		return true
	})
	return peered
}

// --- gossip ---

// gossip advertises a sample of h's book (plus h's own address) to
// GossipFanout random current neighbors, who merge the entries into their
// books. This is the mechanism that keeps books "sufficiently random".
func (o *Overlay) gossip(h graph.Handle) {
	var neighbors []graph.Handle
	o.g.Neighbors(h, func(v graph.Handle) bool {
		neighbors = append(neighbors, v)
		return true
	})
	if len(neighbors) == 0 {
		return
	}
	book := o.books[h.Slot]
	for f := 0; f < o.cfg.GossipFanout; f++ {
		to := neighbors[o.r.Intn(len(neighbors))]
		o.bookAdd(to, h) // self-advertisement makes newcomers reachable
		for s := 0; s < o.cfg.GossipSample && len(book) > 0; s++ {
			o.bookAdd(to, book[o.r.Intn(len(book))])
		}
	}
}
