package serve

import (
	"bytes"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/expansion"
	"github.com/dyngraph/churnnet/internal/flood"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/graphio"
	"github.com/dyngraph/churnnet/internal/rng"
)

// Config parameterizes a Server.
type Config struct {
	// Kind/N/D/Seed describe the seeded stationary snapshot the live
	// model starts from (N == 0 starts empty). See NewLiveModel.
	Kind core.Kind
	N, D int
	Seed uint64

	// Parallelism is the worker-shard count of the traffic plane and the
	// seeding snapshot fill (the flood.Options contract: 0/1 serial,
	// negative auto).
	Parallelism int

	// QueueDepth bounds the command queue; a full queue rejects
	// mutations with 429 instead of queueing unboundedly. Default 1024.
	QueueDepth int

	// Tick, when positive, advances the network one flooding round per
	// tick autonomously. Zero (the default) advances only on explicit
	// step commands — the fully deterministic mode.
	Tick time.Duration

	// MinPublishInterval rate-limits snapshot publication: after a
	// mutation batch, a new snapshot is published only if the current
	// one is at least this old (0 = publish after every batch); a batch
	// that lands inside the interval is published when it runs out. Reads
	// in between see a bounded-stale snapshot; /healthz reports the age.
	MinPublishInterval time.Duration

	// ObserveEvery, when positive, attaches an expansion.Tracker and
	// records an observation every that many rounds.
	ObserveEvery int
	// Tracker tunes the tracked witness families (zero value = package
	// defaults).
	Tracker expansion.TrackerConfig

	// MaxRounds caps each injected message's flooding rounds (0 selects
	// flood.DefaultMaxRounds of N).
	MaxRounds int

	// ReplyTimeout bounds how long a request handler waits for the
	// writer to execute its command before giving up with 503 (the
	// command itself still executes). Default 10s.
	ReplyTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.ReplyTimeout <= 0 {
		c.ReplyTimeout = 10 * time.Second
	}
	if c.D <= 0 {
		c.D = 1
	}
	if c.Kind == 0 {
		c.Kind = core.SDGR
	}
	return c
}

// APIError is a well-formed command failure: an HTTP status code and a
// message. It is what mutation commands return for unknown or departed
// nodes, overload, and shutdown — never a panic.
type APIError struct {
	Status int    `json:"status"`
	Msg    string `json:"error"`
}

func (e *APIError) Error() string { return fmt.Sprintf("%d: %s", e.Status, e.Msg) }

var (
	errQueueFull = &APIError{Status: 429, Msg: "command queue full, retry later"}
	errStopped   = &APIError{Status: 503, Msg: "server is shutting down"}
	errTimeout   = &APIError{Status: 503, Msg: "command timed out awaiting the writer (it may still execute)"}
)

// nodeState is a served node's lifecycle phase.
type nodeState uint8

const (
	nodeAlive nodeState = iota
	nodeLeft
	nodeCrashed
)

// nodeRec is the writer's per-external-ID node bookkeeping, held in
// copy-on-write pages that snapshots share (see paged).
type nodeRec struct {
	h     graph.Handle // generation-checked; meaningless after departure
	birth float64
	state nodeState
}

type cmdKind uint8

const (
	cmdJoin cmdKind = iota
	cmdLeave
	cmdCrash
	cmdInject
	cmdStep
	cmdDump
	cmdAudit
)

type command struct {
	kind  cmdKind
	id    uint64 // leave/crash target; inject source when useID
	useID bool   // inject: explicit source id vs last-born
	count int    // join nodes / step rounds
	fn    func() // audit closure, run on the writer goroutine
	reply chan cmdReply
}

type cmdReply struct {
	err     *APIError
	ids     []uint64
	msg     flood.MessageID
	buf     []byte
	version uint64
}

// Server hosts one LiveModel, its traffic plane and optional expansion
// tracker behind a single-writer loop. Construct with New, start the
// loop with Start, attach Handler/ServeUDP, and Stop to shut down.
type Server struct {
	cfg     Config
	model   *LiveModel
	plane   *flood.Traffic
	tracker *expansion.Tracker

	cmds    chan command
	stop    chan struct{}
	done    chan struct{}
	stopped atomic.Bool

	snap atomic.Pointer[Snapshot]

	// Writer-goroutine state (never touched by request goroutines). A
	// message's MsgView is written when it is first published and
	// rewritten while it is in flight; a done message's never changes.
	nodes             paged[nodeRec]
	msgs              paged[MsgView]
	version           uint64
	dirty             bool
	lastPublish       time.Time
	stepsSinceObserve int
	obsRing           []ExpansionObs
	pending           []pendingReply
	maxQueueLen       int
}

type pendingReply struct {
	ch chan cmdReply
	r  cmdReply
}

// New builds the server: seeds the live model (the expensive part at
// large N), attaches the tracker and the traffic plane, and publishes
// snapshot version 1. Call Start to begin serving commands.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		cmds: make(chan command, cfg.QueueDepth),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.model = NewLiveModel(cfg.Kind, cfg.N, cfg.D, cfg.Seed, cfg.Parallelism)

	// Register the seeded population under dense external IDs in birth
	// order (0 = oldest), the graphio convention.
	g := s.model.Graph()
	hs := g.AliveHandles()
	sortByBirth(g, hs)
	for _, h := range hs {
		s.nodes.append(nodeRec{h: h, birth: g.BirthTime(h), state: nodeAlive})
	}

	if cfg.ObserveEvery > 0 {
		s.tracker = expansion.NewTracker(s.model, rng.New(cfg.Seed^0x9e3779b97f4a7c15), cfg.Tracker)
	}
	s.plane = flood.NewTraffic(s.model, flood.TrafficOptions{
		MaxRounds:   cfg.MaxRounds,
		Parallelism: cfg.Parallelism,
	})
	s.publish(time.Now())
	return s
}

// sortByBirth orders alive handles oldest-first, in O(n log n).
func sortByBirth(g *graph.Graph, hs []graph.Handle) {
	sort.Slice(hs, func(i, j int) bool { return g.BirthSeq(hs[i]) < g.BirthSeq(hs[j]) })
}

// Start launches the writer loop.
func (s *Server) Start() {
	go s.loop()
}

// Stop shuts the writer down and detaches the plane and tracker. Pending
// and late requests fail with 503. Idempotent.
func (s *Server) Stop() {
	if s.stopped.Swap(true) {
		<-s.done
		return
	}
	close(s.stop)
	<-s.done
	s.plane.Close()
	if s.tracker != nil {
		s.tracker.Close()
	}
}

// Model exposes the underlying live model for the writer-side audit path
// and tests. Request handlers must never call this.
func (s *Server) Model() *LiveModel { return s.model }

// Plane exposes the traffic plane for the writer-side audit path and
// tests. Request handlers must never call this.
func (s *Server) Plane() *flood.Traffic { return s.plane }

// Current returns the latest published snapshot. Safe from any
// goroutine; the snapshot is immutable.
func (s *Server) Current() *Snapshot { return s.snap.Load() }

// QueueLen returns the current command-queue depth (approximate; safe
// from any goroutine).
func (s *Server) QueueLen() int { return len(s.cmds) }

// QueueCap returns the command-queue capacity.
func (s *Server) QueueCap() int { return cap(s.cmds) }

// --- the writer loop ---

func (s *Server) loop() {
	defer close(s.done)
	var tickC <-chan time.Time
	if s.cfg.Tick > 0 {
		t := time.NewTicker(s.cfg.Tick)
		defer t.Stop()
		tickC = t.C
	}
	// publishC fires when a rate-limited dirty state becomes due, so a
	// mutation with no later command is still published within
	// MinPublishInterval. Nil (never armed) at interval 0.
	var publishC <-chan time.Time
	for {
		select {
		case <-s.stop:
			s.flushReplies()
			return
		case cmd := <-s.cmds:
			if n := len(s.cmds) + 1; n > s.maxQueueLen {
				s.maxQueueLen = n
			}
			s.apply(cmd)
			// Drain the batch: every command that arrived while we were
			// busy executes before the next round boundary.
		drain:
			for {
				select {
				case cmd := <-s.cmds:
					s.apply(cmd)
				default:
					break drain
				}
			}
		case <-tickC:
			s.stepRounds(1)
		case <-publishC:
			publishC = nil
		}
		now := time.Now()
		if s.dirty {
			if wait := s.cfg.MinPublishInterval - now.Sub(s.lastPublish); wait <= 0 {
				s.publish(now)
			} else if publishC == nil {
				publishC = time.After(wait)
			}
		}
		s.flushReplies()
	}
}

func (s *Server) flushReplies() {
	for _, p := range s.pending {
		p.r.version = s.version
		p.ch <- p.r // buffered(1); never blocks
	}
	s.pending = s.pending[:0]
}

func (s *Server) apply(cmd command) {
	var r cmdReply
	switch cmd.kind {
	case cmdJoin:
		n := cmd.count
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			h := s.model.Join()
			id := uint64(s.nodes.len())
			s.nodes.append(nodeRec{h: h, birth: s.model.Now(), state: nodeAlive})
			r.ids = append(r.ids, id)
		}
		s.dirty = true
	case cmdLeave, cmdCrash:
		rec, err := lookupNode(&s.nodes, cmd.id)
		if err != nil {
			r.err = err
			break
		}
		state := nodeLeft
		if cmd.kind == cmdLeave {
			s.model.Leave(rec.h)
		} else {
			s.model.Crash(rec.h)
			state = nodeCrashed
		}
		s.nodes.at(int(cmd.id)).state = state
		s.dirty = true
	case cmdInject:
		src := graph.Nil
		if cmd.useID {
			rec, err := lookupNode(&s.nodes, cmd.id)
			if err != nil {
				r.err = err
				break
			}
			src = rec.h
		} else if s.model.LastBorn().IsNil() || !s.model.Graph().IsAlive(s.model.LastBorn()) {
			r.err = &APIError{Status: 409, Msg: "no alive default source; join a node first or name one"}
			break
		}
		r.msg = s.plane.Inject(src)
		s.dirty = true
	case cmdStep:
		n := cmd.count
		if n < 1 {
			n = 1
		}
		s.stepRounds(n)
	case cmdDump:
		// Publish first so the dump names a version that concurrent
		// snapshot readers can line up with, then serialize that state.
		s.publish(time.Now())
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "# churnd snapshot version=%d round=%d time=%g alive=%d\n",
			s.version, s.plane.Steps(), s.model.Now(), s.model.Graph().NumAlive())
		if err := graphio.WriteEdgeList(&buf, s.model.Graph()); err != nil {
			r.err = &APIError{Status: 500, Msg: "snapshot serialization failed: " + err.Error()}
			break
		}
		r.buf = buf.Bytes()
	case cmdAudit:
		cmd.fn()
	}
	if cmd.reply != nil {
		s.pending = append(s.pending, pendingReply{ch: cmd.reply, r: r})
	}
}

func (s *Server) stepRounds(n int) {
	for i := 0; i < n; i++ {
		s.plane.Step()
		if s.tracker != nil {
			s.stepsSinceObserve++
			if s.stepsSinceObserve >= s.cfg.ObserveEvery {
				s.stepsSinceObserve = 0
				obs := s.tracker.Observe()
				s.obsRing = append(s.obsRing, newExpansionObs(obs, s.plane.Steps()))
				if len(s.obsRing) > obsRingCap {
					s.obsRing = s.obsRing[len(s.obsRing)-obsRingCap:]
				}
			}
		}
	}
	s.dirty = true
}

// publish builds and installs a fresh immutable snapshot. It costs the
// pages written since the last publish plus the in-flight messages: node
// records and message views are shared page by page with the previous
// snapshot (paged), the informed view is captured incrementally on top of
// the previous one (flood.Traffic.CaptureView), and the expansion ring
// only ever appends past what a snapshot holds.
func (s *Server) publish(now time.Time) {
	s.version++
	var prev *flood.TrafficView
	if cur := s.snap.Load(); cur != nil {
		// Every message in flight now was in flight at the last publish or
		// has been injected since; one that finished in between gets its
		// final view here, once.
		prev = cur.view
		for _, id := range prev.InFlight() {
			*s.msgs.at(int(id)) = newMsgView(s.plane, id)
		}
	}
	for id := s.msgs.len(); id < s.plane.Injected(); id++ {
		s.msgs.append(newMsgView(s.plane, flood.MessageID(id)))
	}
	snap := &Snapshot{
		Version:     s.version,
		Steps:       s.plane.Steps(),
		Time:        s.model.Now(),
		Alive:       s.model.Graph().NumAlive(),
		QueueLen:    len(s.cmds),
		publishedAt: now,
		nodes:       s.nodes.share(),
		msgs:        s.msgs.share(),
		view:        s.plane.CaptureView(prev),
		expansion:   s.obsRing[:len(s.obsRing):len(s.obsRing)],
	}
	s.snap.Store(snap)
	s.dirty = false
	s.lastPublish = now
}

// --- the command API (what the HTTP layer and tests call) ---

// enqueue submits a command and waits for its reply. The returned
// version is the snapshot version current when the reply was flushed.
func (s *Server) enqueue(cmd command) (cmdReply, *APIError) {
	if s.stopped.Load() {
		return cmdReply{}, errStopped
	}
	cmd.reply = make(chan cmdReply, 1)
	select {
	case s.cmds <- cmd:
	default:
		return cmdReply{}, errQueueFull
	}
	timer := time.NewTimer(s.cfg.ReplyTimeout)
	defer timer.Stop()
	select {
	case r := <-cmd.reply:
		return r, r.err
	case <-timer.C:
		return cmdReply{}, errTimeout
	case <-s.done:
		return cmdReply{}, errStopped
	}
}

// Join admits count nodes (count < 1 admits one) and returns their
// external IDs.
func (s *Server) Join(count int) ([]uint64, uint64, *APIError) {
	r, err := s.enqueue(command{kind: cmdJoin, count: count})
	return r.ids, r.version, err
}

// Leave departs node id gracefully (survivors redial).
func (s *Server) Leave(id uint64) (uint64, *APIError) {
	r, err := s.enqueue(command{kind: cmdLeave, id: id})
	return r.version, err
}

// Crash departs node id abruptly (orphaned requests dangle).
func (s *Server) Crash(id uint64) (uint64, *APIError) {
	r, err := s.enqueue(command{kind: cmdCrash, id: id})
	return r.version, err
}

// Inject admits a broadcast sourced at node id (useID false selects the
// most recently joined node) and returns its MessageID.
func (s *Server) Inject(id uint64, useID bool) (flood.MessageID, uint64, *APIError) {
	r, err := s.enqueue(command{kind: cmdInject, id: id, useID: useID})
	return r.msg, r.version, err
}

// StepRounds advances the network n flooding rounds.
func (s *Server) StepRounds(n int) (uint64, *APIError) {
	r, err := s.enqueue(command{kind: cmdStep, count: n})
	return r.version, err
}

// Dump serializes the current graph in the graphio edge-list format
// (with a leading comment naming the version the dump corresponds to).
func (s *Server) Dump() ([]byte, *APIError) {
	r, err := s.enqueue(command{kind: cmdDump})
	return r.buf, err
}

// Audit runs fn on the writer goroutine with exclusive access to the
// model and plane, after forcing a fresh snapshot publish — so fn can
// compare the published snapshot against a direct model query at the
// same version. It is the consistency-audit hook of benchjson and the
// tests.
func (s *Server) Audit(fn func(model *LiveModel, plane *flood.Traffic, snap *Snapshot)) *APIError {
	wrapped := func() {
		s.publish(time.Now())
		fn(s.model, s.plane, s.snap.Load())
	}
	_, err := s.enqueue(command{kind: cmdAudit, fn: wrapped})
	return err
}

// MaxQueueLen reports the largest queue depth the writer has observed at
// batch start. Must be read via Audit (writer state).
func (s *Server) MaxQueueLen() int { return s.maxQueueLen }
