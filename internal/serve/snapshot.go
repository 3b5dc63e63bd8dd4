package serve

import (
	"fmt"
	"math"
	"time"

	"github.com/dyngraph/churnnet/internal/expansion"
	"github.com/dyngraph/churnnet/internal/flood"
)

// obsRingCap bounds the expansion-observation history a snapshot carries.
const obsRingCap = 256

// Snapshot is one immutable copy-on-publish view of the served network.
// Request goroutines read it lock-free through Server.Current; a new
// version replaces it atomically and old versions stay valid for readers
// still holding them.
type Snapshot struct {
	// Version increases by one per publish; every read response carries
	// it so clients (and the consistency audit) can line reads up.
	Version uint64
	// Steps is the number of flooding rounds executed; Time the model
	// clock; Alive the live population.
	Steps int
	Time  float64
	Alive int
	// QueueLen is the command-queue depth sampled at publish.
	QueueLen int

	publishedAt time.Time
	nodes       paged[nodeRec]
	msgs        paged[MsgView] // Version left zero; MsgStatus stamps it
	view        *flood.TrafficView
	expansion   []ExpansionObs
}

// PublishedAt returns the wall-clock publish instant (for staleness
// metrics).
func (s *Snapshot) PublishedAt() time.Time { return s.publishedAt }

// Age returns how stale the snapshot is at now.
func (s *Snapshot) Age(now time.Time) time.Duration { return now.Sub(s.publishedAt) }

// NumNodes returns how many external IDs have been issued (alive or
// departed).
func (s *Snapshot) NumNodes() int { return s.nodes.len() }

// NumMsgs returns how many messages have been injected.
func (s *Snapshot) NumMsgs() int { return s.msgs.len() }

// MsgInformed is one message's informed bit at a node.
type MsgInformed struct {
	Msg      int  `json:"msg"`
	Informed bool `json:"informed"`
}

// NodeInfo is the /node-info payload for an alive node.
type NodeInfo struct {
	ID    uint64  `json:"id"`
	Alive bool    `json:"alive"`
	Birth float64 `json:"birth"`
	// Age is model time since birth, in transmission units.
	Age float64 `json:"age"`
	// Informed holds this node's membership bit for every in-flight
	// message at snapshot time.
	Informed []MsgInformed `json:"informed,omitempty"`
	Version  uint64        `json:"version"`
}

// NodeInfo resolves an external ID against the snapshot: a well-formed
// 404 for an ID never issued, 410 for a departed node, and the info
// payload otherwise.
func (s *Snapshot) NodeInfo(id uint64) (NodeInfo, *APIError) {
	rec, err := lookupNode(&s.nodes, id)
	if err != nil {
		return NodeInfo{}, err
	}
	info := NodeInfo{ID: id, Alive: true, Birth: rec.birth, Age: s.Time - rec.birth, Version: s.Version}
	for _, mid := range s.view.InFlight() {
		info.Informed = append(info.Informed, MsgInformed{
			Msg:      int(mid),
			Informed: s.view.Informed(mid, rec.h),
		})
	}
	return info, nil
}

// Probe answers the UDP fast path: is node id alive, and (when msg >= 0)
// is it informed of that in-flight message. Departed and unknown nodes
// return alive=false with a nil error. A finished message answers
// informed=false with a nil error, as its per-node membership is no longer
// tracked; only a message never injected is the error case.
func (s *Snapshot) Probe(id uint64, msg int) (alive, informed bool, err *APIError) {
	if id >= uint64(s.nodes.len()) {
		return false, false, nil
	}
	rec := s.nodes.get(int(id))
	if rec.state != nodeAlive {
		return false, false, nil
	}
	if msg < 0 {
		return true, false, nil
	}
	if msg >= s.msgs.len() {
		return true, false, &APIError{Status: 404, Msg: fmt.Sprintf("unknown message %d", msg)}
	}
	return true, s.view.Informed(flood.MessageID(msg), rec.h), nil
}

// lookupNode resolves an external node ID to its alive record, or a
// well-formed error: 404 for an ID never issued, 410 for a departed node
// (the message says whether it left or crashed).
func lookupNode(nodes *paged[nodeRec], id uint64) (nodeRec, *APIError) {
	if id >= uint64(nodes.len()) {
		return nodeRec{}, &APIError{Status: 404, Msg: fmt.Sprintf("unknown node %d", id)}
	}
	rec := nodes.get(int(id))
	switch rec.state {
	case nodeLeft:
		return nodeRec{}, &APIError{Status: 410, Msg: fmt.Sprintf("node %d left the network", id)}
	case nodeCrashed:
		return nodeRec{}, &APIError{Status: 410, Msg: fmt.Sprintf("node %d crashed", id)}
	}
	return rec, nil
}

// MsgView is the /status payload: one message's lifecycle and flooding
// outcome at snapshot time. For an in-flight message the Result fields
// cover the rounds executed so far.
type MsgView struct {
	ID     int    `json:"id"`
	Status string `json:"status"`
	// Rounds executed for this message (relative to its injection).
	Rounds int `json:"rounds"`
	// InformedAlive counts currently alive informed nodes (final count
	// once done or retired); Alive is the concurrent population.
	InformedAlive int `json:"informed_alive"`
	Alive         int `json:"alive"`
	EverInformed  int `json:"ever_informed"`
	PeakInformed  int `json:"peak_informed"`

	Completed             bool `json:"completed"`
	CompletionRound       int  `json:"completion_round"`
	StrictlyCompleted     bool `json:"strictly_completed"`
	StrictCompletionRound int  `json:"strict_completion_round"`
	DiedOut               bool `json:"died_out"`
	DiedOutRound          int  `json:"died_out_round"`

	Version uint64 `json:"version"`
}

func newMsgView(t *flood.Traffic, id flood.MessageID) MsgView {
	res := t.Result(id)
	return MsgView{
		ID:                    int(id),
		Status:                t.Status(id).String(),
		Rounds:                res.Rounds,
		InformedAlive:         t.InformedAlive(id),
		Alive:                 res.FinalAlive,
		EverInformed:          res.EverInformed,
		PeakInformed:          res.PeakInformed,
		Completed:             res.Completed,
		CompletionRound:       res.CompletionRound,
		StrictlyCompleted:     res.StrictlyCompleted,
		StrictCompletionRound: res.StrictCompletionRound,
		DiedOut:               res.DiedOut,
		DiedOutRound:          res.DiedOutRound,
	}
}

// MsgStatus resolves a message ID against the snapshot (404 for an ID
// the plane never issued) and stamps the snapshot's version.
func (s *Snapshot) MsgStatus(id uint64) (MsgView, *APIError) {
	if id >= uint64(s.msgs.len()) {
		return MsgView{}, &APIError{Status: 404, Msg: fmt.Sprintf("unknown message %d", id)}
	}
	mv := s.msgs.get(int(id))
	mv.Version = s.Version
	return mv, nil
}

// ExpansionObs is one tracked expansion observation, JSON-ready: Min is
// the smallest boundary/size ratio over tracked witness sets (-1 when no
// tracked set qualified — the JSON stand-in for +Inf).
type ExpansionObs struct {
	Round           int     `json:"round"`
	Time            float64 `json:"time"`
	N               int     `json:"n"`
	Min             float64 `json:"min"`
	WitnessSize     int     `json:"witness_size"`
	WitnessBoundary int     `json:"witness_boundary"`
}

func newExpansionObs(obs expansion.Observation, round int) ExpansionObs {
	o := ExpansionObs{
		Round:           round,
		Time:            obs.Time,
		N:               obs.N,
		Min:             obs.Min,
		WitnessSize:     obs.MinWitness.Size,
		WitnessBoundary: obs.MinWitness.Boundary,
	}
	if math.IsInf(o.Min, 1) {
		o.Min = -1
	}
	return o
}

// Expansion returns the retained observation history, oldest first. The
// slice is shared with the snapshot; callers must not mutate it.
func (s *Snapshot) Expansion() []ExpansionObs { return s.expansion }
