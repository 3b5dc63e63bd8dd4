package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/graph"
)

// span is one timed call into a layer. Hook callbacks are not spans of
// their own: they are aggregated on the span that was open when they
// fired (count plus total time), or on the tracer when no span of the
// firing goroutine is open.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`   // index of the parent span; -1 for a root
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Hooks  int64  `json:"hooks,omitempty"`
	HookNs int64  `json:"hook_ns,omitempty"`
}

// Span names the workloads use. A "timed" span encloses one timed
// operation (for serve-1m, the traced half of the load); a "check" span
// is an oracle and is excluded from timed wall time.
const (
	spanTimed = "timed"
	spanCheck = "check"
)

// tracer keeps the spans of a traced run in memory until they are written
// out at exit. A nil *tracer is the untraced run: every method is a no-op,
// so the workloads call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	stack []int // open spans of the goroutine driving a serial workload

	// Time in hook callbacks that fired with no open span (the serve
	// writer's), and the model events every wrapped hook set has seen.
	looseHookNs           int64
	births, deaths, edges int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span under parent (-1 for a root) and returns its index.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].End = t.now()
	t.mu.Unlock()
}

// push opens a span under the innermost open span of the workload
// goroutine; pop closes it again. Spans opened with push must nest.
func (t *tracer) push(name string) int {
	if t == nil {
		return -1
	}
	id := t.start(name, t.top())
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) pop(id int) {
	if t == nil {
		return
	}
	if n := len(t.stack); n == 0 || t.stack[n-1] != id {
		panic("churnbench: span closed out of order")
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.finish(id)
}

// top returns the innermost open span of the workload goroutine, or -1.
func (t *tracer) top() int {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// rename changes a span's name once its outcome is known.
func (t *tracer) rename(id int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// hook counts one model event in *events and, when an observer's callback
// ran, charges its duration d to span parent, or to the tracer when
// parent is -1.
func (t *tracer) hook(events *int64, parent int, ran bool, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	*events++
	switch {
	case !ran:
	case parent < 0:
		t.looseHookNs += int64(d)
	default:
		t.spans[parent].Hooks++
		t.spans[parent].HookNs += int64(d)
	}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeFile writes every span as one JSON array.
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: its duration minus the union of
// its children's intervals and minus the hook time charged to it. The
// union, not the sum, because children of concurrent callers overlap.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self[i] = s.End - s.Start - unionLen(iv) - s.HookNs
	}
	return self
}

// unionLen returns the total length covered by the intervals; it sorts iv.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// timedHooks wraps h for the traced run: every model event is counted,
// whether or not h observes it, and the callbacks h does install are timed
// and charged to the span parent returns. The models only test a callback
// for nil before calling it, so installing counters changes no result.
func (t *tracer) timedHooks(h core.Hooks, parent func() int) core.Hooks {
	return core.Hooks{
		OnBirth: func(x graph.Handle) {
			t0 := time.Now()
			if h.OnBirth != nil {
				h.OnBirth(x)
			}
			t.hook(&t.births, parent(), h.OnBirth != nil, time.Since(t0))
		},
		OnDeath: func(x graph.Handle) {
			t0 := time.Now()
			if h.OnDeath != nil {
				h.OnDeath(x)
			}
			t.hook(&t.deaths, parent(), h.OnDeath != nil, time.Since(t0))
		},
		OnEdge: func(u, v graph.Handle) {
			t0 := time.Now()
			if h.OnEdge != nil {
				h.OnEdge(u, v)
			}
			t.hook(&t.edges, parent(), h.OnEdge != nil, time.Since(t0))
		},
	}
}

// timedModel is the traced run's view of a core.Model: AdvanceRound runs
// inside a core.advance span and every hook set installed through SetHooks
// is wrapped by timedHooks. Hooks returns the set the caller installed,
// unwrapped, so the save/chain/restore discipline of flood.Run, Traffic
// and Tracker (see core.ChainHooks) never wraps a wrapper.
type timedModel struct {
	core.Model
	tr  *tracer
	raw core.Hooks
}

func newTimedModel(m core.Model, tr *tracer) *timedModel {
	tm := &timedModel{Model: m, tr: tr}
	tm.SetHooks(m.Hooks())
	return tm
}

// EmitsEdgeEvents forwards the edge-event contract of the wrapped model,
// so the incremental engines accept the wrapper.
func (m *timedModel) EmitsEdgeEvents() bool {
	es, ok := m.Model.(core.EdgeEventSource)
	return ok && es.EmitsEdgeEvents()
}

func (m *timedModel) AdvanceRound() {
	id := m.tr.push("core.advance")
	m.Model.AdvanceRound()
	m.tr.pop(id)
}

func (m *timedModel) Hooks() core.Hooks { return m.raw }

func (m *timedModel) SetHooks(h core.Hooks) {
	m.raw = h
	m.Model.SetHooks(m.tr.timedHooks(h, m.tr.top))
}

// requestIDHeader carries the index of the client span that sent a
// request, so the handler span can name it as its parent.
const requestIDHeader = "X-Churnbench-Span"

// timedHandler records a serve.read (GET) or serve.write span around
// every request that carries a request id, parented to that client span.
func (t *tracer) timedHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.Atoi(r.Header.Get(requestIDHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		name := "serve.write"
		if r.Method == http.MethodGet {
			name = "serve.read"
		}
		id := t.start(name, parent)
		h.ServeHTTP(w, r)
		t.finish(id)
	})
}
