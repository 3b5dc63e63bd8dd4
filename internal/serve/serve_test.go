package serve

import (
	"bytes"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/flood"
	"github.com/dyngraph/churnnet/internal/serve/driver"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	s.Start()
	t.Cleanup(s.Stop)
	return s
}

// TestServerScenario runs the full driver harness — the same payload the
// churnd-smoke CI job runs against a live daemon — over httptest and a
// loopback UDP socket.
func TestServerScenario(t *testing.T) {
	s := newTestServer(t, Config{Kind: core.PDGR, N: 300, D: 3, Seed: 11, ObserveEvery: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	conn, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("udp listen: %v", err)
	}
	defer conn.Close()
	go func() { _ = s.ServeUDP(conn) }()

	rep, err := driver.Run(ts.URL, driver.Options{
		Joins:      24,
		Departures: 8,
		UDPAddr:    conn.LocalAddr().String(),
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatalf("driver: %v", err)
	}
	if rep.Broadcasts != 2 || rep.Joined != 24 || rep.Left+rep.Crashed != 8 {
		t.Fatalf("unexpected report %+v", rep)
	}
	if rep.AliveFinal != rep.AliveInitial+24-8 {
		t.Fatalf("final alive %d, want %d", rep.AliveFinal, rep.AliveInitial+24-8)
	}
	// The scenario ran the tracker past observation ticks; /expansion
	// must have recorded some.
	if len(s.Current().Expansion()) == 0 {
		t.Fatalf("no expansion observations recorded")
	}
}

// TestServerConsistencyAudit is the audit the bench rows run: a freshly
// published snapshot must agree with a direct model query at the same
// version — alive counts, per-node liveness and births, per-message
// status and informed membership.
func TestServerConsistencyAudit(t *testing.T) {
	s := newTestServer(t, Config{Kind: core.SDGR, N: 200, D: 2, Seed: 5})

	ids, _, aerr := s.Join(20)
	if aerr != nil {
		t.Fatalf("join: %v", aerr)
	}
	if _, _, aerr = s.Inject(0, false); aerr != nil {
		t.Fatalf("inject: %v", aerr)
	}
	if _, aerr = s.StepRounds(3); aerr != nil {
		t.Fatalf("step: %v", aerr)
	}
	for _, id := range ids[:5] {
		if _, aerr = s.Leave(id); aerr != nil {
			t.Fatalf("leave %d: %v", id, aerr)
		}
	}
	if _, aerr = s.Crash(ids[5]); aerr != nil {
		t.Fatalf("crash: %v", aerr)
	}
	if _, aerr = s.StepRounds(2); aerr != nil {
		t.Fatalf("step: %v", aerr)
	}

	aerr = s.Audit(func(m *LiveModel, plane *flood.Traffic, snap *Snapshot) {
		if err := VerifySnapshot(m, plane, snap); err != nil {
			t.Errorf("VerifySnapshot: %v", err)
		}
		if snap.Alive != m.Graph().NumAlive() {
			t.Errorf("snapshot alive %d != model %d", snap.Alive, m.Graph().NumAlive())
		}
		if snap.Steps != plane.Steps() {
			t.Errorf("snapshot steps %d != plane %d", snap.Steps, plane.Steps())
		}
		aliveInSnap := 0
		for id := range snap.nodes {
			rec := snap.nodes[id]
			if rec.state == nodeAlive {
				aliveInSnap++
				if !m.Graph().IsAlive(rec.h) {
					t.Errorf("node %d alive in snapshot, dead in model", id)
				}
				if got := m.Graph().BirthTime(rec.h); got != rec.birth {
					t.Errorf("node %d birth %g in snapshot, %g in model", id, rec.birth, got)
				}
				for _, mid := range snap.view.InFlight() {
					want := plane.Informed(mid, rec.h)
					if got := snap.view.Informed(mid, rec.h); got != want {
						t.Errorf("node %d msg %d informed: snapshot %v, plane %v", id, mid, got, want)
					}
				}
			} else if m.Graph().IsAlive(rec.h) {
				t.Errorf("node %d departed in snapshot, alive in model", id)
			}
		}
		if aliveInSnap != snap.Alive {
			t.Errorf("snapshot per-node alive %d != snapshot total %d", aliveInSnap, snap.Alive)
		}
		for i := 0; i < snap.NumMsgs(); i++ {
			mv, _ := snap.MsgStatus(i)
			mid := flood.MessageID(i)
			if mv.Status != plane.Status(mid).String() {
				t.Errorf("msg %d status %q != plane %q", i, mv.Status, plane.Status(mid))
			}
			if mv.InformedAlive != plane.InformedAlive(mid) {
				t.Errorf("msg %d informed %d != plane %d", i, mv.InformedAlive, plane.InformedAlive(mid))
			}
		}
	})
	if aerr != nil {
		t.Fatalf("audit: %v", aerr)
	}
}

// TestServerErrorShapes pins the mutation error contract: unknown IDs are
// 404, departed nodes 410 with leave/crash distinguished, and the empty
// network has no default broadcast source.
func TestServerErrorShapes(t *testing.T) {
	s := newTestServer(t, Config{Kind: core.SDG, N: 0, D: 2, Seed: 3})

	if _, _, err := s.Inject(0, false); err == nil || err.Status != 409 {
		t.Fatalf("inject on empty network: %v, want 409", err)
	}
	if _, err := s.Leave(7); err == nil || err.Status != 404 {
		t.Fatalf("leave unknown: %v, want 404", err)
	}
	ids, _, err := s.Join(2)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	if _, err := s.Leave(ids[0]); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if _, err := s.Leave(ids[0]); err == nil || err.Status != 410 {
		t.Fatalf("double leave: %v, want 410", err)
	}
	if _, err := s.Crash(ids[1]); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if _, err := s.Crash(ids[1]); err == nil || err.Status != 410 {
		t.Fatalf("double crash: %v, want 410", err)
	}
	// Every node is gone again: inject falls back to 409, not a panic.
	if _, _, err := s.Inject(0, false); err == nil || err.Status != 409 {
		t.Fatalf("inject on emptied network: %v, want 409", err)
	}
}

// TestServerSingleNodeBroadcast: a network of one node completes its own
// broadcast.
func TestServerSingleNodeBroadcast(t *testing.T) {
	s := newTestServer(t, Config{Kind: core.SDGR, N: 0, D: 2, Seed: 9})
	if _, _, err := s.Join(1); err != nil {
		t.Fatalf("join: %v", err)
	}
	msg, _, err := s.Inject(0, false)
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	if _, err := s.StepRounds(2); err != nil {
		t.Fatalf("step: %v", err)
	}
	mv, merr := s.Current().MsgStatus(int(msg))
	if merr != nil {
		t.Fatalf("status: %v", merr)
	}
	if !mv.Completed || mv.InformedAlive != 1 {
		t.Fatalf("single-node broadcast did not complete: %+v", mv)
	}
}

// TestServerBackpressure: a full command queue answers 429 immediately
// and a stalled writer 503 — never blocking the caller indefinitely.
func TestServerBackpressure(t *testing.T) {
	s := New(Config{Kind: core.SDG, N: 10, D: 2, Seed: 1,
		QueueDepth: 1, ReplyTimeout: 50 * time.Millisecond})
	// The writer is intentionally not started: the first command fills
	// the queue and times out; the second finds the queue full.
	done := make(chan *APIError, 1)
	go func() {
		_, _, err := s.Join(1)
		done <- err
	}()
	// Wait until the first command occupies the queue, then overflow it.
	for i := 0; i < 1000 && s.QueueLen() == 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := s.Join(1); err == nil || err.Status != 429 {
		t.Fatalf("overflow join: %v, want 429", err)
	}
	if err := <-done; err == nil || err.Status != 503 {
		t.Fatalf("stalled join: %v, want 503 timeout", err)
	}
	s.Start()
	s.Stop()
	// A stopped server refuses immediately.
	if _, _, err := s.Join(1); err == nil || err.Status != 503 {
		t.Fatalf("join after stop: %v, want 503", err)
	}
}

// TestServerDeterministicDump: two servers fed the identical command
// sequence serve bit-identical snapshots (the serve determinism
// contract: state is a pure function of seed and command order).
func TestServerDeterministicDump(t *testing.T) {
	run := func() []byte {
		s := newTestServer(t, Config{Kind: core.PDGR, N: 150, D: 3, Seed: 77})
		ids, _, err := s.Join(10)
		if err != nil {
			t.Fatalf("join: %v", err)
		}
		if _, _, err := s.Inject(ids[3], true); err != nil {
			t.Fatalf("inject: %v", err)
		}
		if _, err := s.StepRounds(4); err != nil {
			t.Fatalf("step: %v", err)
		}
		for _, id := range ids[:4] {
			if _, err := s.Leave(id); err != nil {
				t.Fatalf("leave: %v", err)
			}
		}
		if _, err := s.StepRounds(2); err != nil {
			t.Fatalf("step: %v", err)
		}
		buf, err := s.Dump()
		if err != nil {
			t.Fatalf("dump: %v", err)
		}
		// Strip the leading comment: it carries the snapshot version,
		// which depends on publish timing, not on served state.
		if i := bytes.IndexByte(buf, '\n'); i >= 0 && buf[0] == '#' {
			buf = buf[i+1:]
		}
		return buf
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same command sequence served different networks (%d vs %d bytes)", len(a), len(b))
	}
}

// TestServerNodeInfoInformedBits: /node-info reports per-message informed
// bits that match the plane.
func TestServerNodeInfoInformedBits(t *testing.T) {
	s := newTestServer(t, Config{Kind: core.SDGR, N: 100, D: 2, Seed: 21})
	msg, _, err := s.Inject(0, true)
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	if _, err := s.StepRounds(2); err != nil {
		t.Fatalf("step: %v", err)
	}
	info, ierr := s.Current().NodeInfo(0)
	if ierr != nil {
		t.Fatalf("node-info: %v", ierr)
	}
	found := false
	for _, mi := range info.Informed {
		if mi.Msg == int(msg) {
			found = true
			if !mi.Informed {
				t.Fatalf("source reports uninformed of its own message")
			}
		}
	}
	if !found {
		t.Fatalf("in-flight message %d missing from node-info informed list: %+v", msg, info)
	}
}

// TestServerHTTPMisuse: protocol misuse fails with 400/405 JSON
// envelopes, and unknown paths 404 — the daemon must not panic on any of
// them.
func TestServerHTTPMisuse(t *testing.T) {
	s := newTestServer(t, Config{Kind: core.SDG, N: 20, D: 2, Seed: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/join", `{"count": -1}`, 400},
		{"POST", "/join", `{"bogus": true}`, 400},
		{"POST", "/join", `not json`, 400},
		{"POST", "/leave", `{}`, 400},
		{"GET", "/node-info/notanumber", "", 400},
		{"GET", "/status/-3", "", 400},
		{"GET", "/join", "", 405},
		{"POST", "/healthz", "", 405},
		{"GET", "/nosuch", "", 404},
	}
	for _, tc := range cases {
		var body *bytes.Reader
		if tc.body != "" {
			body = bytes.NewReader([]byte(tc.body))
		} else {
			body = bytes.NewReader(nil)
		}
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, body)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s (body %q): status %d, want %d", tc.method, tc.path, tc.body, resp.StatusCode, tc.want)
		}
	}
}

// TestServerTick: a positive tick advances the network autonomously.
func TestServerTick(t *testing.T) {
	s := newTestServer(t, Config{Kind: core.SDGR, N: 50, D: 2, Seed: 4,
		Tick: time.Millisecond, MinPublishInterval: 0})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Current().Steps >= 3 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("tick mode executed %d steps in 5s, want >= 3", s.Current().Steps)
}

// TestServerRateLimitedPublishCatchesUp: under a positive
// MinPublishInterval, a mutation that lands inside the interval and is
// followed by no further command must still be published once the
// interval runs out — the snapshot is bounded-stale, never stuck.
func TestServerRateLimitedPublishCatchesUp(t *testing.T) {
	const interval = 50 * time.Millisecond
	s := newTestServer(t, Config{Kind: core.SDGR, N: 50, D: 2, Seed: 6,
		MinPublishInterval: interval})
	msg, _, err := s.Inject(0, false)
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	deadline := time.Now().Add(5 * interval)
	for time.Now().Before(deadline) {
		if _, merr := s.Current().MsgStatus(int(msg)); merr == nil {
			return
		}
		time.Sleep(interval / 10)
	}
	t.Fatalf("message %d not published within %v of a rate-limited inject", msg, 5*interval)
}
