// Package driver exercises a live churnd daemon end to end over its
// public control plane — pure HTTP/JSON plus the optional UDP probe
// path, no access to server internals — and asserts the protocol
// contract: a grow/shrink/crash/broadcast scenario must converge
// (every alive node informed), and unknown or departed nodes must
// answer as well-formed JSON errors, never panics or empty bodies.
//
// It is the churnd-smoke CI job's payload (cmd/churnd -drive) and the
// serve package's own scenario test.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"time"

	"github.com/dyngraph/churnnet/internal/graphio"
)

// Options tunes the scenario.
type Options struct {
	// Joins is how many nodes the grow phase admits (default 32).
	Joins int
	// Departures is how many of the joined nodes the shrink phase
	// removes — half gracefully, half by crash (default Joins/4).
	Departures int
	// MaxRounds bounds each broadcast's step-and-poll loop (default 400).
	MaxRounds int
	// UDPAddr, when non-empty, also exercises the UDP probe fast path.
	UDPAddr string
	// Client overrides the HTTP client (default: 10s timeout).
	Client *http.Client
	// Logf, when set, receives progress lines (e.g. t.Logf, log.Printf).
	Logf func(format string, args ...any)
}

// Report summarizes a successful run.
type Report struct {
	Joined     int
	Left       int
	Crashed    int
	Broadcasts int
	// Rounds lists each broadcast's rounds to completion.
	Rounds []int
	// AliveInitial and AliveFinal are the populations before and after
	// the scenario, per /healthz. The live model has no autonomous
	// churn, so AliveFinal must equal AliveInitial + Joined - Left -
	// Crashed; Run checks that.
	AliveInitial int
	AliveFinal   int
	// SnapshotNodes is the alive count parsed back from /snapshot.
	SnapshotNodes int
}

type client struct {
	base string
	http *http.Client
	logf func(string, ...any)
}

// Run executes the scenario against the daemon at baseURL (e.g.
// "http://127.0.0.1:8080"). It returns on the first contract violation
// with an error naming the endpoint and the violated expectation.
func Run(baseURL string, opts Options) (Report, error) {
	if opts.Joins <= 0 {
		opts.Joins = 32
	}
	if opts.Departures <= 0 {
		opts.Departures = opts.Joins / 4
	}
	if opts.Departures > opts.Joins {
		opts.Departures = opts.Joins
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = 400
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 10 * time.Second}
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := &client{base: strings.TrimRight(baseURL, "/"), http: opts.Client, logf: logf}
	var rep Report

	// Phase 0: the daemon is up.
	var health struct {
		OK    bool `json:"ok"`
		Alive int  `json:"alive"`
	}
	if err := c.getJSON("/healthz", 200, &health); err != nil {
		return rep, err
	}
	if !health.OK {
		return rep, fmt.Errorf("/healthz: daemon reports not ok")
	}
	rep.AliveInitial = health.Alive
	logf("driver: healthz ok, alive=%d", health.Alive)

	// Phase 1: grow.
	var joined struct {
		IDs []uint64 `json:"ids"`
	}
	if err := c.postJSON("/join", map[string]any{"count": opts.Joins}, 200, &joined); err != nil {
		return rep, err
	}
	if len(joined.IDs) != opts.Joins {
		return rep, fmt.Errorf("/join: asked for %d nodes, got %d ids", opts.Joins, len(joined.IDs))
	}
	rep.Joined = len(joined.IDs)
	logf("driver: joined %d nodes (ids %d..%d)", rep.Joined, joined.IDs[0], joined.IDs[len(joined.IDs)-1])

	// New nodes must be immediately queryable.
	last := joined.IDs[len(joined.IDs)-1]
	var info struct {
		ID    uint64  `json:"id"`
		Alive bool    `json:"alive"`
		Age   float64 `json:"age"`
	}
	if err := c.getJSON(fmt.Sprintf("/node-info/%d", last), 200, &info); err != nil {
		return rep, err
	}
	if !info.Alive || info.ID != last || info.Age < 0 {
		return rep, fmt.Errorf("/node-info/%d: want alive node with non-negative age, got %+v", last, info)
	}

	// Phase 2: broadcast from the last joined node and converge.
	rounds, err := c.broadcastAndConverge(opts.MaxRounds)
	if err != nil {
		return rep, err
	}
	rep.Broadcasts++
	rep.Rounds = append(rep.Rounds, rounds)
	logf("driver: broadcast 0 completed in %d rounds", rounds)

	// Phase 3: error shapes. Unknown and departed nodes are well-formed
	// JSON errors with the documented codes — not panics, not 500s.
	if err := c.expectErr("GET", "/node-info/18446744073709551615", nil, 404); err != nil {
		return rep, err
	}
	if err := c.expectErr("POST", "/leave", map[string]any{"id": uint64(1) << 62}, 404); err != nil {
		return rep, err
	}
	if err := c.expectErr("GET", "/status/999999999", nil, 404); err != nil {
		return rep, err
	}
	if err := c.expectErr("POST", "/leave", nil, 400); err != nil { // missing id
		return rep, err
	}

	// Phase 4: shrink — half graceful leaves, half crashes, then the
	// departed must answer 410 everywhere (and double-leave too).
	leaves := opts.Departures / 2
	crashes := opts.Departures - leaves
	for i := 0; i < leaves; i++ {
		if err := c.postJSON("/leave", map[string]any{"id": joined.IDs[i]}, 200, nil); err != nil {
			return rep, err
		}
		rep.Left++
	}
	for i := leaves; i < leaves+crashes; i++ {
		if err := c.postJSON("/sim-crash", map[string]any{"id": joined.IDs[i]}, 200, nil); err != nil {
			return rep, err
		}
		rep.Crashed++
	}
	logf("driver: departed %d nodes (%d left, %d crashed)", rep.Left+rep.Crashed, rep.Left, rep.Crashed)
	if opts.Departures > 0 {
		gone := joined.IDs[0]
		if err := c.expectErr("GET", fmt.Sprintf("/node-info/%d", gone), nil, 410); err != nil {
			return rep, err
		}
		if err := c.expectErr("POST", "/leave", map[string]any{"id": gone}, 410); err != nil {
			return rep, err
		}
		if err := c.expectErr("POST", "/inject", map[string]any{"source": gone}, 410); err != nil {
			return rep, err
		}
	}

	// Phase 5: a second broadcast after churn must still converge.
	rounds, err = c.broadcastAndConverge(opts.MaxRounds)
	if err != nil {
		return rep, err
	}
	rep.Broadcasts++
	rep.Rounds = append(rep.Rounds, rounds)
	logf("driver: broadcast 1 completed in %d rounds", rounds)

	// Phase 6: the read-only surfaces stay well-formed.
	var exp struct {
		Observations []struct {
			N   int     `json:"n"`
			Min float64 `json:"min"`
		} `json:"observations"`
	}
	if err := c.getJSON("/expansion", 200, &exp); err != nil {
		return rep, err
	}
	if err := c.getJSON("/healthz", 200, &health); err != nil {
		return rep, err
	}
	rep.AliveFinal = health.Alive
	if want := rep.AliveInitial + rep.Joined - rep.Left - rep.Crashed; rep.AliveFinal != want {
		return rep, fmt.Errorf("/healthz: %d alive after the scenario, want %d (started %d, +%d joined, -%d departed)",
			rep.AliveFinal, want, rep.AliveInitial, rep.Joined, rep.Left+rep.Crashed)
	}

	snap, err := c.getRaw("/snapshot")
	if err != nil {
		return rep, err
	}
	// The snapshot holds exactly the alive nodes /healthz reported, so a
	// header declaring more is an error, caught before the reader
	// allocates for it.
	g, _, err := graphio.ReadEdgeList(bytes.NewReader(snap), rep.AliveFinal)
	if err != nil {
		return rep, fmt.Errorf("/snapshot: edge list does not parse back: %w", err)
	}
	rep.SnapshotNodes = g.NumAlive()
	if rep.SnapshotNodes != rep.AliveFinal {
		return rep, fmt.Errorf("/snapshot: parsed %d alive nodes, /healthz says %d", rep.SnapshotNodes, rep.AliveFinal)
	}
	logf("driver: snapshot round-trips %d nodes", rep.SnapshotNodes)

	// Phase 7: UDP probe fast path (optional).
	if opts.UDPAddr != "" {
		if err := probeUDP(opts.UDPAddr, last); err != nil {
			return rep, err
		}
		logf("driver: udp probes ok")
	}
	return rep, nil
}

// broadcastAndConverge injects from the most recently joined node, then
// steps and polls until the message completes with every alive node
// informed.
func (c *client) broadcastAndConverge(maxRounds int) (int, error) {
	var inj struct {
		Msg int `json:"msg"`
	}
	if err := c.postJSON("/inject", nil, 200, &inj); err != nil {
		return 0, err
	}
	statusPath := fmt.Sprintf("/status/%d", inj.Msg)
	for r := 0; r < maxRounds; r++ {
		if err := c.postJSON("/step", nil, 200, nil); err != nil {
			return 0, err
		}
		var st struct {
			Status        string `json:"status"`
			Rounds        int    `json:"rounds"`
			InformedAlive int    `json:"informed_alive"`
			Alive         int    `json:"alive"`
			Completed     bool   `json:"completed"`
			DiedOut       bool   `json:"died_out"`
		}
		if err := c.getJSON(statusPath, 200, &st); err != nil {
			return 0, err
		}
		if st.Status == "in-flight" {
			continue
		}
		if !st.Completed {
			return 0, fmt.Errorf("%s: message finished without completing (died_out=%v, informed %d/%d after %d rounds)",
				statusPath, st.DiedOut, st.InformedAlive, st.Alive, st.Rounds)
		}
		if st.InformedAlive != st.Alive {
			return 0, fmt.Errorf("%s: completed but informed %d of %d alive nodes", statusPath, st.InformedAlive, st.Alive)
		}
		return st.Rounds, nil
	}
	return 0, fmt.Errorf("%s: no convergence within %d rounds", statusPath, maxRounds)
}

// probeUDP checks the fast path: ping, a liveness probe on id, and an
// informed probe against message 0 (completed by now, so the informed
// bit is legitimately 0 — the check is that the reply parses).
func probeUDP(addr string, id uint64) error {
	conn, err := net.Dial("udp", addr)
	if err != nil {
		return fmt.Errorf("udp %s: %w", addr, err)
	}
	defer conn.Close()
	ask := func(req, wantPrefix string) error {
		if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			return err
		}
		if _, err := conn.Write([]byte(req)); err != nil {
			return fmt.Errorf("udp %q: %w", req, err)
		}
		buf := make([]byte, 512)
		n, err := conn.Read(buf)
		if err != nil {
			return fmt.Errorf("udp %q: %w", req, err)
		}
		resp := string(buf[:n])
		if !strings.HasPrefix(resp, wantPrefix) {
			return fmt.Errorf("udp %q: got %q, want prefix %q", req, resp, wantPrefix)
		}
		return nil
	}
	if err := ask("ping", "ok v="); err != nil {
		return err
	}
	if err := ask(fmt.Sprintf("probe %d", id), "ok alive=1"); err != nil {
		return err
	}
	if err := ask(fmt.Sprintf("probe %d 0", id), "ok alive=1 informed="); err != nil {
		return err
	}
	if err := ask("probe notanumber", "err "); err != nil {
		return err
	}
	return nil
}

// --- HTTP plumbing ---

func (c *client) do(method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	return c.http.Do(req)
}

func (c *client) getJSON(path string, wantStatus int, out any) error {
	return c.roundTrip("GET", path, nil, wantStatus, out)
}

func (c *client) postJSON(path string, body any, wantStatus int, out any) error {
	return c.roundTrip("POST", path, body, wantStatus, out)
}

func (c *client) roundTrip(method, path string, body any, wantStatus int, out any) error {
	resp, err := c.do(method, path, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, wantStatus, firstLine(raw))
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("%s %s: bad JSON: %w (%s)", method, path, err, firstLine(raw))
		}
	}
	return nil
}

// expectErr asserts that the request fails with the given status AND a
// well-formed JSON error envelope carrying a non-empty message.
func (c *client) expectErr(method, path string, body any, wantStatus int) error {
	resp, err := c.do(method, path, body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("%s %s: status %d (want error %d): %s", method, path, resp.StatusCode, wantStatus, firstLine(raw))
	}
	var envelope struct {
		Status int    `json:"status"`
		Error  string `json:"error"`
	}
	if err := json.Unmarshal(raw, &envelope); err != nil {
		return fmt.Errorf("%s %s: error body is not the JSON envelope: %w (%s)", method, path, err, firstLine(raw))
	}
	if envelope.Status != wantStatus || envelope.Error == "" {
		return fmt.Errorf("%s %s: malformed error envelope %+v (want status %d and a message)", method, path, envelope, wantStatus)
	}
	return nil
}

func (c *client) getRaw(path string) ([]byte, error) {
	resp, err := c.do("GET", path, nil)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return nil, fmt.Errorf("GET %s: reading body: %w", path, err)
	}
	if resp.StatusCode != 200 {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, firstLine(raw))
	}
	return raw, nil
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200] + "..."
	}
	return s
}
