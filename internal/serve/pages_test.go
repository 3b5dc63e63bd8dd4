package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/flood"
	"github.com/dyngraph/churnnet/internal/rng"
)

// snapshotAnswers renders every answer snap gives, one past the issued
// IDs included: NodeInfo for every node ID, Probe for every node ID with
// no message and with every message ID, and MsgStatus for every message
// ID.
func snapshotAnswers(snap *Snapshot) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	nodes, msgs := uint64(snap.NumNodes()), snap.NumMsgs()
	for id := uint64(0); id <= nodes; id++ {
		info, err := snap.NodeInfo(id)
		_ = enc.Encode(info)
		_ = enc.Encode(err)
		for m := -1; m <= msgs; m++ {
			alive, informed, err := snap.Probe(id, m)
			fmt.Fprintf(&b, "probe %d %d: %v %v %v\n", id, m, alive, informed, err)
		}
	}
	for id := uint64(0); id <= uint64(msgs); id++ {
		mv, err := snap.MsgStatus(id)
		_ = enc.Encode(mv)
		_ = enc.Encode(err)
	}
	return b.Bytes()
}

// heldSnapshot is a snapshot with the answers it gave when it was taken.
type heldSnapshot struct {
	snap    *Snapshot
	answers []byte
}

func hold(snap *Snapshot) heldSnapshot {
	return heldSnapshot{snap: snap, answers: snapshotAnswers(snap)}
}

// changed reports the first line where the snapshot's answers now differ
// from the ones recorded when it was held, or "" when they are identical.
func (h heldSnapshot) changed() string {
	now := snapshotAnswers(h.snap)
	if bytes.Equal(now, h.answers) {
		return ""
	}
	was, is := strings.Split(string(h.answers), "\n"), strings.Split(string(now), "\n")
	for i := range min(len(was), len(is)) {
		if was[i] != is[i] {
			return fmt.Sprintf("version %d line %d: was %q, now %q", h.snap.Version, i, was[i], is[i])
		}
	}
	return fmt.Sprintf("version %d: %d answer lines, now %d", h.snap.Version, len(was), len(is))
}

// TestServerOldSnapshotsStayFrozen guards the copy-on-write pages: a
// snapshot shares node pages, message pages and view pages with the
// versions after it, so every snapshot held along a run of more than 200
// versions of join, leave, crash, inject (across the 64-lane seam) and
// step must still give byte-identical NodeInfo, Probe and MsgStatus
// answers at the end, while reader goroutines query the current and the
// held snapshots throughout. The negative control writes into a node page
// the previous snapshot shares, bypassing the copy, and the check must
// catch it.
func TestServerOldSnapshotsStayFrozen(t *testing.T) {
	s := newTestServer(t, Config{Kind: core.SDGR, N: 300, D: 3, Seed: 17, MaxRounds: 30})
	r := rng.New(23)

	var mu sync.Mutex
	held := []heldSnapshot{hold(s.Current())}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := s.Current()
				id := uint64(i*7+w) % uint64(snap.NumNodes()+1)
				_, _ = snap.NodeInfo(id)
				_, _, _ = snap.Probe(id, i%(snap.NumMsgs()+1))
				_, _ = snap.MsgStatus(uint64(i % (snap.NumMsgs() + 1)))
				mu.Lock()
				old := held[i%len(held)].snap
				mu.Unlock()
				_, _ = old.NodeInfo(id)
			}
		}(w)
	}

	alive := make([]uint64, 0, 400)
	for id := uint64(0); id < uint64(s.Current().NumNodes()); id++ {
		alive = append(alive, id)
	}
	injected := 0
	for op := 0; op < 260; op++ {
		var err *APIError
		switch k := r.Intn(10); {
		case k < 3 && injected < 70:
			_, _, err = s.Inject(alive[r.Intn(len(alive))], true)
			injected++
		case k < 5:
			var ids []uint64
			ids, _, err = s.Join(1 + r.Intn(3))
			alive = append(alive, ids...)
		case k < 8 && len(alive) > 50:
			i := r.Intn(len(alive))
			if k == 7 {
				_, err = s.Crash(alive[i])
			} else {
				_, err = s.Leave(alive[i])
			}
			alive[i] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
		default:
			_, err = s.StepRounds(1)
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if op%20 == 0 {
			h := hold(s.Current())
			mu.Lock()
			held = append(held, h)
			mu.Unlock()
		}
	}
	close(stop)
	readers.Wait()

	last := s.Current()
	if last.Version < 200 || injected <= 64 {
		t.Fatalf("drove %d versions and %d messages, want >= 200 and > 64", last.Version, injected)
	}
	for _, h := range held {
		if d := h.changed(); d != "" {
			t.Fatalf("an old snapshot changed: %s", d)
		}
	}

	// Negative control: a write into a node page that the latest snapshot
	// shares, made without the copy, must show in the check.
	h := hold(s.Current())
	if aerr := s.Audit(func(*LiveModel, *flood.Traffic, *Snapshot) {
		id := int(alive[0])
		s.nodes.pages[id/pageLen][id%pageLen].state = nodeCrashed
	}); aerr != nil {
		t.Fatalf("audit: %v", aerr)
	}
	if h.changed() == "" {
		t.Fatal("negative control: a write into a shared node page went unnoticed")
	}
}

// TestServerPublishCopiesOnlyDirtyPages pins the publish at O(dirty): at
// n = 10^6 with the set-up broadcast finished (no message in flight), a
// publish after one Join, Leave or Crash copies no view page, no message
// page and at most two node pages (the write's own page is copied once, so
// at least one).
func TestServerPublishCopiesOnlyDirtyPages(t *testing.T) {
	s := newTestServer(t, Config{Kind: core.SDGR, N: 1_000_000, D: 2, Seed: 3})
	msg, _, err := s.Inject(0, false)
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	for {
		mv, merr := s.Current().MsgStatus(uint64(msg))
		if merr != nil {
			t.Fatalf("status: %v", merr)
		}
		if mv.Status != flood.MessageInFlight.String() {
			break
		}
		if _, err := s.StepRounds(1); err != nil {
			t.Fatalf("step: %v", err)
		}
	}

	type copies struct{ view, nodes, msgs int }
	count := func() copies {
		var c copies
		if aerr := s.Audit(func(_ *LiveModel, plane *flood.Traffic, _ *Snapshot) {
			c = copies{plane.MemStats().ViewPagesCopied, s.nodes.copied, s.msgs.copied}
		}); aerr != nil {
			t.Fatalf("audit: %v", aerr)
		}
		return c
	}
	check := func(what string, write func() *APIError) {
		before := count()
		if err := write(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		after := count()
		if n := after.nodes - before.nodes; after.view != before.view || after.msgs != before.msgs || n < 1 || n > 2 {
			t.Fatalf("%s: publish copied %d view, %d message and %d node pages; want 0, 0 and 1 or 2",
				what, after.view-before.view, after.msgs-before.msgs, after.nodes-before.nodes)
		}
	}
	check("join", func() *APIError { _, _, err := s.Join(1); return err })
	check("leave", func() *APIError { _, err := s.Leave(500_000); return err })
	check("crash", func() *APIError { _, err := s.Crash(7); return err })
}

// TestServerProbeDoneMessage pins the UDP answer for a finished message:
// the node is alive, the message is known, and its per-node membership is
// no longer tracked, so the probe answers informed=0 without an error.
func TestServerProbeDoneMessage(t *testing.T) {
	s := newTestServer(t, Config{Kind: core.SDGR, N: 60, D: 3, Seed: 8})
	msg, _, err := s.Inject(0, true)
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	for {
		mv, merr := s.Current().MsgStatus(uint64(msg))
		if merr != nil {
			t.Fatalf("status: %v", merr)
		}
		if mv.Status == flood.MessageDone.String() {
			if mv.Version != s.Current().Version {
				t.Fatalf("done message read at version %d, snapshot is %d", mv.Version, s.Current().Version)
			}
			break
		}
		if _, err := s.StepRounds(1); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	want := fmt.Sprintf("ok alive=1 informed=0 v=%d", s.Current().Version)
	if got := s.answerProbe(fmt.Sprintf("probe 0 %d", msg)); got != want {
		t.Fatalf("probe of a done message: %q, want %q", got, want)
	}
}
