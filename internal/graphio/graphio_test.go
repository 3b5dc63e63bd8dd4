package graphio

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/graph"
	"github.com/dyngraph/churnnet/internal/rng"
	"github.com/dyngraph/churnnet/internal/staticgraph"
)

// testMaxNodes is the node cap the tests read edge lists under: above
// every snapshot they write, far below what a hostile header can ask for.
const testMaxNodes = 1 << 20

func TestWriteDOT(t *testing.T) {
	g, _ := staticgraph.Path(3)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, "p3"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`graph "p3" {`, "0 -- 1;", "1 -- 2;", "}"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "2 -- 1") {
		t.Fatal("edge emitted twice")
	}
}

func TestWriteDOTDefaultName(t *testing.T) {
	g, _ := staticgraph.Path(2)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `graph "churnnet"`) {
		t.Fatal("default name missing")
	}
}

func TestWriteDOTMergesParallelEdges(t *testing.T) {
	g := graph.New(2, 2)
	a, b := g.AddNode(0), g.AddNode(1)
	g.AddOutEdge(a, b)
	g.AddOutEdge(a, b)
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, "x"); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "--") != 1 {
		t.Fatalf("parallel edges not merged:\n%s", buf.String())
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g, _ := staticgraph.DOut(50, 3, rng.New(1))
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, hs2, err := ReadEdgeList(&buf, testMaxNodes)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumAlive() != 50 || len(hs2) != 50 {
		t.Fatalf("size %d", g2.NumAlive())
	}
	if g2.NumEdgesLive() != g.NumEdgesLive() {
		t.Fatalf("edges %d != %d", g2.NumEdgesLive(), g.NumEdgesLive())
	}
	if err := g2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeListRoundTripPreservesDegrees(t *testing.T) {
	m := core.NewStreaming(200, 4, true, rng.New(2))
	m.WarmUp()
	g := m.Graph()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, hs2, err := ReadEdgeList(&buf, testMaxNodes)
	if err != nil {
		t.Fatal(err)
	}
	// Degrees sorted by birth order must match exactly.
	orig := make([]int, 0, g.NumAlive())
	hs := g.AliveHandles()
	// birth order == ID order in the export
	for i := 0; i < len(hs); i++ {
		orig = append(orig, 0)
	}
	_, ids := stableIDs(g)
	g.ForEachAlive(func(h graph.Handle) bool {
		orig[ids[h]] = g.DegreeLive(h)
		return true
	})
	for i, h := range hs2 {
		if got := g2.DegreeLive(h); got != orig[i] {
			t.Fatalf("degree mismatch at %d: %d != %d", i, got, orig[i])
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"",                        // missing header
		"e 0 1\n",                 // edge before header
		"a 0 1.5\n",               // age before header
		"n -3\n",                  // bad count
		"n 9999999999\n",          // count beyond the int32 slot budget
		"n 2\nn 2\n",              // duplicate header
		"n 2\ne 0\n",              // malformed edge
		"n 2\ne 0 5\n",            // out of range
		"n 2\ne 1 1\n",            // self loop
		"n 2\nz 1 2\n",            // unknown record
		"n two\n",                 // non-numeric count... caught as malformed
		"n 2\na 0\n",              // malformed age record
		"n 2\na 2 1.5\n",          // age id out of range
		"n 2\na -1 1.5\n",         // negative age id
		"n 2\na 0 x\n",            // non-numeric birth
		"n 2\na 0 1.5\na 0 2.5\n", // duplicate age record
		"n 2\ne 0 1\na 0 1.5\n",   // age after edges
		"n 2\na 0 1.5\nn 2\n",     // duplicate header after ages
	}
	for i, in := range cases {
		if _, _, err := ReadEdgeList(strings.NewReader(in), testMaxNodes); err == nil {
			t.Errorf("case %d (%q): expected error", i, in)
		}
	}
}

// TestReadEdgeListErrorMessages pins the hardened failure modes to clear,
// named errors rather than generic parse failures.
func TestReadEdgeListErrorMessages(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"n 2\na 0 1.5\na 0 2.5\n", "duplicate age record"},
		{"n 2\ne 0 1\na 0 1.5\n", "age record after edges"},
		{"n 9999999999\n", "bad node count"},
		{"n 2\n" + strings.Repeat("x", 17*1024*1024), "scanner budget"},
	}
	for _, c := range cases {
		_, _, err := ReadEdgeList(strings.NewReader(c.in), testMaxNodes)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("input %.40q: error %v, want substring %q", c.in, err, c.want)
		}
	}
}

// TestReadEdgeListCapsHeader pins the node cap: the 13-byte header
// `n 2147483647` fails under a small cap without the reader allocating
// for the nodes it declares, a header at the cap loads, and one node
// more is rejected.
func TestReadEdgeListCapsHeader(t *testing.T) {
	const limit = 4096
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadEdgeList(strings.NewReader("n 2147483647\n"), limit)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "above the cap of 4096") {
		t.Fatalf("n 2147483647 under a cap of %d: error %v", limit, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the header allocated %d bytes", grew)
	}
	if g, hs, err := ReadEdgeList(strings.NewReader("n 4096\n"), limit); err != nil || len(hs) != limit || g.NumAlive() != limit {
		t.Fatalf("n 4096 under a cap of %d: %v", limit, err)
	}
	if _, _, err := ReadEdgeList(strings.NewReader("n 4097\n"), limit); err == nil {
		t.Fatalf("n 4097 under a cap of %d: no error", limit)
	}
}

// TestReadEdgeListLegacyFallback: files from before the age record still
// load, with the documented lossy IDs-as-ages fallback.
func TestReadEdgeListLegacyFallback(t *testing.T) {
	in := "n 3\ne 0 1\ne 1 2\n"
	g, hs, err := ReadEdgeList(strings.NewReader(in), testMaxNodes)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hs {
		if got := g.BirthTime(h); got != float64(i) {
			t.Fatalf("node %d: legacy birth %v, want %v", i, got, float64(i))
		}
	}
	// Partial age records: annotated nodes keep their birth, the rest
	// fall back to the dense ID.
	in = "n 3\na 1 41.5\ne 0 1\n"
	g, hs, err = ReadEdgeList(strings.NewReader(in), testMaxNodes)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0, 41.5, 2} {
		if got := g.BirthTime(hs[i]); got != want {
			t.Fatalf("node %d: birth %v, want %v", i, got, want)
		}
	}
}

// TestEdgeListRoundTripPreservesBirths: the wire format carries model
// birth times bit-for-bit, not the dense ID index (the pre-age-record
// reader silently replaced real ages with IDs).
func TestEdgeListRoundTripPreservesBirths(t *testing.T) {
	m := core.New(core.PDGR, 150, 3, rng.New(7))
	core.WarmUp(m)
	g := m.Graph()
	hs, _ := stableIDs(g)

	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, hs2, err := ReadEdgeList(bytes.NewReader(buf.Bytes()), testMaxNodes)
	if err != nil {
		t.Fatal(err)
	}
	if len(hs2) != len(hs) {
		t.Fatalf("size %d != %d", len(hs2), len(hs))
	}
	for i := range hs {
		want := g.BirthTime(hs[i])
		if got := g2.BirthTime(hs2[i]); got != want {
			t.Fatalf("node %d: birth %v != %v", i, got, want)
		}
	}
	// Birth order must match ID order in the reconstruction.
	for i := 1; i < len(hs2); i++ {
		if !g2.Older(hs2[i-1], hs2[i]) {
			t.Fatalf("reconstructed birth order broken at %d", i)
		}
	}
}

// TestEdgeListRoundTripProperty is the full property test: random model
// snapshots → write → read → births bit-for-bit, edge multiset preserved,
// and a second write byte-identical to the first (which pins out-list
// order); a second read must also agree with the first on in-list
// iteration order, so the reconstruction itself is deterministic.
func TestEdgeListRoundTripProperty(t *testing.T) {
	for _, kind := range core.Kinds() {
		for seed := uint64(1); seed <= 5; seed++ {
			m := core.New(kind, 120, 3, rng.New(seed))
			core.WarmUp(m)
			g := m.Graph()
			hs, ids := stableIDs(g)

			var buf1 bytes.Buffer
			if err := WriteEdgeList(&buf1, g); err != nil {
				t.Fatal(err)
			}
			g2, hs2, err := ReadEdgeList(bytes.NewReader(buf1.Bytes()), testMaxNodes)
			if err != nil {
				t.Fatalf("%v seed %d: %v", kind, seed, err)
			}
			if err := g2.CheckInvariants(); err != nil {
				t.Fatalf("%v seed %d: %v", kind, seed, err)
			}

			// Births bit-for-bit.
			for i := range hs {
				if g2.BirthTime(hs2[i]) != g.BirthTime(hs[i]) {
					t.Fatalf("%v seed %d: birth mismatch at %d", kind, seed, i)
				}
			}

			// Edge multiset (by stable ID pair, duplicates counted).
			edgeKey := func(gg *graph.Graph, handles []graph.Handle, idOf func(graph.Handle) int) map[[2]int]int {
				ms := map[[2]int]int{}
				for _, h := range handles {
					u := idOf(h)
					gg.OutTargets(h, func(v graph.Handle) bool {
						ms[[2]int{u, idOf(v)}]++
						return true
					})
				}
				return ms
			}
			orig := edgeKey(g, hs, func(h graph.Handle) int { return ids[h] })
			pos2 := make(map[graph.Handle]int, len(hs2))
			for i, h := range hs2 {
				pos2[h] = i
			}
			got := edgeKey(g2, hs2, func(h graph.Handle) int { return pos2[h] })
			if len(orig) != len(got) {
				t.Fatalf("%v seed %d: edge multiset size %d != %d", kind, seed, len(got), len(orig))
			}
			for k, c := range orig {
				if got[k] != c {
					t.Fatalf("%v seed %d: edge %v count %d != %d", kind, seed, k, got[k], c)
				}
			}

			// Re-write is byte-identical (out-list order and ages stable).
			var buf2 bytes.Buffer
			if err := WriteEdgeList(&buf2, g2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
				t.Fatalf("%v seed %d: round-tripped file differs from original", kind, seed)
			}

			// A second read agrees with the first on in-list order.
			g3, hs3, err := ReadEdgeList(bytes.NewReader(buf1.Bytes()), testMaxNodes)
			if err != nil {
				t.Fatal(err)
			}
			for i := range hs2 {
				var in2, in3 []int
				g2.InSources(hs2[i], func(s graph.Handle) bool { in2 = append(in2, pos2[s]); return true })
				g3.InSources(hs3[i], func(s graph.Handle) bool {
					for j, h := range hs3 {
						if h == s {
							in3 = append(in3, j)
							break
						}
					}
					return true
				})
				if len(in2) != len(in3) {
					t.Fatalf("%v seed %d: in-list length differs at %d", kind, seed, i)
				}
				for j := range in2 {
					if in2[j] != in3[j] {
						t.Fatalf("%v seed %d: in-list order differs at node %d pos %d", kind, seed, i, j)
					}
				}
			}
		}
	}
}

// TestEdgeListEmptyGraph: a 0-alive snapshot writes a bare header and
// reads back as an empty graph, for both formats.
func TestEdgeListEmptyGraph(t *testing.T) {
	g := graph.New(0, 0)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "n 0\n" {
		t.Fatalf("empty edge list %q", got)
	}
	g2, hs2, err := ReadEdgeList(&buf, testMaxNodes)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumAlive() != 0 || len(hs2) != 0 {
		t.Fatalf("empty read: %d alive", g2.NumAlive())
	}
	var dot bytes.Buffer
	if err := WriteDOT(&dot, g, "empty"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dot.String(), "graph \"empty\" {") || !strings.Contains(dot.String(), "}") {
		t.Fatalf("empty DOT %q", dot.String())
	}
}

// TestEdgeListDeadSlotHoles: killed nodes leave arena holes; the export
// must skip them and stay dense, and ages must survive the trip.
func TestEdgeListDeadSlotHoles(t *testing.T) {
	g := graph.New(8, 0)
	var hs []graph.Handle
	for i := 0; i < 6; i++ {
		hs = append(hs, g.AddNode(float64(i)*1.25))
	}
	g.AddOutEdge(hs[0], hs[1])
	g.AddOutEdge(hs[2], hs[3])
	g.AddOutEdge(hs[4], hs[5])
	g.RemoveNode(hs[1], nil)
	g.RemoveNode(hs[4], nil)
	reborn := g.AddNode(99.5) // reuses a dead slot, youngest node
	g.AddOutEdge(reborn, hs[0])

	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, hs2, err := ReadEdgeList(&buf, testMaxNodes)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumAlive() != 5 || len(hs2) != 5 {
		t.Fatalf("alive %d", g2.NumAlive())
	}
	wantBirths := []float64{0, 2.5, 3.75, 6.25, 99.5} // birth order of survivors
	for i, want := range wantBirths {
		if got := g2.BirthTime(hs2[i]); got != want {
			t.Fatalf("node %d: birth %v, want %v", i, got, want)
		}
	}
	// hs[0]→hs[1] and hs[4]→hs[5] died with their endpoints; 2 live edges.
	if g2.NumEdgesLive() != 2 {
		t.Fatalf("edges %d", g2.NumEdgesLive())
	}
}

func TestReadEdgeListSkipsCommentsAndBlanks(t *testing.T) {
	in := "# snapshot\n\nn 3\n# edges\ne 0 1\n\ne 1 2\n"
	g, _, err := ReadEdgeList(strings.NewReader(in), testMaxNodes)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumAlive() != 3 || g.NumEdgesLive() != 2 {
		t.Fatalf("parsed %d nodes %d edges", g.NumAlive(), g.NumEdgesLive())
	}
}

func TestStableIDsAreBirthOrdered(t *testing.T) {
	g := graph.New(4, 0)
	a := g.AddNode(0)
	b := g.AddNode(1)
	g.RemoveNode(a, nil)
	c := g.AddNode(2) // reuses a's slot but is younger than b
	hs, ids := stableIDs(g)
	if len(hs) != 2 {
		t.Fatalf("%v", hs)
	}
	if ids[b] != 0 || ids[c] != 1 {
		t.Fatalf("ids %v", ids)
	}
}
