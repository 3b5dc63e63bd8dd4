// Package graphio serializes graph snapshots: Graphviz DOT for
// visualization, and a plain edge-list format that round-trips through
// ReadEdgeList so that interesting snapshots (a witness set's
// neighborhood, a stalled broadcast's topology) can be saved and reloaded.
//
// The edge-list format is line-oriented:
//
//	n <aliveCount>       exactly one, before any other record
//	a <id> <birth>       optional, one per node, before the first edge
//	e <src> <dst>        one per live request edge, parallel edges kept
//
// IDs are dense and birth-ordered (0 = oldest). The `a` records carry each
// node's model birth time so age-dependent consumers (age-ordered witness
// seeding, demographic analysis) survive a write→read round trip
// bit-for-bit; WriteEdgeList always emits them. Files written before the
// record existed still load: nodes missing an `a` record fall back to
// their dense ID as the birth time, which preserves the birth *order* but
// is lossy — real ages are gone, and consumers see the index scale
// instead of the model clock.
package graphio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/dyngraph/churnnet/internal/graph"
)

// slotLimit is the largest node count any ReadEdgeList call accepts,
// whatever the caller's cap. Slots are indexed by int32 throughout the
// arena (graph.Graph.alivePos), so anything above this bound could not be
// represented even if it fit in memory.
const slotLimit = math.MaxInt32

// scannerBudget is the per-line buffer cap of ReadEdgeList. Records are a
// few dozen bytes; a line exceeding this budget means the input is not an
// edge-list file (or was corrupted into one giant line).
const scannerBudget = 16 * 1024 * 1024

// stableIDs assigns dense integer IDs to alive nodes in birth order, so
// output is deterministic and ages are recoverable (smaller ID = older).
func stableIDs(g *graph.Graph) ([]graph.Handle, map[graph.Handle]int) {
	hs := g.AliveHandles()
	sort.Slice(hs, func(i, j int) bool { return g.BirthSeq(hs[i]) < g.BirthSeq(hs[j]) })
	ids := make(map[graph.Handle]int, len(hs))
	for i, h := range hs {
		ids[h] = i
	}
	return hs, ids
}

// WriteDOT renders the alive graph as an undirected Graphviz graph. Nodes
// are labeled by birth order (0 = oldest); parallel request edges are
// merged. An empty (0-alive) snapshot renders as a valid empty graph, and
// dead arena slots never appear — IDs are dense over the alive set.
func WriteDOT(w io.Writer, g *graph.Graph, name string) error {
	if name == "" {
		name = "churnnet"
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "graph %q {\n", name)
	hs, ids := stableIDs(g)
	var seen graph.Marks
	for _, h := range hs {
		fmt.Fprintf(bw, "  %d;\n", ids[h])
	}
	for _, h := range hs {
		seen.Reset()
		u := ids[h]
		g.Neighbors(h, func(v graph.Handle) bool {
			if !seen.Mark(v) {
				return true
			}
			if ids[v] > u { // emit each undirected edge once
				fmt.Fprintf(bw, "  %d -- %d;\n", u, ids[v])
			}
			return true
		})
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// formatBirth renders a birth time so that ParseFloat recovers it exactly:
// strconv's shortest decimal representation (precision -1) is defined to
// round-trip bit-for-bit through parsing.
func formatBirth(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// WriteEdgeList emits the snapshot as lines:
//
//	n <aliveCount>
//	a <id> <birth>       (one per node, birth time in model units)
//	e <src> <dst>        (one per live request edge, parallel edges kept)
//
// IDs are birth-ordered (0 = oldest). An empty snapshot writes just the
// `n 0` header; dead arena slots are skipped, so IDs are always dense.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	hs, ids := stableIDs(g)
	fmt.Fprintf(bw, "n %d\n", len(hs))
	for _, h := range hs {
		fmt.Fprintf(bw, "a %d %s\n", ids[h], formatBirth(g.BirthTime(h)))
	}
	for _, h := range hs {
		u := ids[h]
		g.OutTargets(h, func(v graph.Handle) bool {
			fmt.Fprintf(bw, "e %d %d\n", u, ids[v])
			return true
		})
	}
	return bw.Flush()
}

// ReadEdgeList parses the WriteEdgeList format and rebuilds the snapshot
// as a static graph whose birth order matches the IDs and whose birth
// times come from the `a` records (dense-ID fallback for legacy files
// without them — see the package comment for what that loses). Handles
// are returned in ID order.
//
// The reader allocates every node the `n` header declares as soon as it
// reads the header, so a 13-byte header can ask for tens of GB. maxNodes
// is the caller's cap on that count — the largest snapshot it is prepared
// to hold — and a header above it (or above the int32 slot range) is
// rejected before anything is allocated.
//
// Malformed inputs fail with an error naming the offending line: duplicate
// `n` headers or `a` records, `a` records after the first edge (births
// must be known before nodes materialize), counts above the cap,
// references out of range, self-loops, and lines exceeding the 16 MiB
// scanner budget are all rejected explicitly.
//
//churnvet:hookexempt loader rebuilds a finished snapshot before any hook subscriber can attach
func ReadEdgeList(r io.Reader, maxNodes int) (*graph.Graph, []graph.Handle, error) {
	maxNodes = min(maxNodes, slotLimit)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), scannerBudget)
	var (
		g        *graph.Graph
		hs       []graph.Handle
		n        = -1 // declared node count; -1 until the header is seen
		births   []float64
		hasBirth []bool
		line     = 0
	)
	// materialize builds the n nodes once edges start (or input ends):
	// every birth is known by then, and AddNode order fixes the birth
	// sequence to ID order.
	materialize := func() {
		if g != nil || n < 0 {
			return
		}
		g = graph.New(n, 0)
		hs = make([]graph.Handle, n)
		for i := range hs {
			b := float64(i) // legacy fallback: dense ID as birth time
			if hasBirth[i] {
				b = births[i]
			}
			hs[i] = g.AddNode(b)
		}
	}
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "n":
			if n >= 0 {
				return nil, nil, fmt.Errorf("graphio: line %d: duplicate n header", line)
			}
			if len(fields) != 2 {
				return nil, nil, fmt.Errorf("graphio: line %d: malformed n header", line)
			}
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil || v < 0 {
				return nil, nil, fmt.Errorf("graphio: line %d: bad node count %q", line, fields[1])
			}
			if v > int64(maxNodes) {
				return nil, nil, fmt.Errorf("graphio: line %d: bad node count %d (above the cap of %d)", line, v, max(maxNodes, 0))
			}
			n = int(v)
			births = make([]float64, n)
			hasBirth = make([]bool, n)
		case "a":
			if n < 0 {
				return nil, nil, fmt.Errorf("graphio: line %d: age record before n header", line)
			}
			if g != nil {
				return nil, nil, fmt.Errorf("graphio: line %d: age record after edges (births must precede the first e record)", line)
			}
			if len(fields) != 3 {
				return nil, nil, fmt.Errorf("graphio: line %d: malformed age record", line)
			}
			id, err1 := strconv.Atoi(fields[1])
			b, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || id < 0 || id >= n {
				return nil, nil, fmt.Errorf("graphio: line %d: bad age id %q", line, fields[1])
			}
			if err2 != nil {
				return nil, nil, fmt.Errorf("graphio: line %d: bad birth time %q", line, fields[2])
			}
			if hasBirth[id] {
				return nil, nil, fmt.Errorf("graphio: line %d: duplicate age record for node %d", line, id)
			}
			births[id] = b
			hasBirth[id] = true
		case "e":
			if n < 0 {
				return nil, nil, fmt.Errorf("graphio: line %d: edge before n header", line)
			}
			materialize()
			if len(fields) != 3 {
				return nil, nil, fmt.Errorf("graphio: line %d: malformed edge", line)
			}
			u, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.Atoi(fields[2])
			if err1 != nil || err2 != nil || u < 0 || v < 0 || u >= len(hs) || v >= len(hs) {
				return nil, nil, fmt.Errorf("graphio: line %d: bad edge %q", line, text)
			}
			if u == v {
				return nil, nil, fmt.Errorf("graphio: line %d: self-loop", line)
			}
			g.AddOutEdge(hs[u], hs[v])
		default:
			return nil, nil, fmt.Errorf("graphio: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, nil, fmt.Errorf("graphio: line %d: line exceeds the %d-byte scanner budget (not an edge-list file?)", line+1, scannerBudget)
		}
		return nil, nil, err
	}
	if n < 0 {
		return nil, nil, fmt.Errorf("graphio: missing n header")
	}
	materialize()
	return g, hs, nil
}
