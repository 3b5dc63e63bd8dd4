package graphio

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// Bounds of one FuzzReadEdgeList input: the reader sees at most
// fuzzInputBytes bytes and reads under a node cap of fuzzMaxNodes. A
// valid file may declare up to 2³¹−1 isolated nodes in a dozen bytes, and
// ReadEdgeList allocates every one of them, so the cap is what keeps a
// single input from exhausting memory: a header above it is rejected
// before anything is allocated.
const (
	fuzzInputBytes = 4096
	fuzzMaxNodes   = 4096
)

// declaredNodes returns the count of the first n header in data the way
// ReadEdgeList's scanner would read it, or -1 when there is none or it
// does not parse.
func declaredNodes(data []byte) int64 {
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "n" {
			if v, err := strconv.ParseInt(f[1], 10, 64); err == nil {
				return v
			}
			return -1
		}
	}
	return -1
}

// FuzzReadEdgeList feeds ReadEdgeList untrusted bytes under the node cap.
// It must reject an input with an error or accept it without panicking,
// and every graph it accepts must pass CheckInvariants, hold the declared
// node count (at most the cap), and survive WriteEdgeList and a re-read:
// the list written from the re-read graph is byte-identical to the first
// one written. The committed corpus (testdata/fuzz/FuzzReadEdgeList)
// replays under a plain go test.
func FuzzReadEdgeList(f *testing.F) {
	f.Add([]byte("n 3\na 0 0\na 1 0.5\na 2 1\ne 1 0\ne 2 0\ne 2 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzInputBytes {
			data = data[:fuzzInputBytes]
		}
		g, hs, err := ReadEdgeList(bytes.NewReader(data), fuzzMaxNodes)
		if err != nil {
			return
		}
		if err := g.CheckInvariants(); err != nil {
			t.Fatalf("accepted input breaks the arena: %v", err)
		}
		if n := declaredNodes(data); int64(len(hs)) != n || n > fuzzMaxNodes || g.NumAlive() != len(hs) {
			t.Fatalf("declared %d nodes, read %d handles and %d alive", n, len(hs), g.NumAlive())
		}
		var first, second bytes.Buffer
		if err := WriteEdgeList(&first, g); err != nil {
			t.Fatal(err)
		}
		g2, _, err := ReadEdgeList(bytes.NewReader(first.Bytes()), fuzzMaxNodes)
		if err != nil {
			t.Fatalf("re-read of the written list: %v\n%s", err, first.Bytes())
		}
		if err := g2.CheckInvariants(); err != nil {
			t.Fatalf("re-read graph breaks the arena: %v", err)
		}
		if err := WriteEdgeList(&second, g2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write → read → write is not a fixed point:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
