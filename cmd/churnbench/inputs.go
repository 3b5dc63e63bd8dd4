package main

import "github.com/dyngraph/churnnet/internal/rng"

// Every input a workload feeds the measured code is generated here, as a
// pure function of the workload seed: the model seed of each repetition,
// the traffic sources and the serve clients' request scripts.

// repSeed returns the model seed of repetition rep.
func repSeed(seed uint64, rep int) uint64 {
	return rng.New(seed ^ (uint64(rep)+1)*0x9e3779b97f4a7c15).Uint64()
}

// trafficSources returns k distinct positions in [0, alive): the burst's
// sources, taken from the model's alive handles in arena order.
func trafficSources(seed uint64, alive, k int) []int {
	r := rng.New(seed ^ 0x7ea5c0de)
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		if i := r.Intn(alive); !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// reqKind is one request type of the serve-1m mix.
type reqKind uint8

const (
	reqNodeInfo reqKind = iota // GET /node-info/{node}
	reqStatus                  // GET /status/0
	reqJoin                    // POST /join
	reqLeave                   // POST /leave of the client's newest own node
	reqStep                    // POST /step, one round
)

func (k reqKind) write() bool { return k >= reqJoin }

// request is one scripted request; node is the /node-info target.
type request struct {
	kind reqKind
	node uint64
}

// script generates one client's requests: about 70% node-info reads of
// the seeded population, 10% status reads of message 0, 10% joins, 9%
// leaves and 1% steps. A leave names the client's newest node that has not
// left yet, which only the run can resolve to an id, so the script draws a
// leave only while it has issued more joins than leaves, and a join
// otherwise.
type script struct {
	r     *rng.RNG
	nodes int // the seeded population, ids 0..nodes-1
	own   int // joins issued minus leaves issued
}

func newScript(seed uint64, client, nodes int) *script {
	return &script{r: rng.New(seed ^ (uint64(client)+1)*0xc2b2ae3d27d4eb4f), nodes: nodes}
}

func (s *script) next() request {
	x := s.r.Intn(100)
	switch {
	case x < 70:
		return request{kind: reqNodeInfo, node: s.r.Uint64n(uint64(s.nodes))}
	case x < 80:
		return request{kind: reqStatus}
	case x < 90, x < 99 && s.own == 0:
		s.own++
		return request{kind: reqJoin}
	case x < 99:
		s.own--
		return request{kind: reqLeave}
	default:
		return request{kind: reqStep}
	}
}
