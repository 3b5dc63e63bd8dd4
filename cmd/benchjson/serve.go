package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/dyngraph/churnnet/internal/flood"
	"github.com/dyngraph/churnnet/internal/rng"
	"github.com/dyngraph/churnnet/internal/serve"
)

// measureServe drives the live control-plane daemon end to end over real
// loopback HTTP: concurrent clients issue a mixed read/mutate/step
// workload against the single-writer event loop, with snapshot staleness
// sampled while the load runs. The row ends with the consistency audit
// (serve.VerifySnapshot): a freshly published snapshot compared field by
// field against a direct model query at the same version.
func measureServe(c spec, seed uint64, reps int) []row {
	p := c.params()
	p["clients"], p["requests"], p["publish_interval_ms"] = c.clients, c.clients*c.reqs, c.publishMs
	r := newRow(seed, p)
	v := r.Values

	var s *serve.Server
	r.timed("seed", func() {
		s = serve.New(serve.Config{
			Kind: c.kind, N: c.n, D: c.d, Seed: seed,
			Parallelism:        c.par,
			MinPublishInterval: time.Duration(c.publishMs) * time.Millisecond,
		})
	})
	s.Start()
	defer s.Stop()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatal("%v", err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	nodesIssued := s.Current().NumNodes()

	// One broadcast so the /status reads have a message to poll; wait
	// until a snapshot shows it, since a rate-limited publish may lag.
	msg, _, aerr := s.Inject(0, false)
	if aerr != nil {
		fatal("serve inject: %v", aerr)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, merr := s.Current().MsgStatus(int(msg)); merr == nil {
			break
		}
		if time.Now().After(deadline) {
			fatal("serve: message %d was never published", msg)
		}
	}

	v["snapshot_age_mean_ms"], v["snapshot_age_max_ms"] = 0, 0
	for rep := 0; rep < reps; rep++ {
		lat, counts, elapsed, ageMean, ageMax := runServeLoad(base, s, c, seed+uint64(rep), nodesIssued)
		v["snapshot_age_mean_ms"] = max(v["snapshot_age_mean_ms"], ageMean)
		v["snapshot_age_max_ms"] = max(v["snapshot_age_max_ms"], ageMax)
		if r.keepMin("elapsed", int64(elapsed)) {
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			v["p50_ns"], v["p99_ns"] = percentileNs(lat, 0.50), percentileNs(lat, 0.99)
			maps.Copy(v, counts)
		}
	}
	v["req_per_sec"] = float64(c.clients*c.reqs) / (float64(r.NS["elapsed"]) / 1e9)

	// The consistency audit, on the writer with a fresh publish.
	var auditErr error
	aerr = s.Audit(func(m *serve.LiveModel, plane *flood.Traffic, snap *serve.Snapshot) {
		auditErr = serve.VerifySnapshot(m, plane, snap)
		v["final_alive"] = float64(snap.Alive)
		v["max_queue_depth"] = float64(s.MaxQueueLen())
	})
	if aerr != nil {
		fatal("serve audit: %v", aerr)
	}
	if auditErr != nil {
		fmt.Fprintf(os.Stderr, "benchjson: serve snapshot diverged from the model: %v\n", auditErr)
	}
	r.audit("serve.VerifySnapshot", auditErr == nil)
	return []row{r}
}

// runServeLoad drives one repetition: c.clients goroutines each issuing
// c.reqs timed requests of the mixed workload, plus a sampler reading
// the published snapshot's age every 5ms. Returns per-request
// latencies, the executed op mix by value name, the wall time, and the
// age mean/max in ms.
func runServeLoad(base string, s *serve.Server, c spec, seed uint64, nodesIssued int) ([]int64, map[string]float64, time.Duration, float64, float64) {
	transport := &http.Transport{MaxIdleConns: c.clients * 2, MaxIdleConnsPerHost: c.clients * 2}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 30 * time.Second}

	stopSampler := make(chan struct{})
	ageDone := make(chan [2]float64, 1)
	go func() {
		var sum, max float64
		samples := 0
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				mean := 0.0
				if samples > 0 {
					mean = sum / float64(samples)
				}
				ageDone <- [2]float64{mean, max}
				return
			case <-tick.C:
				age := float64(s.Current().Age(time.Now())) / float64(time.Millisecond)
				sum += age
				samples++
				if age > max {
					max = age
				}
			}
		}
	}()

	type clientTally struct {
		lat    []int64
		counts map[string]float64
	}
	tallies := make([]clientTally, c.clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for cl := 0; cl < c.clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			ct := &tallies[cl]
			ct.lat, ct.counts = make([]int64, 0, c.reqs), map[string]float64{}
			r := rng.New(seed ^ (uint64(cl)+1)*0x9e3779b97f4a7c15)
			var myNodes []uint64 // ids this client joined and may depart
			for i := 0; i < c.reqs; i++ {
				var op, method, path string
				var body []byte
				switch {
				case cl == 0 && i%50 == 10:
					op, method, path, body = "steps", "POST", "/step", []byte(`{"rounds":1}`)
				case i%10 == 3:
					op, method, path = "joins", "POST", "/join"
				case i%10 == 7 && len(myNodes) > 0:
					id := myNodes[len(myNodes)-1]
					myNodes = myNodes[:len(myNodes)-1]
					op, method, path, body = "leaves", "POST", "/leave", fmt.Appendf(nil, `{"id":%d}`, id)
				case i%5 == 4:
					op, method, path = "reads", "GET", "/status/0"
				default:
					op, method, path = "reads", "GET", fmt.Sprintf("/node-info/%d", r.Intn(nodesIssued))
				}
				ct.counts[op]++
				rt0 := time.Now()
				status, resp := serveRequest(client, base, method, path, body)
				ct.lat = append(ct.lat, int64(time.Since(rt0)))
				switch status {
				case 200:
					if op == "joins" {
						var out struct {
							IDs []uint64 `json:"ids"`
						}
						if json.Unmarshal(resp, &out) == nil {
							myNodes = append(myNodes, out.IDs...)
						}
					}
				case 410:
					ct.counts["departed_410"]++
				case 429, 503:
					ct.counts["backpressure_429"]++
				default:
					fatal("ERROR: serve %s %s answered %d: %s", method, path, status, firstLineOf(resp))
				}
			}
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	close(stopSampler)
	ages := <-ageDone

	var lat []int64
	counts := map[string]float64{"reads": 0, "joins": 0, "leaves": 0, "steps": 0, "departed_410": 0, "backpressure_429": 0}
	for i := range tallies {
		lat = append(lat, tallies[i].lat...)
		for op, n := range tallies[i].counts {
			counts[op] += n
		}
	}
	return lat, counts, elapsed, ages[0], ages[1]
}

// serveRequest issues one request and returns the status code and body.
func serveRequest(client *http.Client, base, method, path string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		fatal("%v", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		fatal("serve request: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		fatal("serve response: %v", err)
	}
	return resp.StatusCode, data
}

func percentileNs(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p*float64(len(sorted)-1) + 0.5)
	return float64(sorted[idx])
}

func firstLineOf(b []byte) string {
	s := string(b)
	if i := bytes.IndexByte(b, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
