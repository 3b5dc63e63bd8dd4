// Command churnd is the live control-plane daemon: it hosts one
// externally driven churn network — seeded from a stationary snapshot of
// a paper model, up to 10⁶ simulated nodes — behind the single-writer
// event loop of internal/serve, and serves the HTTP/JSON control plane
// (join/leave/sim-crash/inject/step, node-info/status/expansion/
// snapshot/healthz) plus an optional UDP fast path for single-node
// informed/alive probes.
//
// Usage:
//
//	churnd -model PDGR -n 100000 -d 20 -seed 1 -http 127.0.0.1:8080
//	churnd -model SDGR -n 1000 -d 3 -http 127.0.0.1:8080 -udp 127.0.0.1:8081 -tick 50ms
//
// With -tick 0 (the default) the network advances only on POST /step —
// the fully deterministic mode: the served state is a pure function of
// the seed and the command order.
//
// Driver mode exercises a running daemon end to end and exits 0 only if
// the scenario converges and every error shape is well-formed:
//
//	churnd -drive -addr http://127.0.0.1:8080 [-udp 127.0.0.1:8081]
//
// It is the payload of the churnd-smoke CI job.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/dyngraph/churnnet/internal/core"
	"github.com/dyngraph/churnnet/internal/flood"
	"github.com/dyngraph/churnnet/internal/serve"
	"github.com/dyngraph/churnnet/internal/serve/driver"
)

// Connection deadlines of the control plane. A client must finish its
// request headers within httpReadHeaderTimeout and its whole request
// within httpReadTimeout, and an idle keep-alive connection is closed
// after httpIdleTimeout, so a client that trickles its bytes cannot hold a
// connection forever. No write deadline is set: a large GET /snapshot may
// legitimately stream for longer than any fixed bound.
const (
	httpReadHeaderTimeout = 5 * time.Second
	httpReadTimeout       = 30 * time.Second
	httpIdleTimeout       = 2 * time.Minute
)

// newHTTPServer returns the control-plane server for h with the
// connection deadlines above.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: httpReadHeaderTimeout,
		ReadTimeout:       httpReadTimeout,
		IdleTimeout:       httpIdleTimeout,
	}
}

func main() {
	var (
		modelName = flag.String("model", "PDGR", "seed-snapshot model: SDG, SDGR, PDG or PDGR")
		n         = flag.Int("n", 10000, "seed population (0 starts an empty network)")
		d         = flag.Int("d", 20, "out-degree: requests per node")
		seed      = flag.Uint64("seed", 1, "deterministic seed")
		httpAddr  = flag.String("http", "127.0.0.1:8080", "HTTP control-plane listen address")
		udpAddr   = flag.String("udp", "", "UDP probe listen address (empty = disabled)")
		tick      = flag.Duration("tick", 0, "autonomous round cadence (0 = advance only on POST /step)")
		queue     = flag.Int("queue", 1024, "command queue depth (full queue answers 429)")
		pubEvery  = flag.Duration("publish-interval", 0, "minimum interval between snapshot publishes (0 = after every command batch)")
		observe   = flag.Int("observe-every", 0, "record an expansion observation every k rounds (0 = tracker off)")
		par       = flag.Int("par", 1, "worker shards for seeding and the traffic plane; 0 picks W from GOMAXPROCS and n")
		maxRounds = flag.Int("maxrounds", 0, "per-message round cap (0 = 40·log2(n)+60)")

		drive    = flag.Bool("drive", false, "driver mode: exercise the daemon at -addr and exit")
		addr     = flag.String("addr", "", "driver mode: base URL of the daemon (e.g. http://127.0.0.1:8080)")
		joins    = flag.Int("drive-joins", 32, "driver mode: nodes to join")
		departs  = flag.Int("drive-departures", 0, "driver mode: nodes to depart (0 = joins/4)")
		driveMax = flag.Int("drive-maxrounds", 400, "driver mode: step budget per broadcast")
	)
	flag.Parse()

	if *drive {
		if err := validateDriveFlags(*addr, *joins, *driveMax); err != nil {
			fmt.Fprintln(os.Stderr, "churnd:", err)
			os.Exit(2)
		}
		rep, err := driver.Run(*addr, driver.Options{
			Joins:      *joins,
			Departures: *departs,
			MaxRounds:  *driveMax,
			UDPAddr:    *udpAddr,
			Logf:       log.Printf,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "churnd: drive failed:", err)
			os.Exit(1)
		}
		fmt.Printf("drive ok: joined=%d left=%d crashed=%d broadcasts=%d rounds=%v alive=%d\n",
			rep.Joined, rep.Left, rep.Crashed, rep.Broadcasts, rep.Rounds, rep.AliveFinal)
		return
	}

	kind, err := parseKind(*modelName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "churnd:", err)
		os.Exit(2)
	}
	if err := validateServeFlags(*n, *d, *queue, *observe, *par, *maxRounds, *tick, *pubEvery); err != nil {
		fmt.Fprintln(os.Stderr, "churnd:", err)
		os.Exit(2)
	}
	if *par == 0 {
		*par = flood.Auto
	}

	log.Printf("churnd: seeding %s n=%d d=%d (seed %d)...", kind, *n, *d, *seed)
	start := time.Now()
	s := serve.New(serve.Config{
		Kind:               kind,
		N:                  *n,
		D:                  *d,
		Seed:               *seed,
		Parallelism:        *par,
		QueueDepth:         *queue,
		Tick:               *tick,
		MinPublishInterval: *pubEvery,
		ObserveEvery:       *observe,
		MaxRounds:          *maxRounds,
	})
	s.Start()
	log.Printf("churnd: seeded %d alive nodes in %v", s.Current().Alive, time.Since(start).Round(time.Millisecond))

	httpLn, lnErr := net.Listen("tcp", *httpAddr)
	if lnErr != nil {
		fmt.Fprintln(os.Stderr, "churnd:", lnErr)
		os.Exit(1)
	}
	hs := newHTTPServer(s.Handler())
	go func() {
		if err := hs.Serve(httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("churnd: http: %v", err)
		}
	}()
	log.Printf("churnd: control plane on http://%s", httpLn.Addr())

	var udpConn net.PacketConn
	if *udpAddr != "" {
		conn, udpErr := net.ListenPacket("udp", *udpAddr)
		if udpErr != nil {
			fmt.Fprintln(os.Stderr, "churnd:", udpErr)
			os.Exit(1)
		}
		udpConn = conn
		go func() {
			if err := s.ServeUDP(udpConn); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("churnd: udp: %v", err)
			}
		}()
		log.Printf("churnd: probe fast path on udp://%s", udpConn.LocalAddr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("churnd: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = hs.Shutdown(ctx)
	if udpConn != nil {
		_ = udpConn.Close()
	}
	s.Stop()
}

func parseKind(name string) (core.Kind, error) {
	switch strings.ToUpper(name) {
	case "SDG":
		return core.SDG, nil
	case "SDGR":
		return core.SDGR, nil
	case "PDG":
		return core.PDG, nil
	case "PDGR":
		return core.PDGR, nil
	}
	return 0, fmt.Errorf("unknown model %q (want SDG, SDGR, PDG or PDGR)", name)
}

func validateServeFlags(n, d, queue, observe, par, maxRounds int, tick, pubEvery time.Duration) error {
	switch {
	case n < 0 || n > 1_000_000:
		return errors.New("-n must be in 0..1000000")
	case d < 1:
		return errors.New("-d must be at least 1")
	case queue < 1:
		return errors.New("-queue must be at least 1")
	case observe < 0:
		return errors.New("-observe-every must be non-negative")
	case par < 0:
		return errors.New("-par must be >= 0 (0 = auto from GOMAXPROCS and n)")
	case maxRounds < 0:
		return errors.New("-maxrounds must be non-negative")
	case tick < 0:
		return errors.New("-tick must be non-negative")
	case pubEvery < 0:
		return errors.New("-publish-interval must be non-negative")
	}
	return nil
}

func validateDriveFlags(addr string, joins, maxRounds int) error {
	switch {
	case addr == "":
		return errors.New("-drive requires -addr (e.g. -addr http://127.0.0.1:8080)")
	case !strings.HasPrefix(addr, "http://") && !strings.HasPrefix(addr, "https://"):
		return fmt.Errorf("-addr %q must be an http(s) base URL", addr)
	case joins < 1:
		return errors.New("-drive-joins must be at least 1")
	case maxRounds < 1:
		return errors.New("-drive-maxrounds must be at least 1")
	}
	return nil
}
