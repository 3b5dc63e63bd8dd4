package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestParseKind pins the model-name surface of the daemon.
func TestParseKind(t *testing.T) {
	for _, name := range []string{"SDG", "sdgr", "PDG", "pdgr"} {
		if _, err := parseKind(name); err != nil {
			t.Errorf("parseKind(%q): %v", name, err)
		}
	}
	for _, name := range []string{"", "STATIC", "LIVE", "pd"} {
		if _, err := parseKind(name); err == nil {
			t.Errorf("parseKind(%q) accepted an unknown model", name)
		}
	}
}

// TestValidateServeFlags pins the flag guard rails (bad values make main
// exit with the conventional usage status 2).
func TestValidateServeFlags(t *testing.T) {
	cases := []struct {
		name                            string
		n, d, queue, observe, par, maxr int
		tick, pubEvery                  time.Duration
		wantErr                         bool
	}{
		{"defaults", 10000, 20, 1024, 0, 1, 0, 0, 0, false},
		{"empty start", 0, 3, 1, 4, 1, 100, time.Millisecond, time.Millisecond, false},
		{"million nodes", 1_000_000, 20, 1024, 0, 1, 0, 0, 0, false},
		{"auto par", 10000, 20, 1024, 0, 0, 0, 0, 0, false},
		{"four shards", 10000, 20, 1024, 0, 4, 0, 0, 0, false},
		{"negative par", 10000, 20, 1024, 0, -1, 0, 0, 0, true},
		{"negative n", -1, 20, 1024, 0, 1, 0, 0, 0, true},
		{"too many nodes", 1_000_001, 20, 1024, 0, 1, 0, 0, 0, true},
		{"zero d", 100, 0, 1024, 0, 1, 0, 0, 0, true},
		{"zero queue", 100, 3, 0, 0, 1, 0, 0, 0, true},
		{"negative observe", 100, 3, 8, -1, 1, 0, 0, 0, true},
		{"negative maxrounds", 100, 3, 8, 0, 1, -1, 0, 0, true},
		{"negative tick", 100, 3, 8, 0, 1, 0, -time.Second, 0, true},
		{"negative publish interval", 100, 3, 8, 0, 1, 0, 0, -time.Second, true},
	}
	for _, c := range cases {
		err := validateServeFlags(c.n, c.d, c.queue, c.observe, c.par, c.maxr, c.tick, c.pubEvery)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: validateServeFlags = %v, wantErr %v", c.name, err, c.wantErr)
		}
	}
}

// TestValidateDriveFlags pins driver-mode flag validation.
func TestValidateDriveFlags(t *testing.T) {
	cases := []struct {
		name    string
		addr    string
		joins   int
		maxr    int
		wantErr bool
	}{
		{"ok", "http://127.0.0.1:8080", 32, 400, false},
		{"https ok", "https://example.test", 1, 1, false},
		{"missing addr", "", 32, 400, true},
		{"bare host", "127.0.0.1:8080", 32, 400, true},
		{"zero joins", "http://x", 0, 400, true},
		{"zero budget", "http://x", 32, 0, true},
	}
	for _, c := range cases {
		err := validateDriveFlags(c.addr, c.joins, c.maxr)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: validateDriveFlags = %v, wantErr %v", c.name, err, c.wantErr)
		}
	}
}

// TestHTTPServerDropsSlowHeaders pins the slow-client guard: a client that
// sends its request headers one byte a second must have its connection
// closed within httpReadHeaderTimeout plus a second of slack, instead of
// holding it for as long as it keeps trickling.
func TestHTTPServerDropsSlowHeaders(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := newHTTPServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	go hs.Serve(ln)
	defer hs.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	stop, trickled := make(chan struct{}), make(chan struct{})
	defer func() { close(stop); <-trickled }()
	go func() {
		defer close(trickled)
		req := []byte("GET /healthz HTTP/1.1\r\nHost: churnd\r\nX-Slow: " + strings.Repeat("x", 64))
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for _, b := range req {
			if _, err := conn.Write([]byte{b}); err != nil {
				return
			}
			select {
			case <-tick.C:
			case <-stop:
				return
			}
		}
	}()

	limit := httpReadHeaderTimeout + time.Second
	conn.SetReadDeadline(start.Add(limit + 2*time.Second))
	_, err = io.Copy(io.Discard, conn)
	elapsed := time.Since(start)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %v (limit %v)", elapsed, limit)
	}
	if elapsed > limit {
		t.Fatalf("connection closed after %v, want within %v", elapsed, limit)
	}
}
