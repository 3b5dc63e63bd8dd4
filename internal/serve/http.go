package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// maxBodyBytes bounds request bodies; control-plane payloads are tiny.
const maxBodyBytes = 1 << 16

// Handler returns the HTTP control plane:
//
//	POST /join       {"count": k}            → {"ids": [...]}
//	POST /leave      {"id": n}               → {"ok": true}
//	POST /sim-crash  {"id": n}               → {"ok": true}
//	POST /inject     {"source": n}           → {"msg": id}   (source omitted = last joined)
//	POST /step       {"rounds": k}           → {"ok": true}
//	GET  /node-info/{id}                     → NodeInfo
//	GET  /status/{msg}                       → MsgView
//	GET  /expansion                          → {"observations": [...]}
//	GET  /snapshot                           → graphio edge-list stream (text/plain)
//	GET  /healthz                            → liveness + queue depth + snapshot age
//
// Errors are JSON envelopes {"status": code, "error": msg}: 404 unknown
// node/message, 410 departed node, 429 queue full, 503 overloaded or
// shutting down, 405/400 for protocol misuse. Handlers never touch the
// model — mutations go through the command queue, reads through the
// published snapshot.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /join", s.handleJoin)
	mux.HandleFunc("POST /leave", s.handleLeave)
	mux.HandleFunc("POST /sim-crash", s.handleCrash)
	mux.HandleFunc("POST /inject", s.handleInject)
	mux.HandleFunc("POST /step", s.handleStep)
	mux.HandleFunc("GET /node-info/{id}", s.handleNodeInfo)
	mux.HandleFunc("GET /status/{msg}", s.handleStatus)
	mux.HandleFunc("GET /expansion", s.handleExpansion)
	mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // a client that hung up is its own problem
}

func writeErr(w http.ResponseWriter, err *APIError) {
	writeJSON(w, err.Status, err)
}

// decodeBody JSON-decodes an optional request body into v. An empty body
// leaves v at its zero value; trailing garbage and unknown fields are
// 400s so misuse fails loudly instead of silently acting on defaults.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		if err == io.EOF {
			return true // empty body = all defaults
		}
		writeErr(w, &APIError{Status: 400, Msg: "bad request body: " + err.Error()})
		return false
	}
	if dec.More() {
		writeErr(w, &APIError{Status: 400, Msg: "bad request body: trailing data"})
		return false
	}
	return true
}

// pathID parses the trailing path segment as an unsigned ID.
func pathID(w http.ResponseWriter, r *http.Request, seg string) (uint64, bool) {
	raw := r.PathValue(seg)
	id, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		writeErr(w, &APIError{Status: 400, Msg: "bad " + seg + " " + strconv.Quote(raw) + ": want a decimal id"})
		return 0, false
	}
	return id, true
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Count int `json:"count"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Count < 0 || req.Count > 1<<20 {
		writeErr(w, &APIError{Status: 400, Msg: "count out of range (want 0..1048576; 0 means 1)"})
		return
	}
	ids, version, err := s.Join(req.Count)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		IDs     []uint64 `json:"ids"`
		Version uint64   `json:"version"`
	}{ids, version})
}

func (s *Server) handleLeave(w http.ResponseWriter, r *http.Request) {
	s.handleDepart(w, r, false)
}

func (s *Server) handleCrash(w http.ResponseWriter, r *http.Request) {
	s.handleDepart(w, r, true)
}

func (s *Server) handleDepart(w http.ResponseWriter, r *http.Request, crash bool) {
	var req struct {
		ID *uint64 `json:"id"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.ID == nil {
		writeErr(w, &APIError{Status: 400, Msg: `missing "id"`})
		return
	}
	var version uint64
	var err *APIError
	if crash {
		version, err = s.Crash(*req.ID)
	} else {
		version, err = s.Leave(*req.ID)
	}
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		OK      bool   `json:"ok"`
		Version uint64 `json:"version"`
	}{true, version})
}

func (s *Server) handleInject(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Source *uint64 `json:"source"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	var src uint64
	useID := req.Source != nil
	if useID {
		src = *req.Source
	}
	msg, version, err := s.Inject(src, useID)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Msg     int    `json:"msg"`
		Version uint64 `json:"version"`
	}{int(msg), version})
}

func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Rounds int `json:"rounds"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if req.Rounds < 0 || req.Rounds > 1<<20 {
		writeErr(w, &APIError{Status: 400, Msg: "rounds out of range (want 0..1048576; 0 means 1)"})
		return
	}
	version, err := s.StepRounds(req.Rounds)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		OK      bool   `json:"ok"`
		Version uint64 `json:"version"`
	}{true, version})
}

func (s *Server) handleNodeInfo(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r, "id")
	if !ok {
		return
	}
	info, err := s.Current().NodeInfo(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id, ok := pathID(w, r, "msg")
	if !ok {
		return
	}
	view, err := s.Current().MsgStatus(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleExpansion(w http.ResponseWriter, r *http.Request) {
	snap := s.Current()
	writeJSON(w, http.StatusOK, struct {
		Observations []ExpansionObs `json:"observations"`
		Version      uint64         `json:"version"`
	}{snap.Expansion(), snap.Version})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	buf, err := s.Dump()
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.Current()
	writeJSON(w, http.StatusOK, struct {
		OK          bool    `json:"ok"`
		Version     uint64  `json:"version"`
		Steps       int     `json:"steps"`
		Time        float64 `json:"time"`
		Alive       int     `json:"alive"`
		Nodes       int     `json:"nodes_issued"`
		Msgs        int     `json:"msgs_injected"`
		QueueLen    int     `json:"queue_len"`
		QueueCap    int     `json:"queue_cap"`
		SnapshotAge float64 `json:"snapshot_age_ms"`
		Kind        string  `json:"kind"`
	}{
		OK:          !s.stopped.Load(),
		Version:     snap.Version,
		Steps:       snap.Steps,
		Time:        snap.Time,
		Alive:       snap.Alive,
		Nodes:       snap.NumNodes(),
		Msgs:        snap.NumMsgs(),
		QueueLen:    s.QueueLen(),
		QueueCap:    s.QueueCap(),
		SnapshotAge: float64(snap.Age(time.Now())) / float64(time.Millisecond),
		Kind:        strings.ToLower(s.model.SeedKind().String()),
	})
}
