// Package mtcserve implements the checking-as-a-service HTTP API behind
// cmd/mtc-serve: histories in, verdicts with counterexamples out. It is
// the repository's take on the IsoVista integration the paper names as
// future work. Engines are resolved through the checker registry
// (internal/checker), so every registered checker — the batch MTC
// algorithms, the online incremental engine, and the Cobra, PolySI, Elle
// and Porcupine baselines — is reachable by name.
//
// The v1 API is asynchronous: whole-history checks are submitted as jobs
// executed by a bounded worker pool under per-job timeouts (the engines
// poll their contexts, so a deadline actually stops work), polled by id,
// and observable as an NDJSON event stream. Streaming verification
// sessions feed transactions to core.Incremental as they commit, so a
// deployment can verify continuously under live traffic instead of
// shipping complete histories. Request traffic sweeps idle sessions: the
// middleware evicts them at most once per quarter of the idle timeout,
// so the job pool's workers are the only goroutines a Server starts.
//
//	GET    /v1/checkers                 registered checkers and their levels
//	POST   /v1/jobs                     submit a whole-history check -> 202 + job id
//	GET    /v1/jobs                     list known jobs
//	GET    /v1/jobs/{id}                poll job status (report once done)
//	GET    /v1/jobs/{id}/events         NDJSON stream of job state transitions
//	DELETE /v1/jobs/{id}                cancel and forget a job (stops its worker)
//	POST   /v1/sessions                 open a streaming session {level, keys}
//	POST   /v1/sessions/{id}/txns       feed one txn or an array of txns
//	POST   /v1/sessions/{id}/batch      feed one MTCB binary frame of txns
//	GET    /v1/sessions/{id}/verdict    verdict so far (?final=1 closes)
//	DELETE /v1/sessions/{id}            discard a session
//	GET    /v1/fixtures                 the built-in anomaly fixtures
//	GET    /v1/fixtures/{name}?level=   report on a fixture
//	GET    /healthz
//
// Every request carries an X-Request-Id (client-supplied or generated),
// errors use a structured {error:{code,message}} envelope, and request
// bodies are size-limited.
package mtcserve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mtc/internal/api"
	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/fabric"
	"mtc/internal/history"
)

// checkerInfo describes one registry entry in GET /v1/checkers.
type checkerInfo = api.CheckerInfo

// Server carries the registry, the job pool, and the live streaming
// sessions. Safe for concurrent use. The zero-value knobs select the
// defaults; construct with NewServer and serve Handler().
type Server struct {
	reg *checker.Registry
	// DefaultChecker is used when no checker is named; empty means "mtc".
	DefaultChecker string
	// MaxSessions bounds concurrently live streaming sessions; a session
	// holds checker state proportional to the transactions fed, so
	// abandoned sessions must not accumulate without limit. 0 uses
	// DefaultMaxSessions. Clients free slots with DELETE /v1/sessions/{id}.
	MaxSessions int
	// Workers sizes the job worker pool (default DefaultWorkers).
	Workers int
	// QueueDepth bounds queued-but-unstarted jobs (default
	// DefaultQueueDepth); a full queue answers 429 with Retry-After.
	QueueDepth int
	// JobTimeout is the default per-job execution timeout (default
	// DefaultJobTimeout); requests may lower or raise it up to
	// MaxRequestTimeout.
	JobTimeout time.Duration
	// MaxJobs bounds the retained job table (default DefaultMaxJobs):
	// when reached, the oldest terminal jobs are forgotten to make room,
	// so completed reports do not accumulate without limit.
	MaxJobs int
	// MaxBodyBytes bounds request bodies (default 64 MiB).
	MaxBodyBytes int64
	// DefaultWindow is the compaction window applied to streaming
	// sessions that do not request their own (api.SessionRequest.Window):
	// 0 keeps sessions unbounded unless they opt in.
	DefaultWindow int
	// SessionIdleTimeout evicts streaming sessions that have not been
	// touched for this long (default DefaultSessionIdle), so abandoned
	// streams do not pin checker state or session slots forever. The
	// sweep runs on the next request to any route; an evicted session
	// answers 404 like a deleted one.
	SessionIdleTimeout time.Duration
	// Logger receives the structured access log; nil discards it.
	Logger *slog.Logger
	// Fabric, when non-nil, makes this server a distributed-checking
	// coordinator: the /v1/fabric endpoints come alive for workers, and
	// jobs submitted with "distributed": true are dispatched to the
	// fabric instead of the local pool. Set it before serving (mtc-serve
	// wires it from -fabric-wal) and call AdoptFabricJobs once to
	// re-expose jobs recovered from the write-ahead log.
	Fabric *fabric.Coordinator

	mu        sync.Mutex
	sessions  map[string]*session
	nextID    int
	nextSweep atomic.Int64 // UnixNano before which requests skip the idle sweep

	jobsMu      sync.Mutex
	jobs        map[string]*job
	nextJobID   int
	queue       chan *job
	workersOnce sync.Once
	closed      bool
}

// DefaultMaxSessions is the default cap on live streaming sessions.
const DefaultMaxSessions = 1024

// DefaultMaxBodyBytes is the default request-body size limit.
const DefaultMaxBodyBytes = 64 << 20

// DefaultSessionIdle is the default idle-eviction timeout for streaming
// sessions.
const DefaultSessionIdle = 30 * time.Minute

// session is one streaming verification session.
type session struct {
	mu       sync.Mutex
	lvl      core.Level
	inc      *core.Incremental
	final    *core.Result
	stopped  bool
	window   int // compaction window; 0 = unbounded
	lastUsed time.Time
	// arena amortizes binary batch ingest (POST .../batch): keys intern
	// once per session and decoded Op slices are carved from shared
	// chunks instead of per-transaction allocations. Created lazily on
	// the first batch; guarded by mu like the rest of the session.
	arena *history.IngestArena
}

// touch stamps the session as active. Caller must hold sess.mu.
func (sess *session) touch() { sess.lastUsed = time.Now() }

// errSessionFinal is ingest's refusal of a finalized session (409).
var errSessionFinal = errors.New("session is finalized")

// ingest appends txns to the session's check and runs the compaction
// cadence. It is atomic: a finalized session (errSessionFinal) or a
// transaction with a negative session number — the init record's
// marker; initial keys are declared at session open — applies nothing.
// Caller must hold sess.mu.
func (sess *session) ingest(txns []history.Txn) error {
	if sess.stopped {
		return errSessionFinal
	}
	sess.touch()
	for i := range txns {
		if txns[i].Session < 0 {
			return fmt.Errorf("txn %d: session must be >= 0, got %d (declare initial keys at session open)", i, txns[i].Session)
		}
	}
	for i := range txns {
		sess.inc.Add(txns[i])
	}
	sess.inc.MaybeCompact(sess.window, 0, nil)
	return nil
}

// NewServer returns a server dispatching on the given registry; nil
// selects the default registry with every engine registered.
func NewServer(reg *checker.Registry) *Server {
	if reg == nil {
		reg = checker.Default
	}
	return &Server{
		reg:      reg,
		sessions: make(map[string]*session),
		jobs:     make(map[string]*job),
	}
}

func (s *Server) sessionIdle() time.Duration {
	if s.SessionIdleTimeout > 0 {
		return s.SessionIdleTimeout
	}
	return DefaultSessionIdle
}

// sweepDue reports whether the request arriving at now runs the idle
// sweep: at most one request per quarter of the idle timeout does, so
// request traffic evicts idle sessions without a goroutine of its own.
func (s *Server) sweepDue(now time.Time) bool {
	next := s.nextSweep.Load()
	return now.UnixNano() >= next && s.nextSweep.CompareAndSwap(next, now.Add(s.sessionIdle()/4).UnixNano())
}

// sweepIdleSessions evicts every session idle longer than the timeout
// and reports how many it removed.
func (s *Server) sweepIdleSessions(now time.Time) int {
	idle := s.sessionIdle()
	s.mu.Lock()
	defer s.mu.Unlock()
	evicted := 0
	for id, sess := range s.sessions {
		sess.mu.Lock()
		stale := now.Sub(sess.lastUsed) > idle
		sess.mu.Unlock()
		if stale {
			delete(s.sessions, id)
			evicted++
		}
	}
	return evicted
}

// Handler returns the service's HTTP handler over the default registry.
func Handler() http.Handler { return NewServer(nil).Handler() }

// Default accessors.
func (s *Server) defaultChecker() string {
	if s.DefaultChecker != "" {
		return s.DefaultChecker
	}
	return "mtc"
}

func (s *Server) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return DefaultWorkers
}

func (s *Server) queueDepth() int {
	if s.QueueDepth > 0 {
		return s.QueueDepth
	}
	return DefaultQueueDepth
}

func (s *Server) jobTimeout() time.Duration {
	if s.JobTimeout > 0 {
		return s.JobTimeout
	}
	return DefaultJobTimeout
}

func (s *Server) maxBodyBytes() int64 {
	if s.MaxBodyBytes > 0 {
		return s.MaxBodyBytes
	}
	return DefaultMaxBodyBytes
}

func (s *Server) logger() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return discardLogger
}

// discardLogger stands in for a nil Logger: its handler is disabled at
// every level, so a record is dropped before it is formatted.
var discardLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))

// Handler builds the route table behind the middleware chain.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	healthz := func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	}
	mux.HandleFunc("GET /healthz", healthz)
	mux.HandleFunc("GET /v1/healthz", healthz)

	mux.HandleFunc("GET /v1/checkers", s.handleCheckers)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobDelete)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionOpen)
	mux.HandleFunc("POST /v1/sessions/{id}/txns", s.handleSessionTxns)
	mux.HandleFunc("POST /v1/sessions/{id}/batch", s.handleSessionBatch)
	mux.HandleFunc("GET /v1/sessions/{id}/verdict", s.handleSessionVerdict)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /v1/fixtures", s.handleFixtures)
	mux.HandleFunc("GET /v1/fixtures/{name}", s.handleFixture)

	// Fabric coordinator surface; answers 400 unless the server was
	// started as a coordinator (Fabric set).
	mux.HandleFunc("POST /v1/fabric/workers", s.handleFabricRegister)
	mux.HandleFunc("POST /v1/fabric/workers/{id}/heartbeat", s.handleFabricHeartbeat)
	mux.HandleFunc("POST /v1/fabric/workers/{id}/pull", s.handleFabricPull)
	mux.HandleFunc("POST /v1/fabric/workers/{id}/results", s.handleFabricResults)
	mux.HandleFunc("GET /v1/fabric/status", s.handleFabricStatus)
	return s.middleware(mux)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	_ = enc.Encode(v)
}

// v1Error writes the v1 structured error envelope.
func (s *Server) v1Error(w http.ResponseWriter, r *http.Request, status int, code, format string, args ...any) {
	writeJSON(w, status, api.ErrorResponse{
		Error:     api.Error{Code: code, Message: fmt.Sprintf(format, args...)},
		RequestID: RequestIDFrom(r.Context()),
	})
}

// parseLevelParam resolves the level query parameter through the
// canonical checker.ParseLevel; empty means "checker default".
func parseLevelParam(r *http.Request) (core.Level, error) {
	raw := r.URL.Query().Get("level")
	if raw == "" {
		return "", nil
	}
	return checker.ParseLevel(raw)
}

func (s *Server) handleCheckers(w http.ResponseWriter, r *http.Request) {
	var out []checkerInfo
	for _, c := range s.reg.All() {
		info := checkerInfo{Name: c.Name()}
		for _, l := range c.Levels() {
			info.Levels = append(info.Levels, string(l))
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleFixtures(w http.ResponseWriter, r *http.Request) {
	var names []string
	for _, f := range history.Fixtures() {
		names = append(names, f.Name)
	}
	writeJSON(w, http.StatusOK, names)
}

// handleFixture runs the MTC engine on a named fixture and serves the
// structured Report.
func (s *Server) handleFixture(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	f := history.FixtureByName(name)
	if f == nil {
		s.v1Error(w, r, http.StatusNotFound, api.CodeNotFound, "unknown fixture %q", name)
		return
	}
	lvl, err := parseLevelParam(r)
	if err != nil {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	rep, err := s.reg.Run(r.Context(), "mtc", f.H, checker.Options{Level: lvl})
	if err != nil {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	var req api.SessionRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest, "bad session request: %v", err)
		return
	}
	lvl := core.SI
	if req.Level != "" {
		parsed, err := checker.ParseLevel(req.Level)
		if err != nil {
			s.v1Error(w, r, http.StatusBadRequest, api.CodeUnsupportedLevel, "%v", err)
			return
		}
		lvl = parsed
	}
	switch lvl {
	case core.SER, core.SI:
	default:
		s.v1Error(w, r, http.StatusBadRequest, api.CodeUnsupportedLevel,
			"streaming checker supports levels SER and SI, not %q", req.Level)
		return
	}
	if req.Window < 0 {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest,
			"window must be >= 0, got %d", req.Window)
		return
	}
	window := req.Window
	if window == 0 {
		window = s.DefaultWindow
	}
	sess := &session{lvl: lvl, inc: core.NewIncremental(lvl), window: window}
	sess.touch()
	if len(req.Keys) > 0 {
		sess.inc.InitTxn(req.Keys...)
	}
	max := s.MaxSessions
	if max <= 0 {
		max = DefaultMaxSessions
	}
	s.mu.Lock()
	if len(s.sessions) >= max {
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(defaultRetryAfterS))
		s.v1Error(w, r, http.StatusTooManyRequests, api.CodeSessionLimit,
			"session limit reached (%d live); DELETE finished sessions to free slots", max)
		return
	}
	s.nextID++
	id := "s" + strconv.Itoa(s.nextID)
	s.sessions[id] = sess
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, s.status(id, sess))
}

func (s *Server) lookupSession(id string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// status snapshots a session. Caller must NOT hold sess.mu.
func (s *Server) status(id string, sess *session) api.SessionStatus {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	st := api.SessionStatus{
		ID: id, Level: string(sess.lvl),
		Txns: sess.inc.NumTxns(), Edges: sess.inc.NumEdges(),
		OK: true, Final: sess.stopped,
		Window:          sess.window,
		CompactedEpochs: sess.inc.CompactedEpochs(),
		CompactedTxns:   sess.inc.CompactedTxns(),
		LiveTxns:        sess.inc.LiveNodes(),
		LiveEdges:       sess.inc.LiveEdges(),
	}
	if sess.final != nil {
		st.OK = sess.final.OK
		v := checker.ReportFromResult("mtc-incremental", *sess.final)
		st.Report = &v
	} else if vio := sess.inc.Violation(); vio != nil {
		st.OK = false
		v := checker.ReportFromResult("mtc-incremental", *vio)
		st.Report = &v
	}
	return st
}

func (s *Server) handleSessionTxns(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess := s.lookupSession(id)
	if sess == nil {
		s.v1Error(w, r, http.StatusNotFound, api.CodeNotFound, "unknown session %q", id)
		return
	}
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest, "bad txns payload: %v", err)
		return
	}
	// Accept a single txn object or an array of txns.
	var payloads []api.TxnPayload
	if t := bytes.TrimLeft(raw, " \t\r\n"); len(t) > 0 && t[0] == '[' {
		err = json.Unmarshal(raw, &payloads)
	} else {
		var one api.TxnPayload
		err = json.Unmarshal(raw, &one)
		payloads = []api.TxnPayload{one}
	}
	if err != nil {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest, "bad txns payload: %v", err)
		return
	}
	txns := make([]history.Txn, len(payloads))
	for i, p := range payloads {
		// A missing committed field must not silently demote the txn to
		// aborted — the checker would ignore its reads and could
		// finalize a violating stream as clean.
		if p.Committed == nil {
			s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest, "txn %d: missing required field \"committed\"", i)
			return
		}
		txns[i] = history.Txn{
			Session: p.Sess, Ops: p.Ops, Committed: *p.Committed,
			Start: p.Start, Finish: p.Finish,
		}
	}
	sess.mu.Lock()
	err = sess.ingest(txns)
	sess.mu.Unlock()
	s.writeIngested(w, r, id, sess, err)
}

// writeIngested answers an ingest request: the session status, or
// ingest's refusal as 409 (finalized) or 400 (anything else).
func (s *Server) writeIngested(w http.ResponseWriter, r *http.Request, id string, sess *session, err error) {
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, s.status(id, sess))
	case errors.Is(err, errSessionFinal):
		s.v1Error(w, r, http.StatusConflict, api.CodeConflict, "session %q is finalized", id)
	default:
		s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
	}
}

// handleSessionBatch implements POST /v1/sessions/{id}/batch: one MTCB
// frame — a complete binary document, possibly gzipped — whose
// transactions append to the session's incremental check. The frame
// decodes through the session's IngestArena, so keys intern once per
// session and no per-transaction map or JSON value is materialized; a
// batch is atomic — a frame that fails to decode (or smuggles an init
// record) changes nothing.
func (s *Server) handleSessionBatch(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess := s.lookupSession(id)
	if sess == nil {
		s.v1Error(w, r, http.StatusNotFound, api.CodeNotFound, "unknown session %q", id)
		return
	}
	// Buffer the frame before taking the session lock, so a slow client
	// upload cannot stall verdict polls on the same session.
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest, "bad batch payload: %v", err)
		return
	}
	sess.mu.Lock()
	var txns []history.Txn
	if !sess.stopped { // a finalized session answers 409 whatever the frame holds
		txns, err = sess.decodeFrame(raw)
	}
	if err == nil {
		err = sess.ingest(txns)
	}
	sess.mu.Unlock()
	s.writeIngested(w, r, id, sess, err)
}

// decodeFrame decodes one MTCB document through the session's arena.
// Caller must hold sess.mu.
func (sess *session) decodeFrame(raw []byte) ([]history.Txn, error) {
	if sess.arena == nil {
		sess.arena = history.NewIngestArena()
	}
	fr, err := history.NewBinaryFrameReader(bytes.NewReader(raw), sess.arena)
	var txns []history.Txn
	for err == nil {
		var t history.Txn
		if t, err = fr.Next(); err == nil {
			txns = append(txns, t)
		}
	}
	if err != io.EOF {
		return nil, fmt.Errorf("bad mtcb frame: %w", err)
	}
	return txns, nil
}

func (s *Server) handleSessionVerdict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess := s.lookupSession(id)
	if sess == nil {
		s.v1Error(w, r, http.StatusNotFound, api.CodeNotFound, "unknown session %q", id)
		return
	}
	sess.mu.Lock()
	sess.touch()
	sess.mu.Unlock()
	if final := r.URL.Query().Get("final"); final == "1" || strings.EqualFold(final, "true") {
		sess.mu.Lock()
		if !sess.stopped {
			res := sess.inc.Finalize()
			sess.final = &res
			sess.stopped = true
		}
		sess.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, s.status(id, sess))
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	_, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if !ok {
		s.v1Error(w, r, http.StatusNotFound, api.CodeNotFound, "unknown session %q", id)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
