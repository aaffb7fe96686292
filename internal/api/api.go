// Package api is the wire contract of the v1 checking service: the JSON
// request, response, error-envelope and event types exchanged between
// internal/mtcserve (the server) and pkg/client (the Go SDK). Both sides
// compile against these structs, so the wire format cannot drift between
// them. The payloads embed checker.Report and history.History directly —
// both serialize losslessly since the Report JSON fix.
package api

import (
	"time"

	"mtc/internal/checker"
	"mtc/internal/history"
)

// Error is the structured error body of every failing v1 endpoint.
type Error struct {
	// Code is a stable machine-readable identifier, e.g. "queue_full".
	Code string `json:"code"`
	// Message is the human-readable account.
	Message string `json:"message"`
}

// ErrorResponse is the v1 error envelope.
type ErrorResponse struct {
	Error Error `json:"error"`
	// RequestID echoes the X-Request-Id of the failing request so that
	// server logs can be correlated with client reports.
	RequestID string `json:"request_id,omitempty"`
}

// Stable error codes of the v1 API.
const (
	CodeBadRequest         = "bad_request"
	CodeInvalidHistory     = "invalid_history"
	CodeUnknownChecker     = "unknown_checker"
	CodeUnsupportedLevel   = "unsupported_level"
	CodeUnsupportedHistory = "unsupported_history"
	CodeNotFound           = "not_found"
	CodeConflict           = "conflict"
	CodeQueueFull          = "queue_full"
	CodeSessionLimit       = "session_limit"
	CodeTimeout            = "timeout"
	CodeInternal           = "internal"
)

// CheckerInfo describes one registry entry in GET /v1/checkers.
type CheckerInfo struct {
	Name   string   `json:"name"`
	Levels []string `json:"levels"`
}

// JobRequest is the body of POST /v1/jobs: one whole-history check.
type JobRequest struct {
	// Checker names the engine; empty selects the server default.
	Checker string `json:"checker,omitempty"`
	// Level names the isolation level; empty selects the checker default.
	Level string `json:"level,omitempty"`
	// TimeoutMillis bounds the job's execution time; 0 uses the server
	// default. Values above the server maximum are clamped.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// Parallelism is retired: the engines run serially, and Shard is the
	// one concurrency knob. It stays declared only so a request that
	// still sets it learns why: any non-zero value answers 400
	// bad_request with a message naming the field.
	Parallelism int `json:"parallelism,omitempty"`
	// Shard > 0 checks the job component-sharded (internal/shard): the
	// history is decomposed into its key/session-disjoint components
	// and up to Shard of them are checked concurrently through the
	// named checker. 0 checks unsharded. Negative values, and
	// values exceeding the server's GOMAXPROCS clamp, are rejected with
	// a structured 400; the effective value is echoed in the Job body.
	Shard int `json:"shard,omitempty"`
	// Window bounds the memory of the mtc-incremental engine
	// (checker.Options.Window): the replay is compacted so at most
	// O(window) transactions stay materialised, with identical verdicts.
	// 0 checks unbounded; negative values are rejected; other engines
	// ignore it.
	Window int `json:"window,omitempty"`
	// Distributed routes the job through the checking fabric: the
	// coordinator decomposes the history into its key/session-disjoint
	// components (shard.Split), dispatches them to registered worker
	// processes, and folds the per-component verdicts with the
	// position-preserving merge — bit-identical to single-node sharded
	// checking. The job and its component assignments persist to the
	// coordinator's write-ahead log, so it survives a coordinator
	// restart. Requires a server started as a fabric coordinator
	// (mtc-serve -fabric-wal); others answer 400.
	Distributed bool `json:"distributed,omitempty"`
	// History is the history to verify, in the standard JSON encoding.
	History *history.History `json:"history"`
}

// Job states.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// JobTerminal reports whether state is final.
func JobTerminal(state string) bool {
	return state == JobDone || state == JobFailed || state == JobCanceled
}

// Job is the status document of GET /v1/jobs/{id} and the 202 body of
// POST /v1/jobs.
type Job struct {
	ID      string `json:"id"`
	State   string `json:"state"`
	Checker string `json:"checker"`
	Level   string `json:"level"`
	// Txns is the size of the submitted history.
	Txns int `json:"txns"`
	// Shard echoes the job's shard option — the request is never
	// silently clamped, so it matches the request.
	Shard int `json:"shard,omitempty"`
	// Distributed marks a job executed on the checking fabric rather
	// than the local worker pool.
	Distributed bool `json:"distributed,omitempty"`
	// Report is present once State is "done".
	Report *checker.Report `json:"report,omitempty"`
	// Error is present when State is "failed": the engine error or the
	// timeout that stopped the job.
	Error      string     `json:"error,omitempty"`
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
}

// JobList is the body of GET /v1/jobs.
type JobList struct {
	Jobs []Job `json:"jobs"`
}

// JobEvent is one NDJSON line of GET /v1/jobs/{id}/events: a state
// transition, carrying the report or error once terminal.
type JobEvent struct {
	JobID string `json:"job_id"`
	Seq   int    `json:"seq"`
	State string `json:"state"`
	// Report accompanies the "done" event; Error the "failed" event.
	Report *checker.Report `json:"report,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// SessionRequest is the body of POST /v1/sessions.
type SessionRequest struct {
	Level string        `json:"level"`
	Keys  []history.Key `json:"keys"`
	// Window bounds the session's verification memory: the online
	// checker is compacted every window/2 transactions, so a long-lived
	// stream holds O(window) state instead of growing forever. 0 uses
	// the server's default window (its -window flag; 0 there means
	// unbounded). Negative values are rejected. The window must exceed
	// the store's maximum commit staleness for exact verdicts — staler
	// reads surface as thin-air reads at finalization.
	Window int `json:"window,omitempty"`
}

// TxnPayload is the wire form of one streamed transaction; Committed is
// a pointer so that omitting it is detectable rather than silently
// meaning aborted.
type TxnPayload struct {
	Sess      int          `json:"sess"`
	Ops       []history.Op `json:"ops"`
	Committed *bool        `json:"committed"`
	Start     int64        `json:"start"`
	Finish    int64        `json:"finish"`
}

// SessionStatus is the response of the session endpoints.
type SessionStatus struct {
	ID    string `json:"id"`
	Level string `json:"level"`
	Txns  int    `json:"txns"`
	Edges int    `json:"edges"`
	OK    bool   `json:"ok"`
	Final bool   `json:"final"`
	// Window echoes the session's compaction window (0 = unbounded).
	Window int `json:"window,omitempty"`
	// CompactedEpochs and CompactedTxns report how often epoch
	// compaction has run on this session and how many settled
	// transactions it collapsed; LiveTxns is what remains materialised
	// and LiveEdges the dependency-graph edges among it (summary edges
	// included), which compaction keeps proportional to LiveTxns.
	CompactedEpochs int `json:"compacted_epochs,omitempty"`
	CompactedTxns   int `json:"compacted_txns,omitempty"`
	LiveTxns        int `json:"live_txns,omitempty"`
	LiveEdges       int `json:"live_edges,omitempty"`
	// Report is present as soon as a violation is detected, and always
	// after finalization.
	Report *checker.Report `json:"report,omitempty"`
}
