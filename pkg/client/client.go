// Package client is the typed Go client of the v1 checking service
// served by cmd/mtc-serve. It wraps the async job API (submit, status,
// event stream, cancel), the streaming session API, and the registry
// listing, with context support on every call and automatic retry —
// honouring Retry-After — on 429 and transient 5xx responses.
//
// A minimal round-trip:
//
//	c := client.New("http://localhost:8080")
//	job, err := c.SubmitJob(ctx, client.JobRequest{Level: "SER", History: h})
//	job, err = c.WaitJob(ctx, job.ID)        // follows events until terminal
//	fmt.Println(job.Report.OK)
//
// or, in one call, report, err := c.Check(ctx, req).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mtc/internal/api"
	"mtc/internal/history"
	"mtc/pkg/mtc"
)

// Wire types, re-exported so callers need only this package.
type (
	// JobRequest describes one whole-history check submission.
	JobRequest = api.JobRequest
	// Job is the server's job status document.
	Job = api.Job
	// JobEvent is one line of the job event stream.
	JobEvent = api.JobEvent
	// CheckerInfo describes one registered engine.
	CheckerInfo = api.CheckerInfo
	// SessionStatus is the streaming session status document.
	SessionStatus = api.SessionStatus
	// TxnPayload is the wire form of one streamed transaction.
	TxnPayload = api.TxnPayload
	// FabricStatus is the distributed-fabric status document: registered
	// workers, their queues, and fabric job progress.
	FabricStatus = api.FabricStatus
)

// Job states, re-exported.
const (
	JobQueued   = api.JobQueued
	JobRunning  = api.JobRunning
	JobDone     = api.JobDone
	JobFailed   = api.JobFailed
	JobCanceled = api.JobCanceled
)

// APIError is a non-2xx v1 response decoded from the error envelope.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
	RequestID  string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("mtc api: %d %s: %s", e.StatusCode, e.Code, e.Message)
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithRetries sets the maximum retry attempts for retryable responses
// (429 and transient 5xx). 0 disables retry.
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// Client talks to one v1 server. Safe for concurrent use.
type Client struct {
	base    string
	hc      *http.Client
	retries int
}

// New returns a client for the server at baseURL (e.g.
// "http://localhost:8080"); a trailing slash is tolerated.
func New(baseURL string, opts ...Option) *Client {
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	c := &Client{base: baseURL, hc: http.DefaultClient, retries: 3}
	for _, o := range opts {
		o(c)
	}
	return c
}

// retryable reports whether the response status warrants a retry.
func retryable(status int) bool {
	return status == http.StatusTooManyRequests ||
		status == http.StatusBadGateway ||
		status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

// maxRetryAfter caps the delay a Retry-After header can impose. RFC 9110
// allows both delay-seconds and an HTTP-date, and a misconfigured (or
// hostile) server can send either form minutes or hours out; a client
// stalled that long looks hung, so anything above the cap is clamped.
const maxRetryAfter = 30 * time.Second

// backoff picks the delay before a retry: the server's Retry-After when
// present — either delay-seconds or an HTTP-date per RFC 9110 — else a
// doubling backoff from 50ms. Both forms are capped at maxRetryAfter
// (the doubling form would otherwise overflow at high attempt counts).
func backoff(resp *http.Response, attempt int) time.Duration {
	if resp != nil {
		if d, ok := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
			return d
		}
	}
	if attempt > 30 { // 50ms << 30 already exceeds any sane cap
		return maxRetryAfter
	}
	d := 50 * time.Millisecond << uint(attempt)
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d
}

// parseRetryAfter interprets a Retry-After value relative to now. It
// returns ok=false on an absent or malformed header (the caller falls
// back to its own backoff), and a delay clamped to [0, maxRetryAfter]
// otherwise; a date in the past means "retry now".
func parseRetryAfter(ra string, now time.Time) (time.Duration, bool) {
	if ra == "" {
		return 0, false
	}
	var d time.Duration
	if secs, err := strconv.Atoi(ra); err == nil {
		if secs < 0 {
			return 0, false
		}
		d = time.Duration(secs) * time.Second
	} else if at, err := http.ParseTime(ra); err == nil {
		d = at.Sub(now)
		if d < 0 {
			d = 0
		}
	} else {
		return 0, false
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d, true
}

// do issues one request with retry, decoding a 2xx body into out (when
// non-nil) and a failing body into an *APIError. body is re-marshalled
// per attempt, so retries are safe.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encode request: %w", err)
		}
	}
	return c.doBytes(ctx, method, path, "application/json", payload, out)
}

// doBytes is do with a pre-encoded request body: the retry loop, error
// envelope decoding and 2xx JSON response decoding of do, but the
// payload bytes (and their content type) are the caller's — the raw
// path SendBinary posts MTCB frames through.
func (c *Client) doBytes(ctx context.Context, method, path, contentType string, payload []byte, out any) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		var rd io.Reader
		if payload != nil {
			rd = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return err
		}
		if payload != nil {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
		} else {
			raw, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case rerr != nil:
				lastErr = rerr
			case resp.StatusCode >= 200 && resp.StatusCode < 300:
				if out == nil || len(raw) == 0 {
					return nil
				}
				return json.Unmarshal(raw, out)
			default:
				apiErr := decodeError(resp.StatusCode, raw)
				if !retryable(resp.StatusCode) {
					return apiErr
				}
				lastErr = apiErr
			}
		}
		if attempt >= c.retries {
			return lastErr
		}
		select {
		case <-time.After(backoff(resp, attempt)):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// decodeError maps a failing body to an *APIError: the v1 envelope, or
// the raw body when something other than the server (a proxy) answered.
func decodeError(status int, raw []byte) *APIError {
	var env api.ErrorResponse
	if err := json.Unmarshal(raw, &env); err == nil && env.Error.Message != "" {
		return &APIError{StatusCode: status, Code: env.Error.Code, Message: env.Error.Message, RequestID: env.RequestID}
	}
	return &APIError{StatusCode: status, Message: string(raw)}
}

// Healthy reports whether the server answers its health check.
func (c *Client) Healthy(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Checkers lists the registered verification engines.
func (c *Client) Checkers(ctx context.Context) ([]CheckerInfo, error) {
	var out []CheckerInfo
	err := c.do(ctx, http.MethodGet, "/v1/checkers", nil, &out)
	return out, err
}

// FabricStatus reads the distributed-fabric status of a coordinator
// server (mtc-serve -fabric-wal); other servers answer an *APIError
// with status 400. Jobs run on the fabric when submitted with
// JobRequest.Distributed set.
func (c *Client) FabricStatus(ctx context.Context) (FabricStatus, error) {
	var out FabricStatus
	err := c.do(ctx, http.MethodGet, "/v1/fabric/status", nil, &out)
	return out, err
}

// SubmitJob submits one whole-history check and returns the accepted
// job document (state "queued"). A full queue is retried with backoff
// before surfacing the 429.
func (c *Client) SubmitJob(ctx context.Context, req JobRequest) (Job, error) {
	var out Job
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &out)
	return out, err
}

// GetJob polls one job's status.
func (c *Client) GetJob(ctx context.Context, id string) (Job, error) {
	var out Job
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out)
	return out, err
}

// ListJobs lists the server's known jobs.
func (c *Client) ListJobs(ctx context.Context) ([]Job, error) {
	var out api.JobList
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out)
	return out.Jobs, err
}

// CancelJob cancels and forgets a job; a running worker stops at its
// next cancellation poll.
func (c *Client) CancelJob(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, nil)
}

// WaitJob follows a job's event stream to its terminal event (done,
// failed or canceled), then reads the job document once. A stream that
// breaks off is reopened within the client's retry budget; the endpoint
// replays the job's events from the start.
func (c *Client) WaitJob(ctx context.Context, id string) (Job, error) {
	for attempt := 0; ; attempt++ {
		err := c.StreamEvents(ctx, id, func(JobEvent) error { return nil })
		if err == nil {
			return c.GetJob(ctx, id)
		}
		var apiErr *APIError
		if ctx.Err() != nil || (errors.As(err, &apiErr) && !retryable(apiErr.StatusCode)) || attempt >= c.retries {
			return Job{}, err
		}
		select {
		case <-time.After(backoff(nil, attempt)):
		case <-ctx.Done():
			return Job{}, ctx.Err()
		}
	}
}

// Check submits a job and waits for its verdict — the synchronous
// convenience over the async API. A failed job surfaces as an error.
func (c *Client) Check(ctx context.Context, req JobRequest) (*mtc.Report, error) {
	job, err := c.SubmitJob(ctx, req)
	if err != nil {
		return nil, err
	}
	job, err = c.WaitJob(ctx, job.ID)
	if err != nil {
		return nil, err
	}
	switch job.State {
	case JobDone:
		return job.Report, nil
	case JobCanceled:
		return nil, fmt.Errorf("client: job %s was canceled", job.ID)
	default:
		return nil, fmt.Errorf("client: job %s failed: %s", job.ID, job.Error)
	}
}

// StreamEvents follows a job's NDJSON event stream, invoking fn per
// event until the job is terminal, fn returns an error, or ctx fires.
func (c *Client) StreamEvents(ctx context.Context, id string, fn func(JobEvent) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return decodeError(resp.StatusCode, raw)
	}
	// A decoder, not a line scanner: the terminal event carries the whole
	// report, so an event has no size bound.
	dec := json.NewDecoder(resp.Body)
	for {
		var ev JobEvent
		if err := dec.Decode(&ev); err == io.EOF {
			return io.ErrUnexpectedEOF
		} else if err != nil {
			return fmt.Errorf("client: event stream: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
		if api.JobTerminal(ev.State) {
			return nil
		}
	}
}

// Session is a live streaming verification session on the server.
type Session struct {
	c  *Client
	ID string
}

// SessionOpts configures OpenSessionOpts.
type SessionOpts struct {
	// Level is the isolation level to verify online: SER or SI.
	Level string
	// Keys seed the session with an initial transaction writing 0 to
	// each key.
	Keys []mtc.Key
	// Window bounds the session's server-side verification memory: the
	// online checker is compacted every window/2 transactions, so a
	// long-lived stream holds O(window) state on the server instead of
	// growing without bound. 0 accepts the server's default window.
	Window int
}

// OpenSession opens a streaming session at the level (SER or SI), with
// an initial transaction writing 0 to each key.
func (c *Client) OpenSession(ctx context.Context, level string, keys ...mtc.Key) (*Session, SessionStatus, error) {
	return c.OpenSessionOpts(ctx, SessionOpts{Level: level, Keys: keys})
}

// OpenSessionOpts opens a streaming session with full control over the
// session parameters, including the epoch-compaction window.
func (c *Client) OpenSessionOpts(ctx context.Context, opts SessionOpts) (*Session, SessionStatus, error) {
	var st SessionStatus
	req := api.SessionRequest{Level: opts.Level, Keys: opts.Keys, Window: opts.Window}
	err := c.do(ctx, http.MethodPost, "/v1/sessions", req, &st)
	if err != nil {
		return nil, st, err
	}
	return &Session{c: c, ID: st.ID}, st, nil
}

// Send feeds transactions into the session and returns the running
// status; the report flips as soon as a violation is detected.
func (s *Session) Send(ctx context.Context, txns ...TxnPayload) (SessionStatus, error) {
	var st SessionStatus
	err := s.c.do(ctx, http.MethodPost, "/v1/sessions/"+s.ID+"/txns", txns, &st)
	return st, err
}

// SendBinary feeds transactions as one MTCB binary frame (POST
// /v1/sessions/{id}/batch): the server decodes it through a per-session
// arena with no per-transaction JSON materialization, so this is the
// high-throughput ingest path for large batches. Semantically identical
// to Send — same transactions, same running status back. Every payload
// must carry an explicit Committed flag (the binary record has no
// "unknown" state), and the batch is atomic on the server: a frame that
// fails to encode here or decode there changes nothing.
func (s *Session) SendBinary(ctx context.Context, txns ...TxnPayload) (SessionStatus, error) {
	var st SessionStatus
	var buf bytes.Buffer
	bw, err := history.NewBinaryWriter(&buf, 0)
	if err != nil {
		return st, fmt.Errorf("client: encode mtcb frame: %w", err)
	}
	for i, p := range txns {
		if p.Committed == nil {
			return st, fmt.Errorf("client: txn %d: missing required field Committed", i)
		}
		t := history.Txn{
			ID: i, Session: p.Sess, Ops: p.Ops, Committed: *p.Committed,
			Start: p.Start, Finish: p.Finish,
		}
		if err := bw.WriteTxn(t); err != nil {
			return st, fmt.Errorf("client: encode mtcb frame: %w", err)
		}
	}
	if err := bw.Close(); err != nil {
		return st, fmt.Errorf("client: encode mtcb frame: %w", err)
	}
	err = s.c.doBytes(ctx, http.MethodPost, "/v1/sessions/"+s.ID+"/batch", "application/octet-stream", buf.Bytes(), &st)
	return st, err
}

// Verdict reads the session verdict so far; final=true finalizes the
// stream (classifying still-unresolved reads) and closes the session to
// further transactions.
func (s *Session) Verdict(ctx context.Context, final bool) (SessionStatus, error) {
	path := "/v1/sessions/" + s.ID + "/verdict"
	if final {
		path += "?final=1"
	}
	var st SessionStatus
	err := s.c.do(ctx, http.MethodGet, path, nil, &st)
	return st, err
}

// Close discards the session, freeing its server-side slot.
func (s *Session) Close(ctx context.Context) error {
	return s.c.do(ctx, http.MethodDelete, "/v1/sessions/"+s.ID, nil, nil)
}

// Txn builds a committed TxnPayload for Send.
func Txn(sess int, ops ...mtc.Op) TxnPayload {
	committed := true
	return TxnPayload{Sess: sess, Ops: ops, Committed: &committed}
}
