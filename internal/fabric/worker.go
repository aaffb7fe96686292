package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"

	"mtc/internal/api"
	"mtc/internal/checker"
	"mtc/internal/history"
)

// WorkerConfig tunes RunWorker.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. "http://host:8080".
	Coordinator string
	// Name labels the worker in coordinator logs and status output.
	Name string
	// Registry resolves the engines component tasks name; nil selects
	// checker.Default.
	Registry *checker.Registry
	// Logger receives the worker's progress log; nil discards it.
	Logger *slog.Logger
	// Client is the HTTP client used for every coordinator call; nil
	// selects a client with a 30s timeout.
	Client *http.Client
	// PollInterval is the idle wait between empty pulls (default 200ms,
	// lowered to half the lease's heartbeat interval if that is shorter —
	// an idle worker's pulls double as its heartbeats).
	PollInterval time.Duration
}

// errLeaseLost marks a 404 from a fabric endpoint: the coordinator does
// not know our worker id — typically because it restarted, and a lease
// names the incarnation that issued it. The loop re-registers and
// continues; any in-flight work is abandoned (the restart or the
// liveness sweep already requeued it, and the coordinator refuses a
// result pushed under a dead lease).
var errLeaseLost = errors.New("fabric: worker lease lost")

// RunWorker runs the worker loop against the coordinator until ctx is
// done: register (with retry), then pull component tasks, check them
// with the named base engine, and push the verdicts. While a check
// runs, a heartbeat ticker keeps the lease alive — that is the only
// time explicit beats are needed, since pulls themselves refresh the
// lease. The check executes on a goroutine joined by channel receive on
// every path, so RunWorker never leaks.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	w := &workerClient{
		base: cfg.Coordinator, name: cfg.Name,
		reg: cfg.Registry, logger: cfg.Logger, hc: cfg.Client,
		poll: cfg.PollInterval,
	}
	if w.reg == nil {
		w.reg = checker.Default
	}
	if w.logger == nil {
		w.logger = discardLogger
	}
	if w.hc == nil {
		w.hc = &http.Client{Timeout: 30 * time.Second}
	}
	if w.poll <= 0 {
		w.poll = 200 * time.Millisecond
	}
	return w.run(ctx)
}

// workerClient is the worker side of the fabric wire contract.
type workerClient struct {
	base   string
	name   string
	reg    *checker.Registry
	logger *slog.Logger
	hc     *http.Client
	poll   time.Duration

	lease api.WorkerLease
}

func (w *workerClient) run(ctx context.Context) error {
	for {
		if err := w.register(ctx); err != nil {
			return err
		}
		err := w.serve(ctx)
		if err == nil {
			return nil // ctx done, clean exit
		}
		if errors.Is(err, errLeaseLost) {
			w.logger.Info("fabric worker: lease lost, re-registering", "lease", w.lease.ID)
			continue
		}
		return err
	}
}

// register announces the worker, retrying with backoff until the
// coordinator answers (it may not be up yet) or ctx is done.
func (w *workerClient) register(ctx context.Context) error {
	backoff := 250 * time.Millisecond
	for {
		var lease api.WorkerLease
		hello := api.WorkerHello{Name: w.name, Codecs: []string{"mtcb"}}
		status, err := w.post(ctx, "/v1/fabric/workers", hello, &lease)
		if err == nil && status == http.StatusCreated && lease.ID != "" {
			w.lease = lease
			w.logger.Info("fabric worker: registered", "lease", lease.ID, "heartbeat_ms", lease.HeartbeatMillis)
			return nil
		}
		if err == nil {
			err = fmt.Errorf("fabric worker: registration answered status %d", status)
		}
		w.logger.Info("fabric worker: registration failed, retrying", "err", err)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// serve pulls and executes tasks under the current lease. Returns nil
// when ctx is done, errLeaseLost when the lease must be re-acquired.
func (w *workerClient) serve(ctx context.Context) error {
	hbEvery := time.Duration(w.lease.HeartbeatMillis) * time.Millisecond
	if hbEvery <= 0 {
		hbEvery = time.Second
	}
	idle := w.poll
	if half := hbEvery / 2; half < idle {
		idle = half
	}
	for {
		if ctx.Err() != nil {
			return nil
		}
		task, err := w.pull(ctx)
		if err != nil {
			if errors.Is(err, errLeaseLost) || ctx.Err() != nil {
				return err
			}
			w.logger.Info("fabric worker: pull failed", "err", err)
			task = nil
		}
		if task == nil {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(idle):
			}
			continue
		}
		if err := w.execute(ctx, task, hbEvery); err != nil {
			return err
		}
	}
}

// pulledTask is a claimed component: the task, and its payload decoded
// to a columnar index or the reason it did not decode.
type pulledTask struct {
	api.FabricTask
	ix  *history.Index
	bad error
}

// execute checks one component and pushes its verdict, heartbeating
// while the engine runs. The columnar index rides along in the checker
// options so the MTC engine skips its own intern-and-build pass.
func (w *workerClient) execute(ctx context.Context, pt *pulledTask, hbEvery time.Duration) error {
	task, ix := &pt.FabricTask, pt.ix
	if pt.bad != nil {
		// A payload we cannot decode will never decode on retry: report
		// the failure so the coordinator fails the job instead of the
		// component ping-ponging between workers.
		w.logger.Info("fabric worker: payload decode failed",
			"job", task.Job, "component", task.Component, "err", pt.bad)
		return w.push(ctx, api.FabricResult{
			Job: task.Job, Component: task.Component, Epoch: task.Epoch,
			Error: fmt.Sprintf("decoding mtcb component payload: %v", pt.bad),
		})
	}
	h := ix.History()
	opts := checker.Options{Level: checker.Level(task.Level), Window: task.Window, Index: ix}
	w.logger.Info("fabric worker: checking component",
		"job", task.Job, "component", task.Component, "epoch", task.Epoch,
		"checker", task.Checker, "txns", len(h.Txns))
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		rep checker.Report
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		rep, err := w.reg.Run(runCtx, task.Checker, h, opts)
		resCh <- outcome{rep, err}
	}()
	ticker := time.NewTicker(hbEvery)
	defer ticker.Stop()
	var res outcome
	leaseLost := false
	for done := false; !done; {
		select {
		case res = <-resCh:
			done = true
		case <-ticker.C:
			if err := w.heartbeat(ctx); errors.Is(err, errLeaseLost) {
				// The coordinator forgot us (restart): the component was
				// requeued, so finishing this check is wasted work and its
				// push would be refused. Abandon it.
				leaseLost = true
				cancel()
			}
		case <-ctx.Done():
			cancel()
			res = <-resCh // join the check goroutine
			return nil
		}
	}
	if leaseLost {
		return errLeaseLost
	}
	out := api.FabricResult{Job: task.Job, Component: task.Component, Epoch: task.Epoch}
	if res.err != nil {
		if runCtx.Err() != nil && ctx.Err() != nil {
			return nil // shutdown raced the engine; nothing to report
		}
		out.Error = res.err.Error()
	} else {
		out.Report = &res.rep
	}
	return w.push(ctx, out)
}

// pull claims the next task; nil task with nil error means idle. The
// response body is the component's MTCB document, decoded as it
// arrives; a transport failure while reading it is a failed pull, while
// bytes that do not decode are the task's to report.
func (w *workerClient) pull(ctx context.Context) (*pulledTask, error) {
	path := "/v1/fabric/workers/" + w.lease.ID + "/pull"
	resp, err := w.send(ctx, path, struct{}{})
	if err != nil {
		return nil, err
	}
	defer closeBody(resp)
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound:
		return nil, errLeaseLost
	case http.StatusNoContent:
		return nil, nil
	default:
		return nil, fmt.Errorf("fabric worker: pull answered status %d", resp.StatusCode)
	}
	pt := &pulledTask{}
	if err := json.Unmarshal([]byte(resp.Header.Get(api.FabricTaskHeader)), &pt.FabricTask); err != nil {
		return nil, fmt.Errorf("fabric worker: decoding %s task header: %w", path, err)
	}
	body := &bodyReader{r: resp.Body}
	pt.ix, pt.bad = history.ReadMTCBIndexed(body)
	if body.err != nil {
		return nil, fmt.Errorf("fabric worker: reading %s body: %w", path, body.err)
	}
	return pt, nil
}

// bodyReader remembers the first transport error of a response body.
type bodyReader struct {
	r   io.Reader
	err error
}

func (b *bodyReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err != nil && err != io.EOF && b.err == nil {
		b.err = err
	}
	return n, err
}

func (w *workerClient) heartbeat(ctx context.Context) error {
	status, err := w.post(ctx, "/v1/fabric/workers/"+w.lease.ID+"/heartbeat", struct{}{}, nil)
	if err != nil {
		return err
	}
	if status == http.StatusNotFound {
		return errLeaseLost
	}
	return nil
}

// push reports a component verdict, retrying transient failures: a live
// worker must never silently drop a result, or its component would hang
// in-flight until the job is cancelled. A 404 means the lease (and with
// it the in-flight assignment) died with a coordinator restart — the
// restarted coordinator has requeued the component, so the result is
// abandoned and the caller re-registers.
func (w *workerClient) push(ctx context.Context, res api.FabricResult) error {
	backoff := 250 * time.Millisecond
	for {
		var ack api.FabricAck
		status, err := w.post(ctx, "/v1/fabric/workers/"+w.lease.ID+"/results", res, &ack)
		switch {
		case err == nil && status == http.StatusNotFound:
			return errLeaseLost
		case err == nil && status == http.StatusOK:
			if !ack.Accepted {
				w.logger.Info("fabric worker: result discarded as stale",
					"job", res.Job, "component", res.Component, "epoch", res.Epoch)
			}
			return nil
		case err == nil:
			err = fmt.Errorf("fabric worker: result push answered status %d", status)
		}
		if ctx.Err() != nil {
			return nil
		}
		w.logger.Info("fabric worker: result push failed, retrying", "err", err)
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// post sends one JSON request and decodes the response body into out
// (when non-nil and the status has a body). The status code is returned
// for the caller to interpret; only transport failures are errors.
func (w *workerClient) post(ctx context.Context, path string, in, out any) (int, error) {
	resp, err := w.send(ctx, path, in)
	if err != nil {
		return 0, err
	}
	defer closeBody(resp)
	if out != nil && resp.StatusCode >= 200 && resp.StatusCode < 300 && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("fabric worker: decoding %s response: %w", path, err)
		}
	}
	return resp.StatusCode, nil
}

// send posts in as plain JSON; the caller closes the response
// (closeBody).
func (w *workerClient) send(ctx context.Context, path string, in any) (*http.Response, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return w.hc.Do(req)
}

// closeBody drains and closes a response body, so the connection is
// reused.
func closeBody(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
}
