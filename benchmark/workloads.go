package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"mtc/internal/api"
	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/fabric"
	"mtc/internal/history"
	"mtc/internal/mtcserve"
	"mtc/pkg/client"
)

// scale sizes the corpora of one run.
type scale struct {
	txns     int // transactions per history or capture
	keys     int // key universe per tenant
	sessions int
	window   int // session compaction window
	frame    int // transactions per session frame
	batch    int // histories in the batch-verify corpus
	streams  int // captures in the stream-unbounded corpus
	captures int // captures in the session-windowed corpus
	jobs     int // histories per job family (single-tenant, four-tenant)
}

var (
	// fullScale is what the end-to-end pass measures. The issue sized
	// session captures at 50k transactions; on this machine class one
	// such capture takes over 20 s at window 2048, longer than a run, so
	// captures are 20k like every other corpus.
	fullScale = scale{txns: 20000, keys: 2000, sessions: 16, window: 2048, frame: 1024, batch: 16, streams: 8, captures: 8, jobs: 4}
	// traceScale keeps the shapes and shrinks the corpora, so two full
	// cycles of every workload plus the layer probes fit in one run.
	traceScale = scale{txns: 20000, keys: 2000, sessions: 16, window: 2048, frame: 1024, batch: 4, streams: 4, captures: 1, jobs: 2}
	// quickScale exercises the wiring in a few seconds (go test).
	quickScale = scale{txns: 800, keys: 80, sessions: 8, window: 128, frame: 64, batch: 8, streams: 8, captures: 8, jobs: 4}
)

// env is what a workload's set-up receives.
type env struct {
	seed   int64
	sc     scale
	tmpDir string // parent for temp dirs (the fabric WAL)
}

// rng derives the generator seed of corpus entry i of a workload, so
// corpora are independent of each other and of corpus sizes.
func (e env) rng(salt, i int) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*1000003 + int64(salt)*10007 + int64(i)))
}

// instance is one set-up workload. Operation i is a pure function of
// i, so a run of n operations does the same work every time.
type instance interface {
	// cycle is the number of operations in one full rotation over the
	// corpus and the operation classes.
	cycle() int
	// unit is how many consecutive operations belong together (the
	// frames of one session); a loop stops only on a multiple of it.
	unit() int
	// drivers is the number of closed-loop callers.
	drivers() int
	// do runs operation i and returns the transactions it verified and
	// the time from handing over the bytes to holding the verdict. A
	// wrong verdict is an error.
	do(ctx context.Context, i int, tr *tracer) (txns int, latency time.Duration, err error)
	close() error
}

type workload struct {
	name  string
	setup func(env) (instance, error)
}

var workloads = []workload{
	{"batch-verify", setupBatch},
	{"stream-unbounded", setupStream},
	{"session-windowed", setupSession},
	{"serve-jobs", setupJobs},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// verify checks a report against the answer known by construction: the
// verdict at lvl (the strongest satisfied level for the profiler), and
// that a violation report points at the plant.
func (g *generated) verify(engine string, lvl core.Level, rep *checker.Report) error {
	if engine == "profile" {
		if rep.StrongestLevel != g.plant.strongest() {
			return fmt.Errorf("%s history: profile says strongest level %s, want %s", g.plant, rep.StrongestLevel, g.plant.strongest())
		}
		return nil
	}
	if want := g.plant.satisfies(lvl); rep.OK != want {
		return fmt.Errorf("%s history at %s: verdict ok=%v, want %v (%s)", g.plant, lvl, rep.OK, want, rep.Detail)
	}
	if !rep.OK && !g.named(rep) {
		return fmt.Errorf("%s history at %s: violation report does not name the planted transactions %v or keys %v: %+v", g.plant, lvl, g.planted, g.fresh, rep)
	}
	return nil
}

// named reports whether a violation report points at the plant: a
// planted transaction id among its anomalies or cycle edges, or — for
// witnesses that carry ids only as prose in component-local numbering
// (the SI divergence of a sharded job) — a planted key.
func (g *generated) named(rep *checker.Report) bool {
	txn := func(id int) bool { return id == g.planted[0] || id == g.planted[1] }
	key := func(k string) bool { return k == string(g.fresh[0]) || k == string(g.fresh[1]) }
	for _, a := range rep.Anomalies {
		if txn(a.Txn) || key(string(a.Key)) {
			return true
		}
	}
	for _, e := range rep.Cycle {
		if txn(e.From) || txn(e.To) || key(e.Obj) {
			return true
		}
	}
	return strings.Contains(rep.Detail, string(g.fresh[0])) || strings.Contains(rep.Detail, string(g.fresh[1]))
}

// ---- batch-verify ----

var batchKinds = []struct {
	engine string
	lvl    core.Level
	span   string
}{
	{"mtc", core.SER, "core.check.ser"},
	{"mtc", core.SI, "core.check.si"},
	{"mtc", core.SSER, "core.check.sser"},
	{"profile", core.SER, "levels.profile"},
}

// batchPlants is the rotation of plants over the violating quarter of a
// batch or job corpus.
var batchPlants = []plant{plantLostUpdate, plantWriteSkew, plantStaleRead}

type batchInst struct {
	corpus []generated
	mtcb   [][]byte
}

func setupBatch(e env) (instance, error) {
	b := &batchInst{}
	for i := 0; i < e.sc.batch; i++ {
		sp := spec{txns: e.sc.txns, sessions: e.sc.sessions, keys: e.sc.keys}
		if i%4 == 3 {
			sp.plant = batchPlants[(i/4)%len(batchPlants)]
		}
		g := generate(e.rng(1, i), sp)
		var buf bytes.Buffer
		if err := history.WriteMTCB(&buf, g.h); err != nil {
			return nil, err
		}
		b.corpus = append(b.corpus, g)
		b.mtcb = append(b.mtcb, buf.Bytes())
	}
	return b, nil
}

func (b *batchInst) cycle() int   { return len(b.corpus) * len(batchKinds) }
func (b *batchInst) unit() int    { return 1 }
func (b *batchInst) drivers() int { return 1 }
func (b *batchInst) close() error { return nil }

// do is the mtc-verify shape: MTCB bytes to an indexed history, one
// engine run on the prebuilt index, the report as JSON. The class
// shifts by one every pass over the corpus, so every history meets
// every class.
func (b *batchInst) do(ctx context.Context, i int, tr *tracer) (int, time.Duration, error) {
	n := len(b.corpus)
	g, kind := &b.corpus[i%n], batchKinds[(i+i/n)%len(batchKinds)]
	start := time.Now()
	ix, err := history.ReadMTCBIndexed(bytes.NewReader(b.mtcb[i%n]))
	if err != nil {
		return 0, 0, err
	}
	decoded := time.Now()
	rep, err := checker.Run(ctx, kind.engine, ix.History(), checker.Options{Level: kind.lvl, Index: ix, SparseRT: true})
	if err != nil {
		return 0, 0, err
	}
	checked := time.Now()
	if _, err := json.Marshal(&rep); err != nil {
		return 0, 0, err
	}
	end := time.Now()
	if tr != nil {
		encode := "checker.report_encode.ok"
		if !rep.OK {
			encode = "checker.report_encode.violating"
		}
		root := tr.add("batch-verify.op", i, 0, start, end)
		tr.add("history.mtcb_index_decode", i, root, start, decoded)
		tr.add(kind.span, i, root, decoded, checked)
		tr.add(encode, i, root, checked, end)
	}
	return len(g.h.Txns) - 1, end.Sub(start), g.verify(kind.engine, kind.lvl, &rep)
}

// ---- stream-unbounded ----

var streamLevels = []core.Level{core.SER, core.SI}

// generateCaptures builds a stream corpus: one capture in eight carries
// a lost update (the plant that violates both streamable levels) in its
// last 1%, so a violating capture costs the same as a clean one.
func generateCaptures(e env, salt, n int) []generated {
	out := make([]generated, n)
	for i := range out {
		sp := spec{txns: e.sc.txns, sessions: e.sc.sessions, keys: e.sc.keys, tail: true}
		if i%8 == 7 {
			sp.plant = plantLostUpdate
		}
		out[i] = generate(e.rng(salt, i), sp)
	}
	return out
}

type streamInst struct {
	corpus []generated
	ndjson [][]byte
}

func setupStream(e env) (instance, error) {
	s := &streamInst{corpus: generateCaptures(e, 2, e.sc.streams)}
	for _, g := range s.corpus {
		var buf bytes.Buffer
		if err := history.WriteNDJSON(&buf, g.h); err != nil {
			return nil, err
		}
		s.ndjson = append(s.ndjson, buf.Bytes())
	}
	return s, nil
}

func (s *streamInst) cycle() int   { return len(s.corpus) * len(streamLevels) }
func (s *streamInst) unit() int    { return 1 }
func (s *streamInst) drivers() int { return 1 }
func (s *streamInst) close() error { return nil }

// do is the mtc-verify -stream shape: NDJSON bytes through the
// streaming reader into the online checker, no window.
func (s *streamInst) do(ctx context.Context, i int, tr *tracer) (int, time.Duration, error) {
	n := len(s.corpus)
	g, lvl := &s.corpus[i%n], streamLevels[(i+i/n)%len(streamLevels)]
	start := time.Now()
	src, err := history.NewAutoStreamReader(bytes.NewReader(s.ndjson[i%n]))
	if err != nil {
		return 0, 0, err
	}
	res, err := core.CheckStreamCtx(ctx, src, lvl, 0, 0)
	if err != nil {
		return 0, 0, err
	}
	end := time.Now()
	tr.add("stream-unbounded.op", i, 0, start, end)
	rep := checker.ReportFromResult("mtc-incremental", res)
	return len(g.h.Txns) - 1, end.Sub(start), g.verify("mtc-incremental", lvl, &rep)
}

// ---- HTTP plumbing shared by the two serving workloads ----

// opTimeout is the per-operation limit; exceeding it is a failure.
const opTimeout = 10 * time.Second

type httpCaller struct {
	base string
	hc   *http.Client
}

// call sends one request and decodes a JSON answer into out (when not
// nil). Any status other than want is an error carrying the body.
func (c httpCaller) call(ctx context.Context, method, path, contentType string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return &statusError{status: resp.StatusCode, body: string(raw)}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

type statusError struct {
	status int
	body   string
}

func (e *statusError) Error() string { return fmt.Sprintf("http status %d: %s", e.status, e.body) }

// ---- session-windowed ----

// sessionLevel is the level every session checks. SER only: one 20k
// capture at SI spends 10 s and more compacting on this machine class,
// which no run length here can hold ten times over.
const sessionLevel = core.SER

type sessionInst struct {
	corpus []generated
	frames [][][]byte // capture -> frame -> MTCB document
	open   []byte     // POST /v1/sessions body (every capture has the same keys)
	perCap int        // frames per capture
	frame  int        // transactions per frame

	srv *mtcserve.Server
	ts  *httptest.Server
	httpCaller

	id string // the session in flight; there is one driver
}

// encodeFrames cuts a capture (without its init transaction, which the
// session open declares) into MTCB documents of at most frame
// transactions, the shape pkg/client's SendBinary posts.
func encodeFrames(h *history.History, frame int) ([][]byte, error) {
	var out [][]byte
	for lo := 1; lo < len(h.Txns); lo += frame {
		hi := min(lo+frame, len(h.Txns))
		var buf bytes.Buffer
		bw, err := history.NewBinaryWriter(&buf, 0)
		if err != nil {
			return nil, err
		}
		for j, t := range h.Txns[lo:hi] {
			t.ID = j
			if err := bw.WriteTxn(t); err != nil {
				return nil, err
			}
		}
		if err := bw.Close(); err != nil {
			return nil, err
		}
		out = append(out, buf.Bytes())
	}
	return out, nil
}

func setupSession(e env) (instance, error) {
	s := &sessionInst{corpus: generateCaptures(e, 3, e.sc.captures), frame: e.sc.frame}
	for _, g := range s.corpus {
		fr, err := encodeFrames(g.h, e.sc.frame)
		if err != nil {
			return nil, err
		}
		s.frames = append(s.frames, fr)
	}
	s.perCap = len(s.frames[0])
	// Every capture's init transaction declares the same keys: the
	// universe plus the two fresh ones a clean capture never touches.
	var err error
	if s.open, err = json.Marshal(api.SessionRequest{Level: string(sessionLevel), Keys: initKeys(s.corpus[0].h), Window: e.sc.window}); err != nil {
		return nil, err
	}
	s.srv = mtcserve.NewServer(nil)
	s.ts = httptest.NewServer(s.srv.Handler())
	s.httpCaller = httpCaller{base: s.ts.URL, hc: s.ts.Client()}
	return s, nil
}

func (s *sessionInst) cycle() int   { return len(s.corpus) * s.perCap }
func (s *sessionInst) unit() int    { return s.perCap }
func (s *sessionInst) drivers() int { return 1 }

func (s *sessionInst) close() error {
	s.ts.Close()
	s.srv.Close()
	return nil
}

// do posts one frame. The first frame of a capture opens the session
// and the last one finalizes, asserts the verdict and deletes it; those
// calls are inside the measured window but outside the frame's latency.
func (s *sessionInst) do(ctx context.Context, i int, tr *tracer) (int, time.Duration, error) {
	n := len(s.corpus)
	c, f := (i/s.perCap)%n, i%s.perCap
	g := &s.corpus[c]
	if f == 0 {
		var st api.SessionStatus
		start := time.Now()
		if err := s.call(ctx, http.MethodPost, "/v1/sessions", "application/json", s.open, http.StatusCreated, &st); err != nil {
			return 0, 0, fmt.Errorf("open session: %w", err)
		}
		tr.add("mtcserve.session_open", i, 0, start, time.Now())
		s.id = st.ID
	}
	frame := s.frames[c][f]
	var st api.SessionStatus
	start := time.Now()
	if err := s.call(ctx, http.MethodPost, "/v1/sessions/"+s.id+"/batch", "application/octet-stream", frame, http.StatusOK, &st); err != nil {
		return 0, 0, fmt.Errorf("frame %d: %w", f, err)
	}
	end := time.Now()
	tr.add("mtcserve.session_frame", i, 0, start, end)
	txns := min(s.frame, len(g.h.Txns)-1-f*s.frame)
	if f < s.perCap-1 {
		return txns, end.Sub(start), nil
	}
	fin := time.Now()
	if err := s.call(ctx, http.MethodGet, "/v1/sessions/"+s.id+"/verdict?final=1", "", nil, http.StatusOK, &st); err != nil {
		return 0, 0, fmt.Errorf("final verdict: %w", err)
	}
	tr.add("mtcserve.session_finalize", i, 0, fin, time.Now())
	if err := s.call(ctx, http.MethodDelete, "/v1/sessions/"+s.id, "", nil, http.StatusNoContent, nil); err != nil {
		return 0, 0, fmt.Errorf("delete session: %w", err)
	}
	if st.Report == nil {
		return 0, 0, errors.New("final verdict carries no report")
	}
	// The online checker stops counting at its first violation.
	if st.OK && st.Txns != len(g.h.Txns) {
		return 0, 0, fmt.Errorf("session saw %d transactions, want %d", st.Txns, len(g.h.Txns))
	}
	return txns, end.Sub(start), g.verify("mtc-incremental", sessionLevel, st.Report)
}

// ---- serve-jobs ----

// jobClasses rotate with the operation index. The distributed class is
// the slowest third, so it owns the 90th percentile.
var jobClasses = []struct {
	name  string
	multi bool // the four-tenant family
	req   api.JobRequest
}{
	{"local", false, api.JobRequest{Checker: "mtc", Level: "SER"}},
	{"shard", true, api.JobRequest{Checker: "mtc", Level: "SI", Shard: 2}},
	{"distributed", true, api.JobRequest{Checker: "mtc", Level: "SI", Distributed: true}},
}

type jobsInst struct {
	single, multi []generated
	bodies        [][][]byte // class -> history -> POST /v1/jobs body

	srv    *mtcserve.Server
	ts     *httptest.Server
	coord  *fabric.Coordinator
	walDir string
	sdk    *client.Client
	httpCaller

	stopWorkers context.CancelFunc
	workerErr   chan error // one value per fabric worker, sent when it returns

	refused     atomic.Int64 // 429 answers
	resubmitted atomic.Int64 // jobs that lost the submit/dispatch race (see lostRace)
}

func setupJobs(e env) (instance, error) {
	j := &jobsInst{}
	for i := 0; i < e.sc.jobs; i++ {
		one := spec{txns: e.sc.txns, sessions: e.sc.sessions, keys: e.sc.keys}
		four := spec{txns: e.sc.txns, sessions: e.sc.sessions, keys: e.sc.keys / 4, tenants: 4}
		if i%4 == 3 {
			// Write skew violates SER (the local class); only a lost
			// update violates SI (the sharded and distributed classes).
			one.plant, four.plant = plantWriteSkew, plantLostUpdate
		}
		j.single = append(j.single, generate(e.rng(4, i), one))
		j.multi = append(j.multi, generate(e.rng(5, i), four))
	}
	for _, class := range jobClasses {
		family := j.single
		if class.multi {
			family = j.multi
		}
		var bodies [][]byte
		for _, g := range family {
			req := class.req
			req.History = g.h
			body, err := json.Marshal(&req)
			if err != nil {
				return nil, err
			}
			bodies = append(bodies, body)
		}
		j.bodies = append(j.bodies, bodies)
	}

	nproc := runtime.GOMAXPROCS(0)
	var err error
	if j.walDir, err = os.MkdirTemp(e.tmpDir, "fabric-wal-"); err != nil {
		return nil, err
	}
	if j.coord, err = fabric.Open(j.walDir+"/fabric.wal", fabric.Config{}); err != nil {
		os.RemoveAll(j.walDir)
		return nil, err
	}
	j.srv = mtcserve.NewServer(nil)
	j.srv.Workers = nproc
	j.srv.Fabric = j.coord
	j.ts = httptest.NewServer(j.srv.Handler())
	j.httpCaller = httpCaller{base: j.ts.URL, hc: j.ts.Client()}
	j.sdk = client.New(j.ts.URL, client.WithHTTPClient(j.hc))

	ctx, cancel := context.WithCancel(context.Background())
	j.stopWorkers = cancel
	j.workerErr = make(chan error, nproc) // one slot per worker: none blocks on exit
	for w := 0; w < nproc; w++ {
		go func() {
			// 2 ms idle poll, so the latency of a distributed job is the
			// fabric's work and not the default 200 ms poll quantum.
			j.workerErr <- fabric.RunWorker(ctx, fabric.WorkerConfig{
				Coordinator: j.ts.URL, Name: fmt.Sprintf("bench-w%d", w),
				Client: j.hc, PollInterval: 2 * time.Millisecond,
			})
		}()
	}
	return j, nil
}

func (j *jobsInst) cycle() int   { return len(jobClasses) * len(j.single) }
func (j *jobsInst) unit() int    { return 1 }
func (j *jobsInst) drivers() int { return runtime.GOMAXPROCS(0) }

// close stops the workers, the HTTP server, the job pool and the
// coordinator, in the order that lets each drain, and removes the WAL.
func (j *jobsInst) close() error {
	j.stopWorkers()
	var errs []error
	for w := 0; w < cap(j.workerErr); w++ {
		if err := <-j.workerErr; err != nil && !errors.Is(err, context.Canceled) {
			errs = append(errs, fmt.Errorf("fabric worker: %w", err))
		}
	}
	j.ts.Close()
	j.srv.Close()
	errs = append(errs, j.coord.Close(), os.RemoveAll(j.walDir))
	return errors.Join(errs...)
}

// lostRace is the error of a distributed job that a pool worker picked
// up before handleJobSubmit had registered it with the coordinator (the
// handler enqueues first and calls Fabric.Submit second). About one
// distributed job in 400 loses that race at the seed commit. The
// benchmark changes no product code, so it does what a caller would:
// submits again, keeps the lost attempt inside the operation's latency,
// and counts it (mtcserve.resubmitted_jobs).
const lostRace = "fabric: unknown job"

// do submits one pre-encoded job and follows its event stream to the
// terminal event, so no poll interval is in the latency.
func (j *jobsInst) do(ctx context.Context, i int, tr *tracer) (int, time.Duration, error) {
	ci := i % len(jobClasses)
	class := jobClasses[ci]
	hi := (i / len(jobClasses)) % len(j.single)
	g := &j.single[hi]
	if class.multi {
		g = &j.multi[hi]
	}
	var (
		job              api.Job
		last             api.JobEvent
		posted, accepted time.Time
	)
	start := time.Now()
	for attempt := 1; ; attempt++ {
		posted = time.Now()
		if err := j.call(ctx, http.MethodPost, "/v1/jobs", "application/json", j.bodies[ci][hi], http.StatusAccepted, &job); err != nil {
			var se *statusError
			if errors.As(err, &se) && se.status == http.StatusTooManyRequests {
				j.refused.Add(1)
			}
			return 0, 0, fmt.Errorf("submit: %w", err)
		}
		accepted = time.Now()
		err := j.sdk.StreamEvents(ctx, job.ID, func(ev api.JobEvent) error {
			last = ev
			return nil
		})
		if err != nil {
			return 0, 0, fmt.Errorf("events: %w", err)
		}
		if last.State != api.JobFailed || !strings.Contains(last.Error, lostRace) || attempt == 3 {
			break
		}
		j.resubmitted.Add(1)
	}
	end := time.Now()
	if last.State != api.JobDone || last.Report == nil {
		return 0, 0, fmt.Errorf("job %s ended %s: %s", job.ID, last.State, last.Error)
	}
	if tr != nil {
		// The server's own timestamps split the operation; they are read
		// after the verdict is held, outside the latency.
		if err := j.call(ctx, http.MethodGet, "/v1/jobs/"+job.ID, "", nil, http.StatusOK, &job); err != nil {
			return 0, 0, fmt.Errorf("job status: %w", err)
		}
		if job.StartedAt == nil || job.FinishedAt == nil {
			return 0, 0, fmt.Errorf("job %s has no timestamps", job.ID)
		}
		root := tr.add("serve-jobs.op."+class.name, i, 0, start, end)
		tr.add("mtcserve.submit", i, root, posted, accepted)
		tr.add("mtcserve.queue_wait", i, root, job.CreatedAt, *job.StartedAt)
		tr.add("mtcserve.run", i, root, *job.StartedAt, *job.FinishedAt)
		tr.add("mtcserve.notify", i, root, *job.FinishedAt, end)
	}
	return len(g.h.Txns) - 1, end.Sub(start), g.verify(class.req.Checker, core.Level(class.req.Level), last.Report)
}
