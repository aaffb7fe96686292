package mtcserve

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"strconv"
	"time"

	"mtc/internal/api"
	"mtc/internal/checker"
	"mtc/internal/fabric"
)

// Fabric endpoints: the coordinator side of the distributed checking
// fabric, mounted whenever the server was started as a coordinator
// (Server.Fabric non-nil, i.e. mtc-serve -fabric-wal). The handlers are
// thin: scheduling, durability and liveness all live in
// internal/fabric; this layer only translates the coordinator's errors
// into the v1 envelope. An ErrUnknownWorker maps to 404 — the signal
// that makes a worker whose lease died with a coordinator restart
// re-register.

// handleFabricRegister implements POST /v1/fabric/workers.
func (s *Server) handleFabricRegister(w http.ResponseWriter, r *http.Request) {
	if s.Fabric == nil {
		s.fabricDisabled(w, r)
		return
	}
	var hello api.WorkerHello
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&hello); err != nil && err != io.EOF {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest, "bad worker hello: %v", err)
		return
	}
	// Every task ships its component as MTCB; a worker that cannot
	// decode it is a version-skewed binary, refused here rather than at
	// its first pull.
	if !slices.Contains(hello.Codecs, "mtcb") {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest,
			`worker hello must list the "mtcb" codec (got %q): coordinator and workers must run the same release`, hello.Codecs)
		return
	}
	writeJSON(w, http.StatusCreated, s.Fabric.Register(hello))
}

// handleFabricHeartbeat implements POST /v1/fabric/workers/{id}/heartbeat.
func (s *Server) handleFabricHeartbeat(w http.ResponseWriter, r *http.Request) {
	if s.Fabric == nil {
		s.fabricDisabled(w, r)
		return
	}
	if err := s.Fabric.Heartbeat(r.PathValue("id")); err != nil {
		s.fabricError(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleFabricPull implements POST /v1/fabric/workers/{id}/pull: 200
// with a task (see api.ContentTypeMTCB), or 204 when no work is
// available.
func (s *Server) handleFabricPull(w http.ResponseWriter, r *http.Request) {
	if s.Fabric == nil {
		s.fabricDisabled(w, r)
		return
	}
	task, err := s.Fabric.Pull(r.PathValue("id"))
	if err != nil {
		s.fabricError(w, r, err)
		return
	}
	if task == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	hdr, err := json.Marshal(task)
	if err != nil {
		s.v1Error(w, r, http.StatusInternalServerError, api.CodeInternal, "%v", err)
		return
	}
	// The cached component bytes are the body as they are: MTCB is
	// already the compact form, so there is no envelope and no gzip.
	w.Header().Set(api.FabricTaskHeader, string(hdr))
	w.Header().Set("Content-Type", api.ContentTypeMTCB)
	w.Header().Set("Content-Length", strconv.Itoa(len(task.HistoryMTCB)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(task.HistoryMTCB)
}

// handleFabricResults implements POST /v1/fabric/workers/{id}/results.
func (s *Server) handleFabricResults(w http.ResponseWriter, r *http.Request) {
	if s.Fabric == nil {
		s.fabricDisabled(w, r)
		return
	}
	// Workers gzip large result bodies (fabric.GzipThreshold); inflate
	// transparently, re-bounding the decompressed stream by the body
	// limit so a compression bomb cannot bypass MaxBytesHandler.
	body := io.Reader(r.Body)
	if r.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(r.Body)
		if err != nil {
			s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest, "bad gzip fabric result body: %v", err)
			return
		}
		defer zr.Close()
		body = io.LimitReader(zr, s.maxBodyBytes())
	}
	var res api.FabricResult
	if err := json.NewDecoder(body).Decode(&res); err != nil {
		s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest, "bad fabric result: %v", err)
		return
	}
	accepted, err := s.Fabric.PushResult(r.PathValue("id"), res)
	if err != nil {
		s.fabricError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, api.FabricAck{Accepted: accepted})
}

// handleFabricStatus implements GET /v1/fabric/status.
func (s *Server) handleFabricStatus(w http.ResponseWriter, r *http.Request) {
	if s.Fabric == nil {
		s.fabricDisabled(w, r)
		return
	}
	writeJSON(w, http.StatusOK, s.Fabric.Status())
}

func (s *Server) fabricDisabled(w http.ResponseWriter, r *http.Request) {
	s.v1Error(w, r, http.StatusBadRequest, api.CodeBadRequest,
		"this server is not a fabric coordinator (start it with -fabric-wal)")
}

func (s *Server) fabricError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, fabric.ErrUnknownWorker):
		s.v1Error(w, r, http.StatusNotFound, api.CodeNotFound, "%v", err)
	case errors.Is(err, fabric.ErrUnknownJob):
		s.v1Error(w, r, http.StatusNotFound, api.CodeNotFound, "%v", err)
	default:
		s.v1Error(w, r, http.StatusInternalServerError, api.CodeInternal, "%v", err)
	}
}

// fabricWait is the run of a distributed job: the job was already
// submitted to the coordinator at HTTP-accept time (that is the WAL
// durability point), so a pool worker just waits for the fold.
func (s *Server) fabricWait(j *job) func(context.Context) (checker.Report, error) {
	return func(ctx context.Context) (checker.Report, error) { return s.Fabric.Wait(ctx, j.id) }
}

// AdoptFabricJobs recreates server job documents for every job the
// coordinator recovered from its WAL, so a restarted coordinator serves
// GET /v1/jobs/{id} for jobs submitted before the crash. Completed jobs
// come back terminal with their folded verdicts — never re-run — and
// pending jobs re-enter the pool, where a worker waits for the resumed
// fold. Call it once, after setting Fabric and before serving.
func (s *Server) AdoptFabricJobs() {
	if s.Fabric == nil {
		return
	}
	s.startWorkers()
	var resume []*job
	s.jobsMu.Lock()
	for _, info := range s.Fabric.Jobs() {
		if _, ok := s.jobs[info.ID]; ok {
			continue
		}
		// Keep fresh ids past every recovered one, so a new submission
		// cannot collide with a recovered job's WAL identity.
		if n := jobNum(info.ID); n > s.nextJobID {
			s.nextJobID = n
		}
		ctx, cancel := context.WithCancel(context.Background())
		j := &job{
			id: info.ID, checker: info.Engine, opts: info.Opts,
			timeout: s.jobTimeout(), txns: info.Txns,
			ctx: ctx, cancel: cancel,
			distributed: true,
			state:       api.JobQueued, created: time.Now(),
		}
		j.run = s.fabricWait(j)
		j.events = append(j.events, api.JobEvent{JobID: j.id, Seq: 0, State: api.JobQueued})
		s.jobs[j.id] = j
		switch info.State {
		case fabric.JobDone:
			j.transition(api.JobDone, info.Report, "")
		case fabric.JobFailed:
			j.transition(api.JobFailed, nil, info.Err)
		default:
			resume = append(resume, j)
		}
	}
	s.jobsMu.Unlock()
	for _, j := range resume {
		s.queue <- j
		s.logger().Info("adopted recovered fabric job", "job", j.id, "checker", j.checker)
	}
}
