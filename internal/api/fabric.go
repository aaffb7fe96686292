package api

import "mtc/internal/checker"

// A pull that claims work answers ContentTypeMTCB: the body is the
// component's MTCB document as the coordinator cached it, and the
// FabricTask fields other than HistoryMTCB travel as one JSON object in
// the FabricTaskHeader response header.
const (
	ContentTypeMTCB  = "application/x-mtcb"
	FabricTaskHeader = "Mtc-Fabric-Task"
)

// Fabric wire contract: the coordinator/worker messages of the
// distributed checking fabric (internal/fabric). A coordinator is an
// mtc-serve instance started with -fabric-wal; workers are mtc-serve
// binaries started with `-worker -coordinator <url>` that register,
// heartbeat, and pull component work produced by shard.Split. A task
// is its component's MTCB bytes as the response body, with the rest of
// the FabricTask as JSON in the FabricTaskHeader header; a result
// embeds checker.Report — the type the job API serializes — as JSON.
//
//	POST /v1/fabric/workers               register -> 201 WorkerLease
//	POST /v1/fabric/workers/{id}/heartbeat  liveness ping -> 204
//	POST /v1/fabric/workers/{id}/pull     claim work -> 200 MTCB body + FabricTaskHeader | 204
//	POST /v1/fabric/workers/{id}/results  push a component verdict -> 200 FabricAck
//	GET  /v1/fabric/status                workers, the ready queue and jobs

// WorkerHello is the body of POST /v1/fabric/workers: a worker
// announcing itself to the coordinator.
type WorkerHello struct {
	// Name is a human-readable label for logs and the status endpoint;
	// the coordinator's assigned ID, not the name, identifies the worker.
	Name string `json:"name,omitempty"`
	// Codecs lists the wire codecs this worker can decode component
	// payloads from. Every task carries FabricTask.HistoryMTCB, so a
	// hello that does not list "mtcb" is refused with a 400: coordinator
	// and workers ship from one binary, and version skew is reported at
	// registration instead of negotiated.
	Codecs []string `json:"codecs,omitempty"`
}

// WorkerLease is the 201 body of a successful registration.
type WorkerLease struct {
	// ID is the coordinator-assigned worker identity; every subsequent
	// heartbeat, pull and result names it. A coordinator restart
	// invalidates all leases — the fabric endpoints answer 404 and the
	// worker re-registers.
	ID string `json:"id"`
	// HeartbeatMillis is the interval the worker must beat at; missing
	// roughly three beats marks the worker dead and re-dispatches its
	// in-flight components under a fresh epoch.
	HeartbeatMillis int64 `json:"heartbeat_ms"`
}

// FabricTask is one unit of fabric work: a single connected component of
// a submitted job's history, to be checked by the base engine.
type FabricTask struct {
	Job       string `json:"job"`
	Component int    `json:"component"`
	// Epoch is the dispatch epoch of this component. The coordinator
	// folds a result only when its epoch matches the component's current
	// epoch, so a verdict from a worker that was presumed dead (and whose
	// component was re-dispatched) can never be folded twice.
	Epoch int `json:"epoch"`
	// Checker is the engine the worker must run, unsharded: the
	// coordinator already decomposed the history.
	Checker string `json:"checker"`
	Level   string `json:"level,omitempty"`
	// Engine options, forwarded from the submitted job.
	Parallelism int `json:"parallelism,omitempty"`
	Window      int `json:"window,omitempty"`
	// HistoryMTCB is the component's sub-history (local transaction ids;
	// the coordinator remaps the verdict back to external positions) in
	// the MTCB binary columnar encoding. On the wire it is the pull's
	// response body, never JSON. The coordinator encodes each component
	// once and serves the same bytes to every puller; the worker decodes
	// the body straight to a columnar index (history.ReadMTCBIndexed).
	HistoryMTCB []byte `json:"-"`
}

// FabricResult is the body of POST /v1/fabric/workers/{id}/results: one
// component verdict, echoing the task coordinates.
type FabricResult struct {
	Job       string `json:"job"`
	Component int    `json:"component"`
	Epoch     int    `json:"epoch"`
	// Report is the engine verdict; Error is set instead when the engine
	// failed (the coordinator fails the whole job).
	Report *checker.Report `json:"report,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// FabricAck answers a pushed result. Accepted is false when the result
// was stale (epoch mismatch, unknown or already-terminal job) and was
// discarded; the worker just moves on.
type FabricAck struct {
	Accepted bool `json:"accepted"`
}

// FabricWorkerStatus describes one registered worker in GET
// /v1/fabric/status.
type FabricWorkerStatus struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// InFlight counts the components dispatched to this worker and not
	// yet answered.
	InFlight int `json:"in_flight"`
	// IdleMillis is how long ago the worker was last seen (heartbeat,
	// pull or result).
	IdleMillis int64 `json:"idle_ms"`
}

// FabricJobStatus describes one fabric job in GET /v1/fabric/status.
type FabricJobStatus struct {
	ID      string `json:"id"`
	State   string `json:"state"` // pending | done | failed
	Checker string `json:"checker"`
	Level   string `json:"level,omitempty"`
	Txns    int    `json:"txns"`
	// Components is the size of the distribution plan; Done counts the
	// folded component verdicts.
	Components int `json:"components"`
	Done       int `json:"done"`
}

// FabricStatus is the body of GET /v1/fabric/status.
type FabricStatus struct {
	Workers []FabricWorkerStatus `json:"workers"`
	Jobs    []FabricJobStatus    `json:"jobs"`
	// Unassigned counts the ready queue: pending components no worker
	// has pulled yet, or requeued after a worker death and awaiting their
	// next claimant.
	Unassigned int `json:"unassigned"`
}
