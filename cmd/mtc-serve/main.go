// Command mtc-serve exposes MTC as checking-as-a-service over HTTP — the
// IsoVista integration the paper lists as future work (Section VII). The
// v1 API is asynchronous: whole-history checks run as jobs on a bounded
// worker pool under per-job timeouts, polled or streamed by id; live
// streaming sessions verify transactions as they commit. Engines resolve
// through the checker registry. See docs/api.md for the full endpoint
// reference; pkg/client is the matching Go SDK.
//
//	mtc-serve -addr :8080 [-checker mtc] [-workers 8] [-queue 256] \
//	          [-job-timeout 60s] [-max-sessions 1024] [-max-body 67108864]
//
// The same binary is both sides of the distributed checking fabric
// (internal/fabric). Started with -fabric-wal it is a coordinator: jobs
// submitted with "distributed": true are split into components,
// dispatched to registered workers, folded, and made durable in the
// named write-ahead log (a restart on the same WAL resumes pending jobs
// and serves completed verdicts without re-running them). Started with
// -worker -coordinator <url> it serves no HTTP at all and instead
// registers with the coordinator, heartbeats, and pulls component work:
//
//	mtc-serve -fabric-wal fabric.wal -addr :8080          # coordinator
//	mtc-serve -worker -coordinator http://localhost:8080  # worker
//
//	POST   /v1/jobs                  submit a check -> 202 + job id
//	GET    /v1/jobs/{id}             poll status / report
//	GET    /v1/jobs/{id}/events      NDJSON progress stream
//	DELETE /v1/jobs/{id}             cancel (stops the worker)
//	POST   /v1/sessions              open a streaming session
//	GET    /v1/checkers              registered engines
//	GET    /healthz
package main

import (
	"context"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mtc/internal/fabric"
	"mtc/internal/mtcserve"
	"mtc/pkg/mtc"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		def         = flag.String("checker", "mtc", "default checker (resolved via the registry)")
		workers     = flag.Int("workers", mtcserve.DefaultWorkers, "job worker pool size")
		queue       = flag.Int("queue", mtcserve.DefaultQueueDepth, "job queue depth (full queue answers 429)")
		jobTimeout  = flag.Duration("job-timeout", mtcserve.DefaultJobTimeout, "default per-job execution timeout")
		maxJobs     = flag.Int("max-jobs", mtcserve.DefaultMaxJobs, "retained job cap (oldest finished jobs are forgotten)")
		maxSessions = flag.Int("max-sessions", mtcserve.DefaultMaxSessions, "cap on live streaming sessions")
		maxBody     = flag.Int64("max-body", mtcserve.DefaultMaxBodyBytes, "request body size limit in bytes")
		parallelism = flag.Int("parallelism", 0, "server mode: default engine parallelism for jobs that do not set one (0 = GOMAXPROCS; requests are clamped to GOMAXPROCS)")
		window      = flag.Int("window", 0, "default epoch-compaction window for streaming sessions that do not request one (0 = unbounded)")
		sessionIdle = flag.Duration("session-idle", mtcserve.DefaultSessionIdle, "evict streaming sessions idle longer than this")

		worker      = flag.Bool("worker", false, "run as a fabric worker instead of an HTTP server (requires -coordinator)")
		coordinator = flag.String("coordinator", "", "coordinator base URL the worker registers with, e.g. http://host:8080")
		workerName  = flag.String("worker-name", "", "worker label in coordinator logs and /v1/fabric/status (default: the hostname)")
		fabricWAL   = flag.String("fabric-wal", "", "act as a fabric coordinator, persisting jobs to this NDJSON write-ahead log")
		fabricHB    = flag.Duration("fabric-heartbeat", 0, "worker heartbeat timeout before in-flight components are re-dispatched (0 = 5s default)")
	)
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	if *worker {
		runWorker(logger, *coordinator, *workerName)
		return
	}
	if *coordinator != "" {
		logger.Error("mtc-serve: -coordinator requires -worker")
		os.Exit(2)
	}
	if *window < 0 {
		logger.Error("mtc-serve: -window must be >= 0", "window", *window)
		os.Exit(2)
	}
	if _, err := mtc.LookupChecker(*def); err != nil {
		logger.Error("mtc-serve: bad -checker", "err", err)
		os.Exit(2)
	}

	srv := mtcserve.NewServer(nil)
	srv.DefaultChecker = *def
	srv.Workers = *workers
	srv.QueueDepth = *queue
	srv.JobTimeout = *jobTimeout
	srv.MaxJobs = *maxJobs
	srv.MaxSessions = *maxSessions
	srv.MaxBodyBytes = *maxBody
	srv.DefaultParallelism = *parallelism
	srv.DefaultWindow = *window
	srv.SessionIdleTimeout = *sessionIdle
	srv.Logger = logger

	if *fabricWAL != "" {
		coord, err := fabric.Open(*fabricWAL, fabric.Config{
			HeartbeatTimeout: *fabricHB,
			Logger:           logger,
		})
		if err != nil {
			logger.Error("mtc-serve: opening fabric WAL", "path", *fabricWAL, "err", err)
			os.Exit(1)
		}
		defer func() {
			if err := coord.Close(); err != nil {
				logger.Error("mtc-serve: closing fabric WAL", "err", err)
			}
		}()
		srv.Fabric = coord
		srv.AdoptFabricJobs()
		logger.Info("mtc-serve: fabric coordinator enabled", "wal", *fabricWAL)
	}

	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		logger.Info("mtc-serve: shutting down")
		srv.Close()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(shutdownCtx)
	}()

	logger.Info("mtc-serve listening",
		"addr", *addr, "default_checker", *def,
		"workers", *workers, "queue", *queue, "job_timeout", jobTimeout.String(),
		"registered", mtc.Checkers())
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("mtc-serve", "err", err)
		os.Exit(1)
	}
}

// runWorker runs the fabric worker loop until SIGINT/SIGTERM.
func runWorker(logger *slog.Logger, coordinator, name string) {
	if coordinator == "" {
		logger.Error("mtc-serve: -worker requires -coordinator <url>")
		os.Exit(2)
	}
	if name == "" {
		name, _ = os.Hostname()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger.Info("mtc-serve: fabric worker starting", "coordinator", coordinator, "name", name)
	if err := fabric.RunWorker(ctx, fabric.WorkerConfig{
		Coordinator: coordinator,
		Name:        name,
		Logger:      logger,
	}); err != nil && !errors.Is(err, context.Canceled) {
		logger.Error("mtc-serve: fabric worker", "err", err)
		os.Exit(1)
	}
	logger.Info("mtc-serve: fabric worker stopped")
}
