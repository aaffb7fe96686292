package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"mtc/internal/api"
	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/fabric"
	"mtc/internal/graph"
	"mtc/internal/history"
	"mtc/internal/shard"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// traceCycles is how many full rotations over its corpus every traced
// loop and probe makes. The work is fixed, not timed, so the counts
// (edges, bytes, epochs, allocations) repeat from run to run.
const traceCycles = 2

// layerRun collects the per-layer numbers of one traced pass. Times
// are spans in tr; counts accumulate here.
type layerRun struct {
	tr  *tracer
	out map[string]metric
	// attempted and failed count the traced operations and probe
	// verdict checks.
	attempted, failed int
	firstErr          error
}

func (l *layerRun) set(name string, v float64, unit string) { l.out[name] = metric{v, unit} }

// medianMS reports the median duration of the spans called span.
func (l *layerRun) medianMS(name, span string) float64 {
	v := median(l.tr.ms(span))
	l.set(name, v, "ms")
	return v
}

func (l *layerRun) check(err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = err
		}
	}
}

// memNow reads the cumulative allocation counters.
func memNow() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// tracedPass yields every per-layer metric. Each workload's loop runs
// traceCycles rotations with spans around its calls, then the layers a
// workload only reaches through another layer are probed directly on
// the same corpora. For the workload under test the loop first runs
// untraced, which gives the tracing overhead, and the collector's cost
// is read around its traced loop.
func tracedPass(e env, under *workload, tr *tracer) (*layerRun, error) {
	l := &layerRun{tr: tr, out: map[string]metric{}}
	for _, w := range workloads {
		inst, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		ops := traceCycles * inst.cycle()
		var untraced loopResult
		if w.name == under.name {
			runLoop(inst, nil, nil, forOps(inst.cycle())) // warm, so the comparison is not cold against warm
			untraced = runLoop(inst, nil, nil, forOps(ops))
		}
		gc0 := readGC()
		traced := runLoop(inst, tr, nil, forOps(ops))
		if w.name == under.name {
			share, pause := readGC().since(gc0)
			l.set("runtime.gc_cpu_share", share, "ratio")
			l.set("runtime.gc_pause_ms_max", pause, "ms")
			base := percentile(millis(untraced.latencies), 0.5)
			l.set("trace.overhead_pct", 100*(percentile(millis(traced.latencies), 0.5)-base)/base, "%")
			l.attempted += untraced.attempted
			l.failed += untraced.failed
		}
		l.attempted += traced.attempted
		l.failed += traced.failed
		if l.firstErr == nil {
			l.firstErr = traced.firstErr
		}
		// Probes run with the workload's servers stopped, so no worker
		// poll or janitor shares the processor with them.
		if err := inst.close(); err != nil {
			return nil, fmt.Errorf("%s: close: %w", w.name, err)
		}
		switch v := inst.(type) {
		case *batchInst:
			l.probeBatch(v)
		case *streamInst:
			l.probeStream(v)
		case *sessionInst:
			l.probeSession(v, e.sc.window)
		case *jobsInst:
			if err := l.probeJobs(v, e); err != nil {
				return nil, err
			}
		}
	}
	l.probeBaselines(e)
	return l, nil
}

// probeBatch reads the batch loop's spans and measures the layers
// under checker.Run one at a time on the same histories.
func (l *layerRun) probeBatch(b *batchInst) {
	ctx := context.Background()
	ser := l.medianMS("core.check_ms.ser", "core.check.ser")
	l.medianMS("core.check_ms.si", "core.check.si")
	l.medianMS("core.check_ms.sser", "core.check.sser")
	l.medianMS("history.mtcb_index_decode_ms", "history.mtcb_index_decode")
	l.set("levels.profile_over_ser", l.medianMS("levels.profile_ms", "levels.profile")/ser, "ratio")
	l.medianMS("checker.report_encode_ms", "checker.report_encode.violating")

	var txns, wire, decodeAllocs, checkAllocs, derived, edges int
	for c := 0; c < traceCycles; c++ {
		for i, g := range b.corpus {
			op := c*len(b.corpus) + i
			txns += len(g.h.Txns) - 1
			wire += len(b.mtcb[i])

			m0, _ := memNow()
			ix, err := history.ReadMTCBIndexed(bytes.NewReader(b.mtcb[i]))
			m1, _ := memNow()
			if err != nil {
				l.check(err)
				continue
			}
			decodeAllocs += int(m1 - m0)
			rep, err := checker.Run(ctx, "mtc", ix.History(), checker.Options{Level: core.SER, Index: ix})
			m2, _ := memNow()
			checkAllocs += int(m2 - m1)
			if err == nil {
				err = g.verify("mtc", core.SER, &rep)
			}
			l.check(err)

			l.tr.timed("history.index_build", op, 0, func() { history.NewIndex(g.h) })
			l.tr.timed("core.derive_deps", op, 0, func() {
				_, err = core.DeriveDepsCtx(ctx, ix, func(graph.Edge) { derived++ })
			})
			l.check(err)
			var dep *graph.Graph
			l.tr.timed("core.build_dependency", op, 0, func() { dep, _ = core.BuildDependency(g.h, false) })
			var cycle []graph.Edge
			l.tr.timed("graph.find_cycle", op, 0, func() { cycle = dep.FindCycle() })
			if found, want := len(cycle) > 0, !g.plant.satisfies(core.SER); found != want {
				l.check(fmt.Errorf("%s history: FindCycle found=%v, want %v", g.plant, found, want))
			}
			edges += dep.NumEdges()
		}
	}
	n := float64(txns)
	l.set("history.wire_bytes_per_txn.mtcb", float64(wire)/n, "bytes/txn")
	l.set("history.mtcb_index_decode_allocs_per_txn", float64(decodeAllocs)/n, "allocs/txn")
	l.set("core.check_allocs_per_txn", float64(checkAllocs)/n, "allocs/txn")
	l.set("core.derive_edges_per_txn", float64(derived)/n, "edges/txn")
	l.set("graph.edges_per_txn", float64(edges)/n, "edges/txn")
	l.medianMS("history.index_build_ms", "history.index_build")
	l.medianMS("core.derive_ms", "core.derive_deps")
	l.medianMS("graph.find_cycle_ms", "graph.find_cycle")
}

// probeStream splits the stream operation into its two halves: the
// NDJSON decode alone, and the online checker alone on decoded
// transactions, timing every Add.
func (l *layerRun) probeStream(s *streamInst) {
	var (
		txns, wire, decodeAllocs, addAllocs, edges int
		adds                                       []float64 // microseconds
	)
	if len(s.corpus) > 0 { // sized up front, so growing it is not counted as the checker's allocation
		adds = make([]float64, 0, traceCycles*len(s.corpus)*len(s.corpus[0].h.Txns))
	}
	for c := 0; c < traceCycles; c++ {
		for i, g := range s.corpus {
			op := c*len(s.corpus) + i
			txns += len(g.h.Txns) - 1
			wire += len(s.ndjson[i])

			m0, _ := memNow()
			l.tr.timed("history.ndjson_stream_decode", op, 0, func() {
				src, err := history.NewAutoStreamReader(bytes.NewReader(s.ndjson[i]))
				for err == nil {
					_, err = src.Next()
				}
				if err != io.EOF {
					l.check(err)
				}
			})
			m1, _ := memNow()
			decodeAllocs += int(m1 - m0)

			lvl := streamLevels[(i+c)%len(streamLevels)]
			var res core.Result
			l.tr.timed("core.incremental_replay", op, 0, func() {
				inc := newIncremental(lvl, g.h)
				for j := 1; j < len(g.h.Txns); j++ {
					t0 := time.Now()
					inc.Add(g.h.Txns[j])
					adds = append(adds, float64(time.Since(t0))/1e3)
				}
				res = inc.Finalize()
				edges += inc.NumEdges()
			})
			m2, _ := memNow()
			addAllocs += int(m2 - m1)
			rep := checker.ReportFromResult("mtc-incremental", res)
			l.check(g.verify("mtc-incremental", lvl, &rep))
		}
	}
	n := float64(txns)
	l.set("history.wire_bytes_per_txn.ndjson", float64(wire)/n, "bytes/txn")
	l.set("history.ndjson_stream_decode_allocs_per_txn", float64(decodeAllocs)/n, "allocs/txn")
	l.set("core.incremental_allocs_per_txn", float64(addAllocs)/n, "allocs/txn")
	l.set("graph.online_edges_per_txn", float64(edges)/n, "edges/txn")
	l.medianMS("history.ndjson_stream_decode_ms", "history.ndjson_stream_decode")
	l.medianMS("core.incremental_replay_ms", "core.incremental_replay")
	l.set("core.incremental_add_us_p50", percentile(adds, 0.5), "us")
	l.set("core.incremental_add_us_p99", percentile(adds, 0.99), "us")
}

// newIncremental starts an online checker the way a session open does:
// the capture's init transaction becomes InitTxn over its keys.
func newIncremental(lvl core.Level, h *history.History) *core.Incremental {
	inc := core.NewIncremental(lvl)
	inc.InitTxn(initKeys(h)...)
	return inc
}

// probeSession replays each capture once in-process exactly as
// handleSessionBatch drives it — decode the frame through one
// session-lifetime arena, Add every transaction, MaybeCompact — which
// separates compaction from ingest and, against the frame spans of the
// HTTP loop's first cycle, gives the serving overhead per frame.
func (l *layerRun) probeSession(s *sessionInst, window int) {
	httpFrames := l.tr.byName("mtcserve.session_frame")
	var (
		addMS, compactMS        float64
		compactAlloc            uint64
		epochs                  int
		live, compact, overhead []float64
	)
	for ci, g := range s.corpus {
		inc := newIncremental(sessionLevel, g.h)
		arena := history.NewIngestArena()
		for f, frame := range s.frames[ci] {
			op := ci*s.perCap + f
			start := time.Now()
			var txns []history.Txn
			fr, err := history.NewBinaryFrameReader(bytes.NewReader(frame), arena)
			for err == nil {
				var t history.Txn
				if t, err = fr.Next(); err == nil {
					txns = append(txns, t)
				}
			}
			if err != io.EOF {
				l.check(err)
			}
			decoded := time.Now()
			for i := range txns {
				inc.Add(txns[i])
			}
			added := time.Now()
			_, b0 := memNow()
			compactStart := time.Now()
			ran := inc.MaybeCompact(window, 0, nil)
			end := time.Now()
			l.tr.add("history.frame_decode", op, 0, start, decoded)
			l.tr.add("core.incremental_add_frame", op, 0, decoded, added)
			addMS += float64(added.Sub(decoded)) / 1e6
			if ran {
				_, b1 := memNow()
				l.tr.add("core.compact", op, 0, compactStart, end)
				compactAlloc += b1 - b0
				compact = append(compact, float64(end.Sub(compactStart))/1e6)
				compactMS += float64(end.Sub(compactStart)) / 1e6
				live = append(live, float64(inc.LiveNodes()))
			}
			// The same frame of the HTTP loop's first cycle, minus what
			// the frame cost here, is what serving it added.
			if op < len(httpFrames) && httpFrames[op].Op == op {
				inProcess := added.Sub(start) + end.Sub(compactStart)
				overhead = append(overhead, float64(httpFrames[op].End-httpFrames[op].Start-inProcess.Nanoseconds())/1e6)
			}
		}
		res := inc.Finalize()
		epochs += res.CompactedEpochs
		rep := checker.ReportFromResult("mtc-incremental", res)
		l.check(g.verify("mtc-incremental", sessionLevel, &rep))
	}
	l.medianMS("history.frame_decode_ms", "history.frame_decode")
	l.medianMS("mtcserve.session_frame_ms_p50", "mtcserve.session_frame")
	l.medianMS("mtcserve.session_finalize_ms", "mtcserve.session_finalize")
	l.set("mtcserve.session_http_overhead_ms", median(overhead), "ms")
	l.set("core.compact_share", compactMS/(addMS+compactMS), "ratio")
	l.set("core.compact_alloc_mb_per_epoch", float64(compactAlloc)/float64(len(compact))/(1<<20), "MB")
	l.set("core.live_nodes_after_compact_p50", percentile(live, 0.5), "count")
	l.set("core.compacted_epochs", float64(epochs)/float64(len(s.corpus)), "count")
	l.set("core.compact_ms_p50", percentile(compact, 0.5), "ms")
	l.set("core.compact_ms_max", percentile(compact, 1), "ms")
}

// probeJobs reads the job loop's spans, then measures what a job pays
// before and around its engine run: body decode, component split, the
// sharded check, and the coordinator's submit/pull/push path driven
// in-process the way fabric_differential_test.go drives it.
func (l *layerRun) probeJobs(j *jobsInst, e env) error {
	ctx := context.Background()
	l.medianMS("mtcserve.submit_ms_p50", "mtcserve.submit")
	l.medianMS("mtcserve.queue_wait_ms_p50", "mtcserve.queue_wait")
	l.set("mtcserve.queue_wait_ms_p90", percentile(l.tr.ms("mtcserve.queue_wait"), 0.9), "ms")
	l.medianMS("mtcserve.notify_ms_p50", "mtcserve.notify")
	l.set("mtcserve.refused_429", float64(j.refused.Load()), "count")
	l.set("mtcserve.resubmitted_jobs", float64(j.resubmitted.Load()), "count")
	var run, total float64
	for _, v := range l.tr.ms("mtcserve.run") {
		run += v
	}
	for _, class := range jobClasses {
		for _, v := range l.tr.ms("serve-jobs.op." + class.name) {
			total += v
		}
	}
	l.medianMS("mtcserve.run_ms_p50", "mtcserve.run")
	l.set("mtcserve.overhead_share", 1-run/total, "ratio")
	sharded := median(l.tr.ms("serve-jobs.op.shard"))
	l.set("fabric.job_over_local_shard", l.medianMS("fabric.job_ms_p50", "serve-jobs.op.distributed")/sharded, "ratio")

	var bodyBytes, bodyTxns, wire, wireTxns int
	for c := 0; c < traceCycles; c++ {
		for ci := range jobClasses {
			for hi, body := range j.bodies[ci] {
				var req api.JobRequest
				var err error
				l.tr.timed("history.json_job_decode", c*len(jobClasses)+ci, 0, func() { err = json.Unmarshal(body, &req) })
				l.check(err)
				bodyBytes += len(body)
				bodyTxns += len(j.single[hi].h.Txns) - 1 // both families have equal sizes
			}
		}
	}
	l.medianMS("history.json_job_decode_ms", "history.json_job_decode")
	l.set("mtcserve.request_bytes_per_txn", float64(bodyBytes)/float64(bodyTxns), "bytes/txn")

	mtcEngine, err := checker.Lookup("mtc")
	if err != nil {
		return err
	}
	walDir, err := os.MkdirTemp(e.tmpDir, "fabric-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	walPath := walDir + "/fabric.wal"
	coord, err := fabric.Open(walPath, fabric.Config{})
	if err != nil {
		return err
	}
	defer coord.Close()
	fleet := []api.WorkerLease{
		coord.Register(api.WorkerHello{Name: "probe-w1", Codecs: []string{"mtcb"}}),
		coord.Register(api.WorkerHello{Name: "probe-w2", Codecs: []string{"mtcb"}}),
	}
	var components, requeues, taskBytes, taskTxns, fabricJobs int
	for c := 0; c < traceCycles; c++ {
		for hi, g := range j.multi {
			op := c*len(j.multi) + hi
			raw, err := json.Marshal(g.h)
			if err != nil {
				return err
			}
			wire += len(raw)
			wireTxns += len(g.h.Txns) - 1

			l.tr.timed("shard.split", op, 0, func() { shard.Split(g.h) })
			var rep checker.Report
			l.tr.timed("shard.check", op, 0, func() {
				rep, err = shard.Check(ctx, mtcEngine, g.h, checker.Options{Level: core.SI, Shard: 2})
			})
			if err == nil {
				err = g.verify("mtc", core.SI, &rep)
			}
			l.check(err)
			components += rep.ShardComponents

			id := fmt.Sprintf("probe-%d", op)
			l.tr.timed("fabric.submit", op, 0, func() {
				err = coord.Submit(id, "mtc", g.h, checker.Options{Level: core.SI})
			})
			if err != nil {
				return fmt.Errorf("fabric submit: %w", err)
			}
			fabricJobs++
			for idle := 0; idle < len(fleet); {
				w := fleet[0]
				fleet = append(fleet[1:], w)
				var task *api.FabricTask
				pull := time.Now()
				if task, err = coord.Pull(w.ID); err != nil {
					return fmt.Errorf("fabric pull: %w", err)
				}
				if task == nil {
					idle++
					continue
				}
				idle = 0
				l.tr.add("fabric.pull", op, 0, pull, time.Now())
				requeues += task.Epoch - 1
				taskBytes += len(task.HistoryMTCB)
				res := api.FabricResult{Job: task.Job, Component: task.Component, Epoch: task.Epoch}
				l.tr.timed("fabric.worker_check", op, 0, func() {
					var ix *history.Index
					if ix, err = history.ReadMTCBIndexed(bytes.NewReader(task.HistoryMTCB)); err != nil {
						return
					}
					taskTxns += ix.NumTxns() - 1
					var r checker.Report
					r, err = checker.Run(ctx, task.Checker, ix.History(), checker.Options{Level: checker.Level(task.Level), Index: ix})
					res.Report = &r
				})
				if err != nil {
					return fmt.Errorf("fabric worker check: %w", err)
				}
				var accepted bool
				l.tr.timed("fabric.push", op, 0, func() { accepted, err = coord.PushResult(w.ID, res) })
				if err != nil || !accepted {
					return fmt.Errorf("fabric push: accepted=%v: %w", accepted, err)
				}
			}
			if rep, err = coord.Wait(ctx, id); err == nil {
				err = g.verify("mtc", core.SI, &rep)
			}
			l.check(err)
		}
	}
	st, err := os.Stat(walPath)
	if err != nil {
		return err
	}
	l.set("history.wire_bytes_per_txn.json", float64(wire)/float64(wireTxns), "bytes/txn")
	l.set("shard.components", float64(components)/float64(fabricJobs), "count")
	l.set("fabric.requeues", float64(requeues), "count")
	l.set("fabric.task_bytes_per_txn", float64(taskBytes)/float64(taskTxns), "bytes/txn")
	l.set("fabric.wal_bytes_per_job", float64(st.Size())/float64(fabricJobs), "bytes")
	l.medianMS("shard.split_ms", "shard.split")
	l.medianMS("shard.check_ms", "shard.check")
	l.medianMS("fabric.submit_ms", "fabric.submit")
	l.medianMS("fabric.pull_ms", "fabric.pull")
	l.medianMS("fabric.worker_check_ms", "fabric.worker_check")
	l.medianMS("fabric.push_ms", "fabric.push")
	return nil
}

// probeBaselines times the paper's comparators (Fig. 7/8) against the
// MTC engine on one small clean history. A guard only: no end-to-end
// workload runs them.
func (l *layerRun) probeBaselines(e env) {
	ctx := context.Background()
	g := generate(e.rng(6, 0), spec{txns: e.sc.txns / 10, sessions: e.sc.sessions, keys: e.sc.keys / 10})
	runs := []struct {
		engine string
		lvl    core.Level
	}{{"cobra", core.SER}, {"mtc", core.SER}, {"polysi", core.SI}, {"mtc", core.SI}}
	for c := 0; c < traceCycles; c++ {
		for _, r := range runs {
			var rep checker.Report
			var err error
			l.tr.timed("baseline."+r.engine+"."+string(r.lvl), c, 0, func() {
				rep, err = checker.Run(ctx, r.engine, g.h, checker.Options{Level: r.lvl})
			})
			if err == nil && !rep.OK {
				err = errors.New(r.engine + " rejects a clean history: " + rep.Detail)
			}
			l.check(err)
		}
	}
	l.set("cobra.over_mtc_ser", l.medianMS("cobra.check_ms", "baseline.cobra.SER")/median(l.tr.ms("baseline.mtc.SER")), "ratio")
	l.set("polysi.over_mtc_si", l.medianMS("polysi.check_ms", "baseline.polysi.SI")/median(l.tr.ms("baseline.mtc.SI")), "ratio")
}
