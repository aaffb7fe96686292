// Package mtc is the stable public surface of the MTC isolation-checking
// toolkit. It re-exports the history model, the checker registry and the
// Report verdict type from the internal packages, so external programs
// can build histories, run any registered verification engine with
// context cancellation, and consume structured counterexamples — without
// importing internal paths (which the Go toolchain forbids outside this
// module).
//
// A minimal embedding:
//
//	b := mtc.NewHistoryBuilder("x")
//	b.Txn(0, mtc.Read("x", 0), mtc.Write("x", 1))
//	rep, err := mtc.Check(ctx, "mtc", b.Build(), mtc.Options{Level: mtc.SER})
//
// The "mtc" engine checks any of the six levels (SSER, SER, SI, CAUSAL,
// RA, RC); the baselines (cobra, polysi, elle, porcupine) list the
// subset they support, and "profile" (or Profile) evaluates the whole
// lattice and each session Guarantee in one pass. Checkers lists the registry.
//
// Long histories need not be checked with memory proportional to their
// length: Options.Window selects the epoch-windowed replay of the
// mtc-incremental engine, which compacts the settled prefix as it goes
// and keeps O(window) state with verdicts identical to the unbounded
// check (Report.CompactedEpochs reports how often it compacted).
//
// Multi-tenant and other key-disjoint histories can be verified with
// structural concurrency above the engine, the toolkit's one concurrency
// knob (every engine runs serially): Options.Shard > 0 makes Check
// partition the history into key/session-disjoint components and check
// up to Shard of them concurrently through the named engine, with merged
// verdicts identical to unsharded checking (Report.ShardComponents
// reports the decomposition; 0 checks unsharded; see docs/sharding.md).
//
// For the HTTP service, see pkg/client.
package mtc

import (
	"context"
	"io"

	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/graph"
	"mtc/internal/history"
	_ "mtc/internal/shard" // links the driver behind Options.Shard
)

// Core history model.
type (
	// History is a transactional history: transactions grouped into
	// sessions, each a sequence of read/write operations.
	History = history.History
	// Txn is one transaction of a history.
	Txn = history.Txn
	// Op is one read or write operation.
	Op = history.Op
	// Key names an object; Value is the (unique) value written to it.
	Key   = history.Key
	Value = history.Value
	// HistoryBuilder assembles histories programmatically.
	HistoryBuilder = history.Builder
	// Anomaly is one structured pre-check violation in a Report.
	Anomaly = history.Anomaly
	// CycleEdge is one typed dependency edge of a counterexample cycle.
	CycleEdge = graph.Edge
)

// Checker abstraction.
type (
	// Level names an isolation level (SSER, SER, SI, CAUSAL, RA or RC).
	Level = checker.Level
	// Options tunes a checker run.
	Options = checker.Options
	// Report is the normalised, JSON-serializable verdict of a run.
	Report = checker.Report
	// PhaseTiming is the wall-clock cost of one engine phase.
	PhaseTiming = checker.PhaseTiming
	// Checker is one verification engine.
	Checker = checker.Checker
	// Registry maps checker names to engines.
	Registry = checker.Registry
	// UnsupportedHistoryError marks a history an engine cannot process.
	UnsupportedHistoryError = checker.UnsupportedHistoryError
	// RungVerdict is one isolation level's verdict in a lattice profile.
	RungVerdict = checker.RungVerdict
	// GuaranteeVerdict is one session guarantee's verdict in a profile.
	GuaranteeVerdict = checker.GuaranteeVerdict
	// Guarantee names a session guarantee: RYW, MR, MW or WFR.
	Guarantee = core.Guarantee
)

// The supported isolation levels, strongest first.
const (
	SSER   = core.SSER   // strict serializability
	SER    = core.SER    // serializability
	SI     = core.SI     // snapshot isolation
	CAUSAL = core.CAUSAL // causal consistency
	RA     = core.RA     // read atomicity
	RC     = core.RC     // read committed
)

// ParseLevel maps a level name (any case) to its Level.
func ParseLevel(s string) (Level, error) { return checker.ParseLevel(s) }

// Levels lists the supported isolation levels, weakest to strongest.
func Levels() []Level { return checker.AllLevels() }

// Profile evaluates the whole isolation lattice plus the four session
// guarantees (RYW, MR, MW, WFR) in one pass over h and reports the
// strongest satisfied level in Report.StrongestLevel, with per-rung
// verdicts in Report.Rungs and guarantee verdicts in Report.Guarantees.
// The top-level OK/counterexample fields reflect opts.Level (default
// SI), so Profile is a drop-in replacement for a single-level Check.
func Profile(ctx context.Context, h *History, opts Options) (Report, error) {
	return checker.Run(ctx, "profile", h, opts)
}

// Check runs the named engine from the default registry on h under ctx.
// Cancellation stops the engine inside its hot loops; the returned error
// is then ctx's error. Use IsUnsupported to detect histories the engine
// cannot process.
func Check(ctx context.Context, name string, h *History, opts Options) (Report, error) {
	return checker.Run(ctx, name, h, opts)
}

// IsUnsupported reports whether err marks a history the engine cannot
// process (as opposed to a verification failure or a context error).
func IsUnsupported(err error) bool { return checker.IsUnsupported(err) }

// Checkers lists the names of the registered engines.
func Checkers() []string { return checker.Names() }

// LookupChecker resolves a registered engine by name.
func LookupChecker(name string) (Checker, error) { return checker.Lookup(name) }

// NewHistoryBuilder returns a builder whose initial transaction writes
// value 0 to each of the given keys.
func NewHistoryBuilder(initKeys ...Key) *HistoryBuilder {
	return history.NewBuilder(initKeys...)
}

// Read builds a read operation observing value v of key k.
func Read(k Key, v Value) Op { return history.R(k, v) }

// Write builds a write operation setting key k to value v.
func Write(k Key, v Value) Op { return history.W(k, v) }

// ReadHistory parses the standard JSON encoding and validates it.
func ReadHistory(r io.Reader) (*History, error) { return history.ReadJSON(r) }

// WriteHistory serializes a history in the standard JSON encoding.
func WriteHistory(w io.Writer, h *History) error { return history.WriteJSON(w, h) }

// LoadHistory reads a history from a file in any codec — JSON, NDJSON
// or MTCB, optionally gzipped — sniffed from its content.
func LoadHistory(path string) (*History, error) { return history.LoadFile(path) }

// SaveHistory writes a history to a file in the codec its extension
// names: .json (or none), .ndjson or .mtcb, each optionally .gz.
func SaveHistory(path string, h *History) error { return history.SaveFile(path, h) }
