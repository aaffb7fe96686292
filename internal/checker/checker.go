// Package checker defines the uniform checker abstraction every
// verification engine in this repository is served through: a Checker
// interface (name, supported isolation levels, a context-aware Check
// entry point over *history.History), a Report type normalising the
// engines' disparate report structs into a wire-serializable verdict
// with structured counterexamples, and a Registry. The engines — the
// paper's linear-time MTC algorithms, the incremental online variant,
// the Cobra and PolySI polygraph baselines, Elle's register mode,
// Porcupine over the lightweight-transaction path, and the lattice
// profiler — are the rows of one table (adapters.go) registered in the
// default registry, so cmd/mtc, cmd/mtc-serve and internal/bench select
// engines by name instead of hard-coding entry points. `mtc` serves all
// six levels; the other engines list the subset they support.
//
// Check separates three outcomes: a Report (the history satisfies or
// violates the level, with counterexamples), an UnsupportedHistoryError
// (the engine cannot process this history at all, e.g. Porcupine on a
// history that is not LWT-shaped), and a context error (the deadline
// fired; every engine polls its context inside its hot loops, so
// cancellation actually stops work).
package checker

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"mtc/internal/core"
	"mtc/internal/graph"
	"mtc/internal/history"
	"mtc/internal/phase"
)

// Level names an isolation level. The values coincide with core.Level so
// adapters convert freely.
type Level = core.Level

// AllLevels lists every parseable isolation level, weakest first — the
// full lattice the profile checker walks. Individual engines support
// subsets (their Levels method).
func AllLevels() []Level { return core.Lattice() }

// ParseLevel maps a level name (any case) to its Level. It is the one
// canonical parser: Resolve reads every request's level through it.
// Errors enumerate the valid names.
func ParseLevel(s string) (Level, error) {
	lvl := Level(strings.ToUpper(strings.TrimSpace(s)))
	for _, l := range AllLevels() {
		if lvl == l {
			return lvl, nil
		}
	}
	return "", fmt.Errorf("checker: unknown isolation level %q (want %s)", s, levelNames(AllLevels()))
}

// Options tunes a checker run.
type Options struct {
	// Level selects the isolation level to check, in any case: Run
	// resolves it (Resolve). Empty selects the checker's default (the
	// first of its Levels).
	Level Level
	// SparseRT is inert: no engine reads it. It selected one of two SSER
	// encodings until the SSER rung became the single inversion pass
	// (core.Deps.Inversion), and stays declared only because benchmark/
	// — frozen while this field was retired — sets it in two literals.
	// A benchmark PR that drops those literals can delete the field.
	SparseRT bool
	// Window bounds the memory of the online incremental engine
	// (mtc-incremental): the replay is compacted every window/2
	// transactions, so at most O(window + boundary) transactions stay
	// materialised instead of the whole history. Verdicts, anomalies and
	// the first offending commit are identical to the unbounded replay
	// at every setting (differentially tested). <= 0 checks unbounded;
	// engines other than mtc-incremental ignore it.
	Window int
	// Shard > 0 selects component-sharded checking (internal/shard) of
	// any engine: Run decomposes the history into key/session-disjoint
	// connected components, checks up to Shard of them concurrently,
	// each through the named engine, and merges the verdicts
	// (Report.ShardComponents says how many components there were).
	// Merged verdicts are identical to unsharded checking
	// (differentially tested). 0 checks unsharded.
	Shard int
	// Index optionally supplies a prebuilt columnar index of the history
	// under check, skipping the intern-and-build pass:
	// history.ReadMTCBIndexed builds one as a byproduct of decoding a
	// binary payload, and shard.Check one per component from the key
	// column its split interned.
	// Used — after an Index.History() identity check, through indexOf —
	// by every engine that checks over the index (mtc, profile, cobra,
	// polysi, elle); porcupine and the incremental engine intern their
	// own state and ignore it.
	Index *history.Index
}

// indexOf returns the columnar index the index-consuming adapters check
// over: opts.Index when it indexes exactly h, else a fresh build. It is
// the one place a batch check builds its index.
func indexOf(ctx context.Context, h *history.History, opts Options) *history.Index {
	if opts.Index != nil && opts.Index.History() == h {
		return opts.Index
	}
	phase.Lap(ctx, "index")
	return history.NewIndex(h)
}

// PhaseTiming is one row of Report.Timings: the wall-clock cost of a
// phase the engine ran (internal/phase; docs/api.md lists them).
type PhaseTiming = phase.Timing

// Report is the normalised outcome of a checker run. Every field
// serializes, so a Report round-trips through the v1 API and the Go SDK
// without loss: anomalies keep their kind/txn/key/value structure and
// cycles their typed edges.
type Report struct {
	Checker   string            `json:"checker"`
	Level     Level             `json:"level"`
	OK        bool              `json:"ok"`
	Txns      int               `json:"txns"`
	Edges     int               `json:"edges,omitempty"`
	Anomalies []history.Anomaly `json:"anomalies,omitempty"`
	Cycle     []graph.Edge      `json:"cycle,omitempty"`
	Timings   []PhaseTiming     `json:"timings,omitempty"`
	// CompactedEpochs and CompactedTxns report epoch-windowed compaction
	// (the mtc-incremental engine under Options.Window, and windowed
	// streaming sessions): how many compactions ran and how many settled
	// transactions they collapsed. Zero when checking unbounded.
	CompactedEpochs int `json:"compacted_epochs,omitempty"`
	CompactedTxns   int `json:"compacted_txns,omitempty"`
	// ShardComponents reports component-sharded checking (Options.Shard
	// > 0, or a distributed fabric job): how many key/session-disjoint
	// components the history decomposed into. Zero when checking
	// unsharded.
	ShardComponents int `json:"shard_components,omitempty"`
	// StrongestLevel reports the strongest isolation level the history
	// satisfies, or "NONE" when every rung is violated. Only the profile
	// checker (core.ProfileCtx) fills it; single-level runs leave it
	// empty.
	StrongestLevel Level `json:"strongest_level,omitempty"`
	// Rungs carries the per-level verdicts of a profile run, weakest
	// (RC) first, each with the witness breaking the rung.
	Rungs []RungVerdict `json:"rungs,omitempty"`
	// Guarantees carries the per-session guarantee verdicts of a
	// profile run.
	Guarantees []GuaranteeVerdict `json:"guarantees,omitempty"`
	// Detail carries the engine-specific account: a counterexample
	// rendering, solver statistics, or the divergence witness.
	Detail string `json:"detail,omitempty"`
}

// Explain renders a human-readable account of the verdict — the text
// the CLIs print: the verdict line (with the compaction epochs of a
// windowed run), the first anomalies, the engine's detail, and for
// profile runs the lattice rungs (strongest first) and session
// guarantees.
func (r Report) Explain() string {
	var b strings.Builder
	compacted := ""
	if r.CompactedEpochs > 0 {
		compacted = fmt.Sprintf(", %d epochs compacted", r.CompactedEpochs)
	}
	if r.OK {
		fmt.Fprintf(&b, "[%s] history satisfies %s (%d txns", r.Checker, r.Level, r.Txns)
		if r.Edges > 0 {
			fmt.Fprintf(&b, ", %d dependency edges", r.Edges)
		}
		b.WriteString(compacted + ")")
	} else {
		fmt.Fprintf(&b, "[%s] history VIOLATES %s%s:", r.Checker, r.Level, compacted)
		const maxShown = 5
		for i, a := range r.Anomalies {
			if i == maxShown {
				fmt.Fprintf(&b, "\n  ... and %d more anomalies", len(r.Anomalies)-maxShown)
				break
			}
			fmt.Fprintf(&b, "\n  %s", a)
		}
	}
	if r.Detail != "" {
		fmt.Fprintf(&b, "\n  %s", r.Detail)
	}
	if r.StrongestLevel == "" {
		return b.String()
	}
	fmt.Fprintf(&b, "\nstrongest level satisfied: %s", r.StrongestLevel)
	for i := len(r.Rungs) - 1; i >= 0; i-- {
		if v := r.Rungs[i]; v.OK {
			fmt.Fprintf(&b, "\n  %-6s ok", v.Level)
		} else {
			fmt.Fprintf(&b, "\n  %-6s VIOLATED: %s", v.Level, v.Witness)
		}
	}
	for _, g := range r.Guarantees {
		if g.OK {
			fmt.Fprintf(&b, "\n  %-6s ok", g.Guarantee)
		} else {
			fmt.Fprintf(&b, "\n  %-6s VIOLATED: %s", g.Guarantee, g.Witness)
		}
	}
	return b.String()
}

// RungVerdict is one lattice rung of a profile run on the wire.
type RungVerdict struct {
	Level Level `json:"level"`
	OK    bool  `json:"ok"`
	// Witness renders the anomaly, divergence or cycle breaking the
	// rung; empty when OK.
	Witness string `json:"witness,omitempty"`
}

// GuaranteeVerdict is one session guarantee of a profile run, on the
// wire as in core.
type GuaranteeVerdict = core.GuaranteeVerdict

// UnsupportedHistoryError reports that an engine cannot process the
// submitted history at all — the request was well-formed but the history
// does not have the shape the engine requires.
type UnsupportedHistoryError struct {
	Checker string
	Reason  string
}

func (e *UnsupportedHistoryError) Error() string {
	return fmt.Sprintf("checker: %s cannot process this history: %s", e.Checker, e.Reason)
}

// IsUnsupported reports whether err marks a history the engine cannot
// process (as opposed to a verification failure or a context error).
func IsUnsupported(err error) bool {
	var u *UnsupportedHistoryError
	return errors.As(err, &u)
}

// Checker is one verification engine.
type Checker interface {
	// Name is the registry key, e.g. "mtc" or "cobra".
	Name() string
	// Levels lists the supported isolation levels, default first.
	Levels() []Level
	// Check verifies the history at opts.Level (which the Registry
	// guarantees is one of Levels when dispatching through Run). It
	// polls ctx inside its hot loops and returns ctx's error when the
	// deadline fires, or an *UnsupportedHistoryError when the engine
	// cannot process the history; the Report is only meaningful when
	// the error is nil.
	Check(ctx context.Context, h *history.History, opts Options) (Report, error)
}

// Registry maps checker names to engines. The zero value is ready to
// use; it is safe for concurrent use.
type Registry struct {
	mu sync.RWMutex
	m  map[string]Checker
}

// Register adds c, replacing any previous checker of the same name.
func (r *Registry) Register(c Checker) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.m == nil {
		r.m = make(map[string]Checker)
	}
	r.m[c.Name()] = c
}

// ErrUnknownChecker is wrapped by every Lookup (and so Resolve and Run)
// refusal of a name the registry does not hold.
var ErrUnknownChecker = errors.New("unknown checker")

// Lookup returns the named checker, or an error naming the registered
// alternatives.
func (r *Registry) Lookup(name string) (Checker, error) {
	r.mu.RLock()
	c, ok := r.m[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("checker: %w %q (have %s)", ErrUnknownChecker, name, strings.Join(r.Names(), ", "))
	}
	return c, nil
}

// Resolve is the one reading of a request's engine and level: it looks
// name up, parses level (any case), maps "" to the engine's default
// (the first of its Levels) and refuses a level the engine does not
// list. Every door — Run, the HTTP jobs, sessions and fixtures, the
// fabric coordinator and the CLIs' -stream — resolves through it.
func (r *Registry) Resolve(name, level string) (Checker, Level, error) {
	c, err := r.Lookup(name)
	if err != nil {
		return nil, "", err
	}
	if level == "" {
		return c, c.Levels()[0], nil
	}
	lvl, err := ParseLevel(level)
	if err != nil {
		return nil, "", err
	}
	if !slices.Contains(c.Levels(), lvl) {
		return nil, "", fmt.Errorf("checker: %s does not support level %q (supports %s)",
			c.Name(), lvl, levelNames(c.Levels()))
	}
	return c, lvl, nil
}

// Names returns the sorted registered names.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.m))
	for n := range r.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns the registered checkers sorted by name.
func (r *Registry) All() []Checker {
	var out []Checker
	for _, n := range r.Names() {
		c, _ := r.Lookup(n)
		out = append(out, c)
	}
	return out
}

// Run resolves name and opts.Level (Resolve) and dispatches under ctx —
// through the component-sharding driver when opts.Shard > 0. The
// returned error marks caller mistakes (unknown checker, unknown or
// unsupported level), unsupported histories, or cancellation — as
// opposed to verification failures, which land in the Report.
func (r *Registry) Run(ctx context.Context, name string, h *history.History, opts Options) (Report, error) {
	c, lvl, err := r.Resolve(name, string(opts.Level))
	if err != nil {
		return Report{}, err
	}
	opts.Level = lvl
	if opts.Shard > 0 {
		if ShardCheck == nil {
			return Report{}, errors.New("checker: Options.Shard > 0 needs the sharding driver; link mtc/internal/shard")
		}
		return ShardCheck(ctx, c, h, opts)
	}
	return c.Check(ctx, h, opts)
}

// ShardCheck is the component-sharding driver Run dispatches through
// when Options.Shard > 0. internal/shard (which imports this package
// for the Checker and Report types) installs its Check here at init.
var ShardCheck func(ctx context.Context, c Checker, h *history.History, opts Options) (Report, error)

// levelNames renders a level list for error messages.
func levelNames(levels []Level) string {
	names := make([]string, len(levels))
	for i, l := range levels {
		names[i] = string(l)
	}
	return strings.Join(names, ", ")
}

// Default is the process-wide registry the engines register into.
var Default = &Registry{}

// Register adds c to the default registry.
func Register(c Checker) { Default.Register(c) }

// Lookup resolves a name in the default registry.
func Lookup(name string) (Checker, error) { return Default.Lookup(name) }

// Names lists the default registry's checker names.
func Names() []string { return Default.Names() }

// Run dispatches on the default registry.
func Run(ctx context.Context, name string, h *history.History, opts Options) (Report, error) {
	return Default.Run(ctx, name, h, opts)
}
