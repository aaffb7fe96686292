package shard

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mtc/internal/checker"
	"mtc/internal/core"
	"mtc/internal/history"
)

// tenantHistory builds a clean multi-tenant history: `tenants` session
// pairs, each pair working over its own two keys, so the decomposition
// has exactly `tenants` components.
func tenantHistory(tenants, txnsPerSession int) *history.History {
	var keys []history.Key
	for t := 0; t < tenants; t++ {
		keys = append(keys, history.Key(fmt.Sprintf("t%da", t)), history.Key(fmt.Sprintf("t%db", t)))
	}
	b := history.NewBuilder(keys...)
	last := make(map[history.Key]history.Value)
	val := history.Value(1)
	for i := 0; i < txnsPerSession; i++ {
		for t := 0; t < tenants; t++ {
			ka := history.Key(fmt.Sprintf("t%da", t))
			kb := history.Key(fmt.Sprintf("t%db", t))
			for s := 0; s < 2; s++ {
				// Read both tenant keys, update the session's own: the
				// history is serial (built in program order), and the
				// shared read couples the tenant's two sessions into one
				// component.
				k := ka
				if s == 1 {
					k = kb
				}
				b.Txn(2*t+s, history.R(ka, last[ka]), history.R(kb, last[kb]), history.W(k, val))
				last[k] = val
				val++
			}
		}
	}
	return b.Build()
}

func TestSplitTenants(t *testing.T) {
	h := tenantHistory(4, 5)
	p := Split(h)
	if len(p.Components) != 4 {
		t.Fatalf("got %d components, want 4", len(p.Components))
	}
	seen := make(map[int]bool)
	keysOf := make(map[int]map[history.Key]bool)
	total := 0
	for ci := range p.Components {
		c := &p.Components[ci]
		if err := c.H.Validate(); err != nil {
			t.Fatalf("component %d invalid: %v", ci, err)
		}
		if !c.H.HasInit {
			t.Fatalf("component %d lost the init transaction", ci)
		}
		keysOf[ci] = map[history.Key]bool{}
		for li := range c.H.Txns {
			ext := c.ExtOf(li)
			if li == 0 {
				if ext != 0 {
					t.Fatalf("component %d: init maps to %d, want 0", ci, ext)
				}
				continue
			}
			if seen[ext] {
				t.Fatalf("external txn %d appears in more than one component", ext)
			}
			seen[ext] = true
			total++
			// Ops are shared with the source transaction, id metadata remapped.
			if !reflect.DeepEqual(c.H.Txns[li].Ops, h.Txns[ext].Ops) {
				t.Fatalf("component %d txn %d ops diverge from external %d", ci, li, ext)
			}
			for _, op := range c.H.Txns[li].Ops {
				keysOf[ci][op.Key] = true
			}
		}
	}
	if total != len(h.Txns)-1 {
		t.Fatalf("components cover %d txns, want %d", total, len(h.Txns)-1)
	}
	// Key-disjointness: the decomposition invariant.
	for a := range keysOf {
		for b := range keysOf {
			if a >= b {
				continue
			}
			for k := range keysOf[a] {
				if keysOf[b][k] {
					t.Fatalf("components %d and %d share key %s", a, b, k)
				}
			}
		}
	}
}

// TestSplitSharedKeyDegenerates: sessions coupled through one shared key
// collapse into a single component.
func TestSplitSharedKeyDegenerates(t *testing.T) {
	b := history.NewBuilder("x", "y", "z")
	b.Txn(0, history.R("x", 0), history.W("x", 1))
	b.Txn(1, history.R("y", 0), history.W("y", 2))
	b.Txn(2, history.R("z", 0), history.W("z", 3))
	// The coupler reads two of the keys, chaining all three sessions.
	b.Txn(0, history.R("y", 2), history.W("y", 4))
	b.Txn(1, history.R("z", 3), history.W("z", 5))
	p := Split(b.Build())
	if len(p.Components) != 1 {
		t.Fatalf("got %d components, want 1", len(p.Components))
	}
}

// TestSplitEdgeParity: summed per-component dependency edges equal the
// unsharded count at SER/SI (init replication preserves SO and per-key
// write chains).
func TestSplitEdgeParity(t *testing.T) {
	h := tenantHistory(3, 8)
	for _, lvl := range []core.Level{core.SER, core.SI} {
		ref := coreCheck(h, lvl)
		if !ref.OK {
			t.Fatalf("reference %s check rejected a clean history", lvl)
		}
		sum := 0
		for _, c := range Split(h).Components {
			r := coreCheck(c.H, lvl)
			if !r.OK {
				t.Fatalf("component %s check rejected a clean component", lvl)
			}
			sum += r.NumEdges
		}
		if sum != ref.NumEdges {
			t.Fatalf("%s: component edges sum to %d, unsharded has %d", lvl, sum, ref.NumEdges)
		}
	}
}

// TestMergeFirstOffense: with violations in two components, the merged
// report carries every anomaly (sorted by external position) and the
// first offense is the minimum across components — even when the
// first-offending component is not component 0.
func TestMergeFirstOffense(t *testing.T) {
	b := history.NewBuilder("x", "y")
	b.Txn(0, history.R("x", 0), history.W("x", 1)) // T1, component 0 (x)
	b.Txn(1, history.R("y", 99))                   // T2, component 1 (y): thin-air
	b.Txn(0, history.R("x", 77))                   // T3, component 0 (x): thin-air
	h := b.Build()

	rep, err := checker.Run(context.Background(), "mtc", h, checker.Options{Level: core.SI, Shard: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK {
		t.Fatal("merged verdict must be a violation")
	}
	if rep.ShardComponents != 2 {
		t.Fatalf("ShardComponents = %d, want 2", rep.ShardComponents)
	}
	want := []history.Anomaly{
		{Kind: history.ThinAirRead, Txn: 2, Key: "y", Value: 99},
		{Kind: history.ThinAirRead, Txn: 3, Key: "x", Value: 77},
	}
	if !reflect.DeepEqual(rep.Anomalies, want) {
		t.Fatalf("merged anomalies = %v, want %v", rep.Anomalies, want)
	}
	if at := FirstOffense(rep); at != 2 {
		t.Fatalf("FirstOffense = %d, want 2 (min across components)", at)
	}
	// The unsharded engine agrees on the anomaly set.
	ref, err := checker.Run(context.Background(), "mtc", h, checker.Options{Level: core.SI})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Anomalies, want) {
		t.Fatalf("unsharded anomalies = %v, want %v", ref.Anomalies, want)
	}
}

// TestShardedSingleComponentFallback: a fully-coupled history passes
// through the engine directly, with a component count of 1.
func TestShardedSingleComponentFallback(t *testing.T) {
	h := history.SerialHistory(10, "x")
	rep, err := checker.Run(context.Background(), "mtc", h, checker.Options{Level: core.SER, Shard: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.ShardComponents != 1 || rep.Checker != "mtc" {
		t.Fatalf("fallback report: %+v", rep)
	}
	ref, err := checker.Run(context.Background(), "mtc", h, checker.Options{Level: core.SER})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Edges != ref.Edges || rep.Txns != ref.Txns {
		t.Fatalf("fallback diverges: %d/%d edges, %d/%d txns", rep.Edges, ref.Edges, rep.Txns, ref.Txns)
	}
}

// TestRunShardsOnOptionsShard: Options.Shard > 0 on checker.Run IS
// sharding — the base engine name, four components on a four-tenant
// history, the same report shard.Check builds — and Shard 0 is off.
func TestRunShardsOnOptionsShard(t *testing.T) {
	h := tenantHistory(4, 6)
	ctx := context.Background()
	opts := checker.Options{Level: core.SI, Shard: 2}
	got, err := checker.Run(ctx, "mtc", h, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.ShardComponents != 4 || got.Checker != "mtc" {
		t.Fatalf("Run with Shard 2: checker %q, %d components; want mtc, 4", got.Checker, got.ShardComponents)
	}
	eng, err := checker.Lookup("mtc")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Check(ctx, eng, h, opts)
	if err != nil {
		t.Fatal(err)
	}
	got.Timings, want.Timings = nil, nil // wall-clock differs, nothing else may
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Run with Shard 2 diverges from shard.Check:\n%+v\n%+v", got, want)
	}
	off, err := checker.Run(ctx, "mtc", h, checker.Options{Level: core.SI})
	if err != nil {
		t.Fatal(err)
	}
	if off.ShardComponents != 0 {
		t.Fatalf("Shard 0 must check unsharded, got %d components", off.ShardComponents)
	}
}

// TestRegistryHasNoShardedTwins: sharding is an option, not a name — the
// registry lists exactly the ten base engines and "mtc-sharded" is an
// unknown checker.
func TestRegistryHasNoShardedTwins(t *testing.T) {
	want := []string{"cobra", "elle", "mtc", "mtc-incremental", "polysi", "porcupine", "profile"}
	if got := checker.Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry lists %v, want %v", got, want)
	}
	_, err := checker.Run(context.Background(), "mtc-sharded", tenantHistory(2, 2), checker.Options{Level: core.SI, Shard: 2})
	if err == nil || !strings.Contains(err.Error(), "unknown checker") {
		t.Fatalf("mtc-sharded: want an unknown-checker error, got %v", err)
	}
}

// barrierChecker blocks every Check until `want` calls are in flight —
// the proof that the driver fans components out with item granularity
// (a chunked claim would run them all on one worker and deadlock here).
type barrierChecker struct {
	want     int32
	inFlight atomic.Int32
	release  chan struct{}
}

func (b *barrierChecker) Name() string            { return "barrier" }
func (b *barrierChecker) Levels() []checker.Level { return []checker.Level{core.SER} }

func (b *barrierChecker) Check(ctx context.Context, h *history.History, opts checker.Options) (checker.Report, error) {
	if b.inFlight.Add(1) == b.want {
		close(b.release)
	}
	select {
	case <-b.release:
	case <-time.After(10 * time.Second):
		return checker.Report{}, fmt.Errorf("fan-out never reached %d concurrent component checks", b.want)
	}
	return checker.Report{Checker: "barrier", Level: core.SER, OK: true, Txns: len(h.Txns)}, nil
}

// TestDriverChecksComponentsConcurrently: at Shard 4 on a 4-component
// history, all four component checks must be in flight at once.
func TestDriverChecksComponentsConcurrently(t *testing.T) {
	h := tenantHistory(4, 2)
	bc := &barrierChecker{want: 4, release: make(chan struct{})}
	rep, err := Check(context.Background(), bc, h, checker.Options{Level: core.SER, Shard: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK || rep.ShardComponents != 4 {
		t.Fatalf("merged report: %+v", rep)
	}
}

// TestShardedTimings: the merged report sums per-phase timings across
// components and prepends the partition phase.
func TestShardedTimings(t *testing.T) {
	h := tenantHistory(3, 4)
	rep, err := checker.Run(context.Background(), "mtc", h, checker.Options{Level: core.SER, Shard: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Timings) < 2 || rep.Timings[0].Phase != "partition" {
		t.Fatalf("timings = %v, want partition first then the engine phases", rep.Timings)
	}
	if rep.Detail == "" || rep.ShardComponents != 3 {
		t.Fatalf("merged clean report: %+v", rep)
	}
}

// monotonicReadsBreak adds, over key k, session a: R(k,0)W(k,1),
// R(k,1)W(k,2) and session b: R(k,2), R(k,1) — a monotonic-reads
// violation by session b.
func monotonicReadsBreak(b *history.Builder, k history.Key, a, c int) {
	b.Txn(a, history.R(k, 0), history.W(k, 1))
	b.Txn(a, history.R(k, 1), history.W(k, 2))
	b.Txn(c, history.R(k, 2))
	b.Txn(c, history.R(k, 1))
}

// TestShardedGuaranteeNamesSourceSession: a sharded profile names a
// violated guarantee's session in source numbering, as the unsharded
// profile does — the lowest violating session across components, even
// when a later component holds it — and a pre-check failure in any
// component voids the guarantee (session -1) as it does unsharded.
func TestShardedGuaranteeNamesSourceSession(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		build  func(b *history.Builder)
		wantMR int
	}{
		{"second session of the second component", func(b *history.Builder) {
			b.Txn(0, history.R("y", 0), history.W("y", 1))
			monotonicReadsBreak(b, "x", 1, 2)
		}, 2},
		{"pre-check in another component", func(b *history.Builder) {
			b.Txn(0, history.R("y", 0), history.W("y", 1))
			monotonicReadsBreak(b, "x", 1, 2)
			b.Txn(3, history.R("z", 99))
		}, -1},
		{"lower session in a later component", func(b *history.Builder) {
			monotonicReadsBreak(b, "x", 3, 4)
			monotonicReadsBreak(b, "y", 0, 1)
		}, 1},
	} {
		b := history.NewBuilder("x", "y", "z")
		tc.build(b)
		h := b.Build()
		var mr []checker.GuaranteeVerdict
		for _, shard := range []int{0, 2} {
			rep, err := checker.Run(ctx, "profile", h, checker.Options{Level: core.SER, Shard: shard})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if shard > 0 && rep.ShardComponents < 2 {
				t.Fatalf("%s: %d components, want several", tc.name, rep.ShardComponents)
			}
			for _, g := range rep.Guarantees {
				if g.Guarantee == "MR" {
					mr = append(mr, g)
				}
			}
		}
		if len(mr) != 2 {
			t.Fatalf("%s: MR verdicts %+v", tc.name, mr)
		}
		for i, g := range mr {
			if g.OK || g.Session != tc.wantMR {
				t.Fatalf("%s, run %d (unsharded, sharded): MR %+v, want violated by session %d",
					tc.name, i, g, tc.wantMR)
			}
		}
	}
}

// coreCheck runs the batch MTC pipeline on h. Under a background context
// the only error CheckCtx can return is a level without a batch engine.
func coreCheck(h *history.History, lvl core.Level) core.Result {
	r, err := core.CheckCtx(context.Background(), history.NewIndex(h), lvl)
	if err != nil {
		panic(err)
	}
	return r
}
