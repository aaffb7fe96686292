package workload

import (
	"math/rand"
	"reflect"
	"testing"

	"mtc/internal/core"
)

// IsMT reports whether the spec lowers to a mini-transaction: at most two
// distinct keys, every write preceded by a read of the same key (SpecRMW
// guarantees this), and at most two reads and two writes.
func (t TxnSpec) IsMT() bool {
	reads, writes := 0, 0
	for _, op := range t.Ops {
		switch op.Kind {
		case SpecRead:
			reads++
		case SpecRMW:
			reads++
			writes++
		default:
			return false
		}
	}
	return reads >= 1 && reads <= 2 && writes <= 2
}

func TestDistRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range Distributions() {
		d := NewDist(kind, 50, rng)
		for i := 0; i < 2000; i++ {
			x := d.Next(rng)
			if x < 0 || x >= 50 {
				t.Fatalf("%s: out of range %d", kind, x)
			}
		}
	}
}

func TestDistSingleObject(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range Distributions() {
		d := NewDist(kind, 1, rng)
		for i := 0; i < 100; i++ {
			if d.Next(rng) != 0 {
				t.Fatalf("%s: single-object distribution must return 0", kind)
			}
		}
	}
}

func TestDistUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewDist(DistKind("bogus"), 10, rand.New(rand.NewSource(1)))
}

func TestDistZeroObjectsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewDist(Uniform, 0, rand.New(rand.NewSource(1)))
}

func counts(d Dist, rng *rand.Rand, n, samples int) []int {
	c := make([]int, n)
	for i := 0; i < samples; i++ {
		c[d.Next(rng)]++
	}
	return c
}

func TestZipfSkewsLow(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := counts(NewDist(Zipfian, 100, rng), rng, 100, 20000)
	if c[0] < c[50]*3 {
		t.Fatalf("zipf not skewed: c[0]=%d c[50]=%d", c[0], c[50])
	}
}

func TestHotspot8020(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := counts(NewDist(Hotspot, 100, rng), rng, 100, 20000)
	hot := 0
	for i := 0; i < 20; i++ {
		hot += c[i]
	}
	frac := float64(hot) / 20000
	if frac < 0.7 || frac > 0.9 {
		t.Fatalf("hotspot fraction = %f, want ~0.8", frac)
	}
}

func TestExponentialDecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := counts(NewDist(Exponential, 100, rng), rng, 100, 20000)
	if c[0] <= c[30] {
		t.Fatalf("exponential not decreasing: c[0]=%d c[30]=%d", c[0], c[30])
	}
}

func TestGenerateMTShapes(t *testing.T) {
	w := GenerateMT(MTConfig{Sessions: 4, Txns: 100, Objects: 10, Dist: Zipfian, Seed: 7, ReadOnlyFrac: 0.25})
	if len(w.Sessions) != 4 || w.NumTxns() != 400 {
		t.Fatalf("plan shape: %d sessions, %d txns", len(w.Sessions), w.NumTxns())
	}
	if len(w.Keys) != 10 {
		t.Fatalf("keys = %v", w.Keys)
	}
	readOnly := 0
	for _, sess := range w.Sessions {
		for _, txn := range sess {
			if !txn.IsMT() {
				t.Fatalf("non-MT spec generated: %+v", txn)
			}
			ro := true
			for _, op := range txn.Ops {
				if op.Kind != SpecRead {
					ro = false
				}
			}
			if ro {
				readOnly++
			}
		}
	}
	if readOnly < 50 || readOnly > 150 {
		t.Fatalf("read-only count %d not near 25%% of 400", readOnly)
	}
}

func TestGenerateMTDeterministic(t *testing.T) {
	cfg := MTConfig{Sessions: 2, Txns: 20, Objects: 5, Dist: Uniform, Seed: 9}
	a, b := GenerateMT(cfg), GenerateMT(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must produce the same plan")
	}
	cfg.Seed = 10
	c := GenerateMT(cfg)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateMTPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	GenerateMT(MTConfig{})
}

func TestGenerateGTMix(t *testing.T) {
	w := GenerateGT(GTConfig{Sessions: 4, Txns: 200, Objects: 50, OpsPerTxn: 10, Seed: 5})
	if w.NumTxns() != 800 {
		t.Fatalf("txns = %d", w.NumTxns())
	}
	var ro, wo, rmw int
	for _, sess := range w.Sessions {
		for _, txn := range sess {
			reads, writes, rmws := 0, 0, 0
			for _, op := range txn.Ops {
				switch op.Kind {
				case SpecRead:
					reads++
				case SpecWrite:
					writes++
				case SpecRMW:
					rmws++
				default:
					t.Fatalf("unexpected op kind %v in GT", op.Kind)
				}
			}
			switch {
			case reads > 0 && writes == 0 && rmws == 0:
				ro++
			case writes > 0 && reads == 0 && rmws == 0:
				wo++
			case rmws > 0 && reads == 0 && writes == 0:
				rmw++
			default:
				t.Fatalf("mixed GT transaction: %+v", txn)
			}
		}
	}
	// 20/40/40 split with slack.
	if ro < 100 || ro > 220 || wo < 240 || wo > 400 || rmw < 240 || rmw > 400 {
		t.Fatalf("mix ro=%d wo=%d rmw=%d", ro, wo, rmw)
	}
}

func TestGenerateGTOpsPerTxn(t *testing.T) {
	w := GenerateGT(GTConfig{Sessions: 1, Txns: 50, Objects: 10, OpsPerTxn: 8, Seed: 1})
	for _, txn := range w.Sessions[0] {
		n := 0
		for _, op := range txn.Ops {
			if op.Kind == SpecRMW {
				n += 2
			} else {
				n++
			}
		}
		if n != 8 {
			t.Fatalf("ops/txn = %d, want 8: %+v", n, txn)
		}
	}
}

func TestGenerateListAppend(t *testing.T) {
	w := GenerateListAppend(ListAppendConfig{Sessions: 3, Txns: 40, Objects: 5, MaxTxnLen: 6, Seed: 2})
	if w.NumTxns() != 120 {
		t.Fatalf("txns = %d", w.NumTxns())
	}
	for _, sess := range w.Sessions {
		for _, txn := range sess {
			if len(txn.Ops) < 1 || len(txn.Ops) > 6 {
				t.Fatalf("txn len %d", len(txn.Ops))
			}
			for _, op := range txn.Ops {
				if op.Kind != SpecAppend && op.Kind != SpecReadList {
					t.Fatalf("unexpected kind %v", op.Kind)
				}
			}
		}
	}
}

func TestGenerateRWRegister(t *testing.T) {
	w := GenerateRWRegister(RWRegisterConfig{Sessions: 3, Txns: 40, Objects: 5, MaxTxnLen: 4, Seed: 2})
	if w.NumTxns() != 120 {
		t.Fatalf("txns = %d", w.NumTxns())
	}
	for _, sess := range w.Sessions {
		for _, txn := range sess {
			for _, op := range txn.Ops {
				if op.Kind != SpecRead && op.Kind != SpecWrite {
					t.Fatalf("unexpected kind %v", op.Kind)
				}
			}
		}
	}
}

func TestGenerateLWTValid(t *testing.T) {
	for _, frac := range []float64{0, 0.5, 1} {
		ops := GenerateLWT(LWTConfig{Sessions: 10, TxnsPerSession: 20, ConcurrentFrac: frac, Keys: 3, Seed: 11})
		if r := core.VLLWT(ops); !r.OK {
			t.Fatalf("frac=%f: generated history must be linearizable: %s", frac, r.Reason)
		}
	}
}

func TestGenerateLWTViolation(t *testing.T) {
	ops := GenerateLWT(LWTConfig{Sessions: 5, TxnsPerSession: 20, ConcurrentFrac: 1, Keys: 2, Seed: 3, Violate: true})
	if r := core.VLLWT(ops); r.OK {
		t.Fatal("violating history must be rejected")
	}
}

func TestGenerateLWTConcurrencyOverlaps(t *testing.T) {
	ops := GenerateLWT(LWTConfig{Sessions: 4, TxnsPerSession: 50, ConcurrentFrac: 1, Keys: 1, Seed: 13})
	overlaps := 0
	for i := range ops {
		for j := range ops {
			if i != j && ops[i].Start < ops[j].Finish && ops[j].Start < ops[i].Finish {
				overlaps++
			}
		}
	}
	if overlaps == 0 {
		t.Fatal("fully concurrent history should contain overlapping intervals")
	}
	serial := GenerateLWT(LWTConfig{Sessions: 4, TxnsPerSession: 50, ConcurrentFrac: 0, Keys: 1, Seed: 13})
	serialOverlaps := 0
	for i := range serial {
		for j := range serial {
			if i != j && serial[i].Start < serial[j].Finish && serial[j].Start < serial[i].Finish {
				serialOverlaps++
			}
		}
	}
	if serialOverlaps >= overlaps {
		t.Fatalf("serial overlaps %d >= concurrent overlaps %d", serialOverlaps, overlaps)
	}
}

func TestSpecKindStrings(t *testing.T) {
	for k, want := range map[SpecKind]string{
		SpecRead: "read", SpecWrite: "write", SpecRMW: "rmw",
		SpecAppend: "append", SpecReadList: "read-list",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
	if SpecKind(77).String() != "SpecKind(77)" {
		t.Fatal("unknown spec kind")
	}
}

func TestIsMTRejectsGTShapes(t *testing.T) {
	if (TxnSpec{Ops: []OpSpec{{SpecWrite, "x"}}}).IsMT() {
		t.Fatal("blind write is not MT")
	}
	if (TxnSpec{Ops: []OpSpec{{SpecRead, "x"}, {SpecRead, "y"}, {SpecRead, "z"}}}).IsMT() {
		t.Fatal("three reads is not MT")
	}
	if (TxnSpec{}).IsMT() {
		t.Fatal("empty is not MT")
	}
}

func TestKeyUniverse(t *testing.T) {
	keys := KeyUniverse(3)
	if len(keys) != 3 || keys[0] != "k0" || keys[2] != "k2" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestGenerateTargetedShapes(t *testing.T) {
	w := GenerateTargeted(TargetedConfig{Sessions: 4, Txns: 50, Objects: 8, Seed: 1})
	if w.NumTxns() != 200 || len(w.Keys) != 8 {
		t.Fatalf("plan shape: %d txns, %d keys", w.NumTxns(), len(w.Keys))
	}
	hot := 0
	for _, sess := range w.Sessions {
		for _, txn := range sess {
			if !txn.IsMT() {
				t.Fatalf("non-MT targeted spec: %+v", txn)
			}
			for _, op := range txn.Ops {
				if op.Key == "k0" || op.Key == "k1" {
					hot++
				}
			}
		}
	}
	if hot < 150 {
		t.Fatalf("targeted plan must concentrate on the hot set, got %d hot accesses", hot)
	}
}

func TestGenerateTargetedSingleObject(t *testing.T) {
	w := GenerateTargeted(TargetedConfig{Sessions: 2, Txns: 20, Objects: 1, Seed: 2})
	for _, sess := range w.Sessions {
		for _, txn := range sess {
			if !txn.IsMT() {
				t.Fatalf("non-MT spec with single object: %+v", txn)
			}
		}
	}
}

func TestGenerateTargetedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	GenerateTargeted(TargetedConfig{})
}
