package core

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mtc/internal/history"
)

// fig4a is the linearizable history of Figure 4a: O2 [1,4], O1 [3,6],
// O3 [5,8], witnessed by the order O1, O2, O3.
func fig4a() []LWT {
	return []LWT{
		{ID: 0, Key: "x", Kind: LWTInsert, Write: 0, Start: 1, Finish: 2},
		{ID: 2, Key: "x", Kind: LWTRW, Read: 1, Write: 2, Start: 3, Finish: 6},
		{ID: 1, Key: "x", Kind: LWTRW, Read: 0, Write: 1, Start: 4, Finish: 7},
		{ID: 3, Key: "x", Kind: LWTRW, Read: 2, Write: 3, Start: 6, Finish: 9},
	}
}

// fig4b is the non-linearizable variant of Figure 4b: O1 starts only after
// O2 finished, yet O2 reads the value O1 writes.
func fig4b() []LWT {
	return []LWT{
		{ID: 0, Key: "x", Kind: LWTInsert, Write: 0, Start: 1, Finish: 2},
		{ID: 2, Key: "x", Kind: LWTRW, Read: 1, Write: 2, Start: 3, Finish: 5},
		{ID: 1, Key: "x", Kind: LWTRW, Read: 0, Write: 1, Start: 7, Finish: 10},
		{ID: 3, Key: "x", Kind: LWTRW, Read: 2, Write: 3, Start: 6, Finish: 9},
	}
}

func TestVLLWTFig4aLinearizable(t *testing.T) {
	r := VLLWT(fig4a())
	if !r.OK {
		t.Fatalf("Figure 4a history is linearizable: %s", r.Reason)
	}
	chain := r.Chains["x"]
	want := []int{0, 1, 2, 3}
	if len(chain) != 4 {
		t.Fatalf("chain = %v", chain)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain = %v, want %v", chain, want)
		}
	}
}

func TestVLLWTFig4bNotLinearizable(t *testing.T) {
	r := VLLWT(fig4b())
	if r.OK {
		t.Fatal("Figure 4b history is not linearizable")
	}
	if r.Key != "x" || r.Reason == "" {
		t.Fatalf("want reason on key x, got %+v", r)
	}
}

func TestVLLWTNoInsert(t *testing.T) {
	r := VLLWT([]LWT{{ID: 0, Key: "x", Kind: LWTRW, Read: 0, Write: 1, Start: 1, Finish: 2}})
	if r.OK || !strings.Contains(r.Reason, "insert") {
		t.Fatalf("want insert-count rejection, got %+v", r)
	}
}

func TestVLLWTTwoInserts(t *testing.T) {
	r := VLLWT([]LWT{
		{ID: 0, Key: "x", Kind: LWTInsert, Write: 0, Start: 1, Finish: 2},
		{ID: 1, Key: "x", Kind: LWTInsert, Write: 5, Start: 3, Finish: 4},
	})
	if r.OK || !strings.Contains(r.Reason, "insert") {
		t.Fatalf("want insert-count rejection, got %+v", r)
	}
}

func TestVLLWTChainBreak(t *testing.T) {
	r := VLLWT([]LWT{
		{ID: 0, Key: "x", Kind: LWTInsert, Write: 0, Start: 1, Finish: 2},
		{ID: 1, Key: "x", Kind: LWTRW, Read: 7, Write: 8, Start: 3, Finish: 4}, // 7 never written
	})
	if r.OK || !strings.Contains(r.Reason, "chain") {
		t.Fatalf("want chain-break rejection, got %+v", r)
	}
}

func TestVLLWTDuplicateReaders(t *testing.T) {
	r := VLLWT([]LWT{
		{ID: 0, Key: "x", Kind: LWTInsert, Write: 0, Start: 1, Finish: 2},
		{ID: 1, Key: "x", Kind: LWTRW, Read: 0, Write: 1, Start: 3, Finish: 4},
		{ID: 2, Key: "x", Kind: LWTRW, Read: 0, Write: 2, Start: 3, Finish: 4},
	})
	if r.OK || !strings.Contains(r.Reason, "chain not unique") {
		t.Fatalf("want duplicate-reader rejection, got %+v", r)
	}
}

func TestVLLWTMultipleKeysLocality(t *testing.T) {
	ops := append(fig4a(), []LWT{
		{ID: 10, Key: "y", Kind: LWTInsert, Write: 0, Start: 1, Finish: 2},
		{ID: 11, Key: "y", Kind: LWTRW, Read: 0, Write: 1, Start: 3, Finish: 4},
	}...)
	r := VLLWT(ops)
	if !r.OK {
		t.Fatalf("both keys linearizable: %s", r.Reason)
	}
	if len(r.Chains) != 2 {
		t.Fatalf("chains = %v", r.Chains)
	}
	// Break y only; x must not mask it.
	ops[len(ops)-1].Read = 42
	r = VLLWT(ops)
	if r.OK || r.Key != "y" {
		t.Fatalf("want y rejection, got %+v", r)
	}
}

func TestVLLWTRealTimeBoundary(t *testing.T) {
	// finish == start of successor is allowed (RT is strict <).
	ops := []LWT{
		{ID: 0, Key: "x", Kind: LWTInsert, Write: 0, Start: 1, Finish: 2},
		{ID: 1, Key: "x", Kind: LWTRW, Read: 0, Write: 1, Start: 2, Finish: 3},
	}
	if r := VLLWT(ops); !r.OK {
		t.Fatalf("touching intervals are linearizable: %s", r.Reason)
	}
}

func TestVLLWTEmptyAndSingleInsert(t *testing.T) {
	if r := VLLWT(nil); !r.OK {
		t.Fatalf("empty history trivially linearizable: %+v", r)
	}
	r := VLLWT([]LWT{{ID: 0, Key: "x", Kind: LWTInsert, Write: 0, Start: 1, Finish: 2}})
	if !r.OK || len(r.Chains["x"]) != 1 {
		t.Fatalf("single insert: %+v", r)
	}
}

func TestLWTToHistoryShape(t *testing.T) {
	h := LWTToHistory(fig4a())
	if len(h.Txns) != 4 || h.HasInit {
		t.Fatalf("unexpected history: %+v", h)
	}
	if len(h.Txns[0].Ops) != 1 || h.Txns[0].Ops[0].Kind != history.OpWrite {
		t.Fatalf("insert must convert to a pure write: %v", h.Txns[0])
	}
	if len(h.Txns[1].Ops) != 2 {
		t.Fatalf("R&W must convert to read+write: %v", h.Txns[1])
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLWTString(t *testing.T) {
	o := LWT{ID: 1, Key: "x", Kind: LWTRW, Read: 0, Write: 1, Start: 2, Finish: 3}
	if o.String() != "O1:R&W(x,0,1)@[2,3]" {
		t.Fatalf("String = %q", o.String())
	}
	i := LWT{ID: 0, Key: "x", Kind: LWTInsert, Write: 0, Start: 1, Finish: 2}
	if i.String() != "O0:Insert(x,0)@[1,2]" {
		t.Fatalf("String = %q", i.String())
	}
}

// randomLWTHistory builds a valid single-key LWT chain and randomly jitters
// the intervals. When jitter keeps intervals consistent with the chain
// order the history stays linearizable; otherwise it may not be. We only
// assert agreement between VLLWT and CheckSSER on the converted history.
func randomLWTHistory(rng *rand.Rand, n int, breakIt bool) []LWT {
	ops := make([]LWT, 0, n+1)
	ops = append(ops, LWT{ID: 0, Key: "k", Kind: LWTInsert, Write: 0, Start: 1, Finish: 2})
	var tme int64 = 3
	for i := 1; i <= n; i++ {
		start := tme - int64(rng.Intn(3)) // may overlap predecessor
		if start < 1 {
			start = 1
		}
		ops = append(ops, LWT{
			ID: i, Key: "k", Kind: LWTRW,
			Read: history.Value(i - 1), Write: history.Value(i),
			Start: start, Finish: tme + 2,
		})
		tme += 3
	}
	if breakIt && n >= 2 {
		// Shift one operation far into the future so it starts after its
		// successors finish.
		i := 1 + rng.Intn(n-1)
		ops[i].Start += 1000
		ops[i].Finish += 1000
	}
	// Shuffle presentation order; checkers must not rely on it.
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func TestPropertyVLLWTAgreesWithCheckSSER(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		ops := randomLWTHistory(rng, n, rng.Intn(2) == 1)
		lr := VLLWT(ops)
		hr := check(LWTToHistory(ops), SSER)
		if lr.OK != hr.OK {
			t.Logf("VLLWT=%v CheckSSER=%v\nreason=%s\n%s", lr.OK, hr.OK, lr.Reason, hr.Explain())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyValidChainsAlwaysLinearizable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ops := randomLWTHistory(rng, 2+rng.Intn(30), false)
		r := VLLWT(ops)
		if !r.OK {
			return false
		}
		// The chain witness must be value-ordered.
		chain := r.Chains["k"]
		ids := append([]int(nil), chain...)
		if !sort.IntsAreSorted(ids) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
