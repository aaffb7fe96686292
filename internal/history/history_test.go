package history

import (
	"bytes"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

func TestTxnReadsWrites(t *testing.T) {
	tx := Txn{Ops: []Op{R("x", 1), W("x", 2), R("x", 2), R("y", 7), W("x", 3)}}
	reads := tx.Reads()
	if len(reads) != 2 || reads["x"] != 1 || reads["y"] != 7 {
		t.Fatalf("Reads = %v", reads)
	}
	writes := tx.Writes()
	if len(writes) != 1 || writes["x"] != 3 {
		t.Fatalf("Writes = %v", writes)
	}
	all := tx.WritesAll()
	if !reflect.DeepEqual(all["x"], []Value{2, 3}) {
		t.Fatalf("WritesAll = %v", all)
	}
}

func TestTxnReadsIgnoresPostWriteReads(t *testing.T) {
	tx := Txn{Ops: []Op{W("x", 2), R("x", 2)}}
	if len(tx.Reads()) != 0 {
		t.Fatalf("read after own write must not count as external read: %v", tx.Reads())
	}
}

func TestBuilderAndValidate(t *testing.T) {
	b := NewBuilder("x", "y")
	t1 := b.Txn(0, R("x", 0), W("x", 1))
	t2 := b.Txn(1, R("y", 0))
	h := b.Build()
	if t1 != 1 || t2 != 2 {
		t.Fatalf("ids = %d,%d", t1, t2)
	}
	if !h.HasInit || len(h.Txns) != 3 {
		t.Fatalf("unexpected history %+v", h)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	keys := historyKeys(h)
	if len(keys) != 2 || keys[0] != "x" || keys[1] != "y" {
		t.Fatalf("keys = %v", keys)
	}
}

// historyKeys returns the sorted set of keys touched anywhere in h.
func historyKeys(h *History) []Key {
	set := map[Key]struct{}{}
	for i := range h.Txns {
		for _, op := range h.Txns[i].Ops {
			set[op.Key] = struct{}{}
		}
	}
	out := make([]Key, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func TestValidateCatchesBadID(t *testing.T) {
	h := &History{Txns: []Txn{{ID: 5, Committed: true}}, Sessions: [][]int{{0}}}
	if err := h.Validate(); err == nil {
		t.Fatal("want error for mismatched ID")
	}
}

func TestValidateCatchesDuplicateSessionEntry(t *testing.T) {
	h := &History{
		Txns:     []Txn{{ID: 0, Session: 0, Committed: true}},
		Sessions: [][]int{{0, 0}},
	}
	if err := h.Validate(); err == nil {
		t.Fatal("want error for duplicate session entry")
	}
}

func TestSessionOrderSkipsAborted(t *testing.T) {
	b := NewBuilder("x")
	b.Txn(0, R("x", 0), W("x", 1))
	b.AbortedTxn(0, R("x", 1), W("x", 2))
	b.Txn(0, R("x", 1), W("x", 3))
	h := b.Build()
	var edges [][2]int
	h.SessionOrder(func(a, c int) { edges = append(edges, [2]int{a, c}) })
	// init -> T1, T1 -> T3 (T2 aborted, skipped)
	want := [][2]int{{0, 1}, {1, 3}}
	if !reflect.DeepEqual(edges, want) {
		t.Fatalf("SO edges = %v, want %v", edges, want)
	}
}

func TestRealTimeOrder(t *testing.T) {
	b := NewBuilder()
	b.TimedTxn(0, 10, 20, R("x", 1))
	b.TimedTxn(1, 30, 40, R("x", 1))
	b.TimedTxn(2, 15, 35, R("x", 1)) // overlaps both
	h := b.Build()
	var edges [][2]int
	h.RealTimeOrder(func(a, c int) { edges = append(edges, [2]int{a, c}) })
	want := [][2]int{{0, 1}}
	if !reflect.DeepEqual(edges, want) {
		t.Fatalf("RT edges = %v, want %v", edges, want)
	}
}

// TestRealTimeOrderTimedPredicate: RealTimeOrder uses Txn.Timed — the
// predicate the SSER rung ranks by — so a transaction stamped only at
// one end takes part, a fully unstamped or aborted one does not, and a
// tie (Finish == Start) is not precedence.
func TestRealTimeOrderTimedPredicate(t *testing.T) {
	b := NewBuilder()
	b.TimedTxn(0, 0, 5, R("x", 1))          // T0: Start 0 is a stamp once Finish is set
	b.TimedTxn(1, 5, 9, R("x", 1))          // T1: starts at T0's finish, concurrent with it
	b.TimedTxn(2, 6, 6, R("x", 1))          // T2: an instant
	b.Txn(3, R("x", 1))                     // T3: untimed
	b.TimedAbortedTxn(4, 20, 30, R("x", 1)) // T4: aborted
	b.TimedTxn(5, -9, -5, R("x", 1))        // T5: before everything, T0's zero start included
	h := b.Build()
	var edges [][2]int
	h.RealTimeOrder(func(a, c int) { edges = append(edges, [2]int{a, c}) })
	want := [][2]int{{0, 2}, {5, 0}, {5, 1}, {5, 2}}
	if !reflect.DeepEqual(edges, want) {
		t.Fatalf("RT edges = %v, want %v", edges, want)
	}
}

// halfStamped is the history every path must refuse: T2 carries a start
// but no finish, which one real-time predicate used to read as untimed
// and the other as an interval ending at 0 — the same bytes got two
// SSER verdicts.
func halfStamped() *History {
	b := NewBuilder("x")
	b.TimedTxn(0, 8, 9, R("x", 0), W("x", 1))
	b.TimedTxn(1, 7, 0, R("x", 1))
	return b.Build()
}

func TestValidateRejectsFinishBeforeStart(t *testing.T) {
	h := halfStamped()
	if err := h.Validate(); err == nil || !strings.Contains(err.Error(), "finish 0 < start 7") {
		t.Fatalf("Validate = %v, want a finish-before-start error", err)
	}
	// Every whole-history codec validates on load.
	dir := t.TempDir()
	for _, name := range []string{"h.json", "h.ndjson", "h.mtcb"} {
		path := filepath.Join(dir, name)
		if err := SaveFile(path, h); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		if _, err := LoadFile(path); err == nil || !strings.Contains(err.Error(), "finish 0 < start 7") {
			t.Errorf("%s: load = %v, want a finish-before-start error", name, err)
		}
	}
}

// TestValidateRejectsSessionOutOfIDOrder: session 0 listed as [T2, T1].
// The batch graph read session order from the list and found
// T2 -SO-> T1 -WR(x)-> T2; shard components, the online replay, MTCB
// and the fabric read it from the ids and passed. Every path now refuses
// the history instead.
func TestValidateRejectsSessionOutOfIDOrder(t *testing.T) {
	b := NewBuilder("x", "y")
	b.Txn(0, R("x", 0), W("x", 1))
	b.Txn(0, R("x", 1), W("x", 2))
	b.Txn(1, R("y", 0), W("y", 1))
	h := b.Build()
	h.Sessions[0] = []int{2, 1}
	const want = "session 0 not in id order: T2 listed before T1"
	if err := h.Validate(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Validate = %v, want %q", err, want)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, h); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(&buf); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReadJSON = %v, want %q", err, want)
	}
}

func TestWriterIndex(t *testing.T) {
	b := NewBuilder("x")
	b.Txn(0, R("x", 0), W("x", 1))
	b.AbortedTxn(0, R("x", 1), W("x", 2))
	h := b.Build()
	idx, dups := BuildWriterIndex(h)
	if len(dups) != 0 {
		t.Fatalf("dups = %v", dups)
	}
	if idx.Writer("x", 0) != 0 || idx.Writer("x", 1) != 1 {
		t.Fatal("wrong writers")
	}
	if idx.Writer("x", 2) != -1 {
		t.Fatal("aborted write must not be indexed")
	}
	if idx.Writer("y", 0) != -1 {
		t.Fatal("unknown key")
	}
	if got := idx.WritersOf("x"); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("WritersOf = %v", got)
	}
}

func TestWriterIndexDuplicates(t *testing.T) {
	b := NewBuilder()
	b.Txn(0, R("x", 7), W("x", 7)) // future read, and...
	b.Txn(1, R("x", 7), W("x", 7)) // ...a duplicate (x,7) writer
	h := b.Build()
	_, dups := BuildWriterIndex(h)
	if len(dups) != 1 {
		t.Fatalf("want 1 dup, got %v", dups)
	}
}

func TestCheckInternalCleanHistory(t *testing.T) {
	h := SerialHistory(20, "x", "y", "z")
	if as := CheckInternalIndexed(NewIndex(h)); len(as) != 0 {
		t.Fatalf("clean history reported anomalies: %v", as)
	}
}

func TestCheckInternalDetectsEachPreCheckAnomaly(t *testing.T) {
	for _, f := range Fixtures() {
		f := f
		t.Run(f.Name, func(t *testing.T) {
			as := CheckInternalIndexed(NewIndex(f.H))
			if f.PreCheck {
				if len(as) == 0 {
					t.Fatalf("expected pre-check anomaly %s, got none", f.AnomalyAt)
				}
				found := false
				for _, a := range as {
					if a.Kind == f.AnomalyAt {
						found = true
					}
				}
				if !found {
					t.Fatalf("expected %s among %v", f.AnomalyAt, as)
				}
			} else {
				if len(as) != 0 {
					t.Fatalf("dependency-level fixture must pass pre-check, got %v", as)
				}
			}
		})
	}
}

func TestCheckInternalIntermediateRead(t *testing.T) {
	b := NewBuilder("x")
	b.Txn(0, R("x", 0), W("x", 1), W("x", 2))
	b.Txn(1, R("x", 1))
	as := CheckInternalIndexed(NewIndex(b.Build()))
	if len(as) != 1 || as[0].Kind != IntermediateRead || as[0].Txn != 2 {
		t.Fatalf("anomalies = %v", as)
	}
}

func TestCheckInternalReadOwnWriteOK(t *testing.T) {
	b := NewBuilder("x")
	b.Txn(0, R("x", 0), W("x", 1), R("x", 1))
	if as := CheckInternalIndexed(NewIndex(b.Build())); len(as) != 0 {
		t.Fatalf("reading own last write is fine, got %v", as)
	}
}

func TestCheckInternalRepeatableReadOK(t *testing.T) {
	b := NewBuilder("x")
	b.Txn(0, R("x", 0), R("x", 0))
	if as := CheckInternalIndexed(NewIndex(b.Build())); len(as) != 0 {
		t.Fatalf("repeated equal reads are fine, got %v", as)
	}
}

// TestClassifyRead pins the one INT classifier: its three outcomes and
// the four anomaly kinds it reports, for the read at position i.
func TestClassifyRead(t *testing.T) {
	cases := []struct {
		name  string
		ops   []Op
		i     int
		class ReadClass
		kind  AnomalyKind
	}{
		{"first external read", []Op{R("x", 0), W("x", 1)}, 0, ExternalRead, 0},
		{"own writes to other keys", []Op{W("y", 1), R("x", 1)}, 1, ExternalRead, 0},
		{"later write of the value to another key", []Op{R("x", 2), W("y", 2)}, 0, ExternalRead, 0},
		{"reads its last write", []Op{R("x", 0), W("x", 1), R("x", 1)}, 2, OwnRead, 0},
		{"reads the last of two writes", []Op{W("x", 1), W("x", 2), R("x", 2)}, 2, OwnRead, 0},
		{"reads the first of two writes", []Op{W("x", 1), W("x", 2), R("x", 1)}, 2, AnomalousRead, NotMyLastWrite},
		{"reads a foreign value after a write", []Op{W("x", 1), R("x", 5)}, 1, AnomalousRead, NotMyOwnWrite},
		{"repeats its read after a write", []Op{R("x", 0), W("x", 1), R("x", 0)}, 2, AnomalousRead, NotMyOwnWrite},
		{"repeats a read of its write", []Op{R("x", 0), W("x", 1), R("x", 1), R("x", 1)}, 3, OwnRead, 0},
		{"repeated equal read", []Op{R("x", 0), R("y", 4), R("x", 0)}, 2, OwnRead, 0},
		{"repeated read differs", []Op{R("x", 0), R("x", 3)}, 1, AnomalousRead, NonRepeatableReads},
		{"compared with the first read", []Op{R("x", 0), R("x", 3), R("x", 3)}, 2, AnomalousRead, NonRepeatableReads},
		{"reads its later write", []Op{R("x", 2), W("x", 2)}, 0, AnomalousRead, FutureRead},
		{"reads its later second write", []Op{R("x", 2), W("x", 1), R("y", 0), W("x", 2)}, 0, AnomalousRead, FutureRead},
	}
	for _, c := range cases {
		class, kind := ClassifyRead(c.ops, c.i)
		if class != c.class || (class == AnomalousRead && kind != c.kind) {
			t.Errorf("%s: ClassifyRead(%v, %d) = %d %s, want %d %s", c.name, c.ops, c.i, class, kind, c.class, c.kind)
		}
	}
}

func TestIsMiniTransaction(t *testing.T) {
	cases := []struct {
		ops  []Op
		want bool
	}{
		{[]Op{R("x", 0)}, true},
		{[]Op{R("x", 0), W("x", 1)}, true},
		{[]Op{R("x", 0), R("y", 0)}, true},
		{[]Op{R("x", 0), R("y", 0), W("x", 1), W("y", 2)}, true},
		{[]Op{R("x", 0), R("y", 0), W("y", 2), W("x", 1)}, true},
		{[]Op{W("x", 1)}, false},                                  // write without preceding read
		{[]Op{R("x", 0), W("y", 1)}, false},                       // write of unread key
		{[]Op{R("x", 0), R("y", 0), R("z", 0)}, false},            // three reads
		{[]Op{R("x", 0), W("x", 1), W("x", 2), W("x", 3)}, false}, // three writes
		{[]Op{}, false}, // empty
	}
	for i, c := range cases {
		tx := Txn{Ops: c.ops}
		if got := IsMiniTransaction(&tx); got != c.want {
			t.Fatalf("case %d: IsMiniTransaction(%v) = %v, want %v", i, c.ops, got, c.want)
		}
	}
}

func TestValidateMT(t *testing.T) {
	for _, f := range Fixtures() {
		// All fixtures are MT histories by construction.
		if f.Name == "NotMyLastWrite" || f.Name == "IntermediateRead" {
			// These contain a 4-op transaction with two writes on one key,
			// which is a legal MT shape; ValidateMT should still accept
			// except for duplicate values - none here.
			continue
		}
		if err := ValidateMT(f.H); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
	}
	// Non-MT: general transaction with 3 reads.
	b := NewBuilder("x", "y", "z")
	b.Txn(0, R("x", 0), R("y", 0), R("z", 0))
	if err := ValidateMT(b.Build()); err == nil {
		t.Fatal("want non-MT error")
	}
	// Duplicate values.
	b2 := NewBuilder()
	b2.Txn(0, R("x", 3), W("x", 3))
	b2.Txn(1, R("x", 3), W("x", 3))
	if err := ValidateMT(b2.Build()); err == nil {
		t.Fatal("want duplicate-value error")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	h := SerialHistory(10, "x", "y")
	var buf bytes.Buffer
	if err := WriteJSON(&buf, h); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, got) {
		t.Fatal("JSON round trip mismatch")
	}
}

func TestFixtureByName(t *testing.T) {
	if FixtureByName("WriteSkew") == nil {
		t.Fatal("WriteSkew fixture missing")
	}
	if FixtureByName("NoSuchThing") != nil {
		t.Fatal("unknown fixture must be nil")
	}
}

func TestFixtureCount(t *testing.T) {
	// The 14 anomaly histories of Table I plus the per-rung lattice
	// fixtures (G1cCycle, RealTimeViolation).
	if n := len(Fixtures()); n != 16 {
		t.Fatalf("want 16 fixtures, got %d", n)
	}
}

func TestAnomalyStrings(t *testing.T) {
	a := Anomaly{Kind: ThinAirRead, Txn: 3, Key: "x", Value: 9}
	if a.String() != "ThinAirRead in T3 on R(x,9)" {
		t.Fatalf("String = %q", a.String())
	}
	d := Anomaly{Kind: DuplicateWrite, Txn: 1, Key: "x", Value: 2}
	if d.String() != "DuplicateWrite in T1 on W(x,2)" {
		t.Fatalf("String = %q", d.String())
	}
	kinds := []AnomalyKind{ThinAirRead, AbortedRead, FutureRead, NotMyLastWrite,
		NotMyOwnWrite, IntermediateRead, NonRepeatableReads, DuplicateWrite}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
}

func TestTxnString(t *testing.T) {
	tx := Txn{ID: 2, Session: 1, Ops: []Op{R("x", 1), W("x", 2)}, Committed: true}
	if tx.String() != "T2[s1]{R(x,1) W(x,2)}" {
		t.Fatalf("String = %q", tx.String())
	}
	tx.Committed = false
	if tx.String() != "T2[s1]{R(x,1) W(x,2)} (aborted)" {
		t.Fatalf("String = %q", tx.String())
	}
}

func TestSaveLoadFile(t *testing.T) {
	h := SerialHistory(5, "x")
	path := t.TempDir() + "/h.json"
	if err := SaveFile(path, h); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, got) {
		t.Fatal("file round trip mismatch")
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{not json")); err == nil {
		t.Fatal("want decode error")
	}
	// Valid JSON, invalid history (bad ID).
	bad := `{"txns":[{"id":5,"sess":0,"ops":[],"start":0,"finish":0,"committed":true}],"sessions":[[0]],"has_init":false}`
	if _, err := ReadJSON(bytes.NewBufferString(bad)); err == nil {
		t.Fatal("want validation error")
	}
}

func TestTimedAbortedTxn(t *testing.T) {
	b := NewBuilder("x")
	id := b.TimedAbortedTxn(0, 5, 9, R("x", 0))
	h := b.Build()
	if h.Txns[id].Committed || h.Txns[id].Start != 5 || h.Txns[id].Finish != 9 {
		t.Fatalf("aborted txn: %+v", h.Txns[id])
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
}
