package history

import (
	"bytes"
	"encoding/json"
	"math"
	"unicode/utf8"
)

// The canonical record is the one spelling json.Marshal(&Txn) — and so
// StreamWriter.WriteTxn, WriteJSON-free job bodies and the fabric WAL —
// emits for a transaction:
//
//	{"id":N,"sess":N,"ops":[{"k":N,"key":"…","v":N},…]|null,"start":N,"finish":N,"committed":true|false}
//
// fixed field order, no whitespace, integers in plain decimal, keys free
// of escapes. scanTxn recognises exactly that and nothing else; every
// other spelling of a transaction (reordered or case-folded fields,
// whitespace, escapes, exponents, unknown or missing fields, malformed
// input) is decoded by encoding/json exactly as before the scanner
// existed, so encoding/json stays the specification of the accepted
// language, of the decoded values and of every error text.

// fields returns t as the struct encoding/json decodes into when the
// scanner declines a record: Txn without its methods, so the decoder
// neither recurses into UnmarshalJSON nor loses DisallowUnknownFields at
// the Unmarshaler boundary, under the name "Txn", which is what
// json.UnmarshalTypeError prints as the struct a bad field belongs to.
func (t *Txn) fields() any {
	type plain Txn
	type Txn plain
	return (*Txn)(t)
}

// UnmarshalJSON decodes one transaction: the canonical spelling through
// scanTxn (no reflection, one exact-size Ops slice plus the key
// strings), anything else through encoding/json.
func (t *Txn) UnmarshalJSON(data []byte) error {
	if s, ok := scanTxn(data, nil); ok {
		*t = s
		return nil
	}
	return json.Unmarshal(data, t.fields())
}

// opOpen starts every operation of a canonical record and, containing a
// quote, cannot occur inside one of its (escape-free) keys: its count
// over one record is the record's operation count.
var opOpen = []byte(`{"k":`)

// scanTxn decodes line if it is, from its first byte to its last, a
// canonical record, and reports ok=false otherwise, having taken nothing
// from the arena's chunks. With an arena, keys are interned and Ops
// carved from its chunks; with nil, Ops is one exact-size slice and
// every key a fresh string.
//
//mtc:hotpath — per-line NDJSON / per-element JSON decode; allocates only what the returned Txn keeps
func scanTxn(line []byte, arena *IngestArena) (Txn, bool) {
	if arena == nil {
		// The input is one record, so a count to its end is the record's.
		arena = &IngestArena{opChunks: opChunks{free: make([]Op, bytes.Count(line, opOpen))}} //mtc:alloc-ok the one per-txn allocation of the no-arena path
	}
	t, i := scanTxnAt(line, 0, arena)
	if i != len(line) {
		return Txn{}, false
	}
	arena.commit(len(t.Ops))
	return t, true
}

// scanTxnAt is the one record scanner: it decodes the canonical record
// that starts at b[i] and returns the cursor past its closing brace, or
// -1 when b[i:] does not start with one. It reads no further than the
// record, so a caller may stand anywhere in a larger document. Ops sits
// at the front of the arena's current chunk until the caller commits it.
//
// The scan helpers take and return a cursor that is -1 once anything
// has mismatched, so the record reads straight through and is judged
// once, at the end.
//
//mtc:hotpath — the record loop under scanTxn and ScanDocument
func scanTxnAt(b []byte, i int, arena *IngestArena) (Txn, int) {
	var t Txn
	i = scanLit(b, i, `{"id":`)
	id, i := scanInt(b, i)
	i = scanLit(b, i, `,"sess":`)
	sess, i := scanInt(b, i)
	i = scanLit(b, i, `,"ops":`)
	t.Ops, i = scanOps(b, i, arena)
	i = scanLit(b, i, `,"start":`)
	t.Start, i = scanInt(b, i)
	i = scanLit(b, i, `,"finish":`)
	t.Finish, i = scanInt(b, i)
	i = scanLit(b, i, `,"committed":`)
	if j := scanLit(b, i, "true}"); j >= 0 {
		t.Committed, i = true, j
	} else {
		i = scanLit(b, i, "false}")
	}
	t.ID, t.Session = int(id), int(sess)
	if i < 0 || int64(t.ID) != id || int64(t.Session) != sess {
		return Txn{}, -1
	}
	return t, i
}

// scanLit returns the cursor past lit when b[i:] starts with it.
func scanLit(b []byte, i int, lit string) int {
	if i < 0 || len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// scanSep steps over what follows an array element: a comma, or the
// closing bracket, which sets last.
func scanSep(b []byte, i int) (next int, last bool) {
	if i < 0 || i >= len(b) || b[i] != ',' && b[i] != ']' {
		return -1, false
	}
	return i + 1, b[i] == ']'
}

// scanInt reads the plain decimal spelling of an int64 — what
// strconv.AppendInt writes: an optional '-', then digits with no
// leading zero — and leaves "-0", "007", fractions, exponents and
// out-of-range values to encoding/json.
func scanInt(b []byte, i int) (int64, int) {
	if i < 0 {
		return 0, -1
	}
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for i < len(b) && b[i]-'0' <= 9 {
		u = u*10 + uint64(b[i]-'0')
		i++
	}
	// Nineteen digits cannot wrap a uint64, so u is exact here.
	if n := i - start; n == 0 || n > 19 || b[start] == '0' && (n > 1 || neg) {
		return 0, -1
	}
	if neg {
		if u > -math.MinInt64 {
			return 0, -1
		}
		return -int64(u), i
	}
	if u > math.MaxInt64 {
		return 0, -1
	}
	return int64(u), i
}

// scanOps reads the "ops" value: null, [] or a non-empty array of
// canonical operations, filled straight into what is left of the
// arena's current chunk (grow moves them when it runs dry), so the scan
// never looks past the array to learn its length.
//
//mtc:hotpath — the per-op loop of scanTxnAt
func scanOps(b []byte, i int, arena *IngestArena) ([]Op, int) {
	if j := scanLit(b, i, "null"); j >= 0 {
		return nil, j
	}
	if j := scanLit(b, i, "[]"); j >= 0 {
		return []Op{}, j
	}
	i = scanLit(b, i, "[")
	ops := arena.free[:0:len(arena.free)]
	for last := false; !last; {
		var kind, v int64
		i = scanLit(b, i, `{"k":`)
		kind, i = scanInt(b, i)
		i = scanLit(b, i, `,"key":"`)
		if i < 0 || kind < 0 || kind > math.MaxUint8 {
			return nil, -1
		}
		// A key ends at the first quote; a backslash (an escape), a
		// control byte (illegal in JSON) or invalid UTF-8 (which
		// encoding/json rewrites to U+FFFD) declines the record.
		j, ascii := i, true
		for j < len(b) && b[j] != '"' && b[j] != '\\' && b[j] >= 0x20 {
			ascii = ascii && b[j] < utf8.RuneSelf
			j++
		}
		if j == len(b) || b[j] != '"' || !ascii && !utf8.Valid(b[i:j]) {
			return nil, -1
		}
		var key Key
		if arena.it != nil {
			key = arena.internBytes(b[i:j])
		} else {
			key = Key(b[i:j]) //mtc:alloc-ok one string per op, as encoding/json allocates
		}
		i = scanLit(b, j, `","v":`)
		v, i = scanInt(b, i)
		i = scanLit(b, i, "}")
		if i, last = scanSep(b, i); i < 0 {
			return nil, -1
		}
		if len(ops) == cap(ops) {
			ops = arena.grow(ops)
		}
		ops = append(ops, Op{Kind: OpKind(kind), Key: key, Value: Value(v)})
	}
	return ops[:len(ops):len(ops)], i
}

// The canonical document is the one spelling json.Marshal(&History) —
// and so every job body json.Marshal or pkg/client builds — emits for a
// whole history:
//
//	{"txns":[record,…]|null,"sessions":[[N,…]|null,…]|null,"has_init":true|false}
//
// canonical records in a fixed field order with no whitespace. Like the
// record scanner under it, ScanDocument recognises exactly that and
// leaves every other spelling to encoding/json.

// recOpen starts every canonical record and, containing a quote, cannot
// occur inside one: its count over a document is the transaction count.
// minRecord is the shortest record there is: a second bound, so that
// count cannot size a table the input could not fill.
var recOpen = []byte(`{"id":`)

const minRecord = len(`{"id":0,"sess":0,"ops":[],"start":0,"finish":0,"committed":true}`)

// ScanDocument decodes the canonical document that starts at b[i] and
// returns the cursor past its closing brace, or -1 — with the arena's
// chunks as they were — when b[i:] does not start with one. Keys are
// interned and Ops carved from arena; Txns is one exact-size table and
// the session lists are cut from one []int, so a history allocates per
// document, not per transaction. The result is what encoding/json
// decodes from the same bytes, unvalidated.
//
//mtc:hotpath — the whole-history JSON door (POST /v1/jobs, ReadJSON)
func ScanDocument(b []byte, i int, arena *IngestArena) (History, int) {
	var h History
	free := arena.free
	i = scanLit(b, i, `{"txns":`)
	h.Txns, i = scanTxns(b, i, arena)
	i = scanLit(b, i, `,"sessions":`)
	h.Sessions, i = scanSessions(b, i, len(h.Txns))
	i = scanLit(b, i, `,"has_init":`)
	if j := scanLit(b, i, "true}"); j >= 0 {
		h.HasInit, i = true, j
	} else {
		i = scanLit(b, i, "false}")
	}
	if i < 0 {
		arena.free = free
		return History{}, -1
	}
	return h, i
}

// scanTxns reads the "txns" value: null, [] or a non-empty array of
// canonical records, each handed to scanTxnAt.
//
//mtc:hotpath — the per-record loop of ScanDocument
func scanTxns(b []byte, i int, arena *IngestArena) ([]Txn, int) {
	if j := scanLit(b, i, "null"); j >= 0 {
		return nil, j
	}
	if j := scanLit(b, i, "[]"); j >= 0 {
		return []Txn{}, j
	}
	if i = scanLit(b, i, "["); i < 0 {
		return nil, -1
	}
	n := min(bytes.Count(b[i:], recOpen), (len(b)-i)/minRecord+1)
	txns := make([]Txn, 0, n) //mtc:alloc-ok the one transaction table of a document
	for last := false; !last; {
		var t Txn
		t, i = scanTxnAt(b, i, arena)
		if i, last = scanSep(b, i); i < 0 {
			return nil, -1
		}
		arena.commit(len(t.Ops))
		txns = append(txns, t)
	}
	return txns, i
}

// scanSessions reads the "sessions" value: null, [] or a non-empty
// array whose elements are null, [] or non-empty arrays of plain
// integers. The lists are cut from one arena sized for a history that
// lists each of its n transactions once; a document listing more grows
// it, and the lists already cut keep the array they were cut from.
//
//mtc:hotpath — the per-id loop of ScanDocument
func scanSessions(b []byte, i, n int) ([][]int, int) {
	if j := scanLit(b, i, "null"); j >= 0 {
		return nil, j
	}
	if j := scanLit(b, i, "[]"); j >= 0 {
		return [][]int{}, j
	}
	if i = scanLit(b, i, "["); i < 0 {
		return nil, -1
	}
	ids := make([]int, 0, n)        //mtc:alloc-ok the one session-list arena of a document
	sessions := make([][]int, 0, 8) //mtc:alloc-ok one header per session, amortized
	for last := false; !last; {
		var list []int
		if j := scanLit(b, i, "null"); j >= 0 {
			i = j
		} else if j := scanLit(b, i, "[]"); j >= 0 {
			list, i = []int{}, j
		} else {
			i = scanLit(b, i, "[")
			at := len(ids)
			for end := false; !end; {
				var id int64
				id, i = scanInt(b, i)
				if i, end = scanSep(b, i); i < 0 || int64(int(id)) != id {
					return nil, -1
				}
				ids = append(ids, int(id))
			}
			list = ids[at:len(ids):len(ids)]
		}
		if i, last = scanSep(b, i); i < 0 {
			return nil, -1
		}
		sessions = append(sessions, list)
	}
	return sessions, i
}
