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
// quote, cannot occur inside one of its (escape-free) keys: its count is
// the record's operation count.
var opOpen = []byte(`{"k":`)

// scanTxn decodes line if it is a canonical record, byte for byte, and
// reports ok=false otherwise, having taken nothing from the arena's
// chunks. With an arena, keys are interned and Ops carved from its
// chunks; with nil, Ops is one exact-size slice and every key a fresh
// string.
//
// The scan helpers take and return a cursor that is -1 once anything
// has mismatched, so the record reads straight through and is judged
// once, at the end.
//
//mtc:hotpath — per-line NDJSON / per-element JSON decode; allocates only what the returned Txn keeps
func scanTxn(line []byte, arena *IngestArena) (Txn, bool) {
	var t Txn
	i := scanLit(line, 0, `{"id":`)
	id, i := scanInt(line, i)
	i = scanLit(line, i, `,"sess":`)
	sess, i := scanInt(line, i)
	i = scanLit(line, i, `,"ops":`)
	t.Ops, i = scanOps(line, i, arena)
	i = scanLit(line, i, `,"start":`)
	t.Start, i = scanInt(line, i)
	i = scanLit(line, i, `,"finish":`)
	t.Finish, i = scanInt(line, i)
	i = scanLit(line, i, `,"committed":`)
	if j := scanLit(line, i, "true}"); j >= 0 {
		t.Committed, i = true, j
	} else {
		i = scanLit(line, i, "false}")
	}
	t.ID, t.Session = int(id), int(sess)
	if i != len(line) || int64(t.ID) != id || int64(t.Session) != sess {
		return Txn{}, false
	}
	if arena != nil {
		arena.commit(len(t.Ops))
	}
	return t, true
}

// scanLit returns the cursor past lit when b[i:] starts with it.
func scanLit(b []byte, i int, lit string) int {
	if i < 0 || len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
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
// canonical operations.
//
//mtc:hotpath — the per-op loop of scanTxn
func scanOps(b []byte, i int, arena *IngestArena) ([]Op, int) {
	if j := scanLit(b, i, "null"); j >= 0 {
		return nil, j
	}
	if j := scanLit(b, i, "[]"); j >= 0 {
		return []Op{}, j
	}
	i = scanLit(b, i, "[")
	if i < 0 {
		return nil, -1
	}
	var ops []Op
	if n := bytes.Count(b[i:], opOpen); n == 0 {
		return nil, -1
	} else if arena != nil {
		ops = arena.reserve(n)
	} else {
		ops = make([]Op, n) //mtc:alloc-ok the one per-txn allocation of the no-arena path
	}
	for k := range ops {
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
		if arena != nil {
			key = arena.internBytes(b[i:j])
		} else {
			key = Key(b[i:j]) //mtc:alloc-ok one string per op, as encoding/json allocates
		}
		i = scanLit(b, j, `","v":`)
		v, i = scanInt(b, i)
		i = scanLit(b, i, "}")
		if i < 0 || i == len(b) {
			return nil, -1
		}
		ops[k] = Op{Kind: OpKind(kind), Key: key, Value: Value(v)}
		sep := byte(',')
		if k == len(ops)-1 {
			sep = ']'
		}
		if b[i] != sep {
			return nil, -1
		}
		i++
	}
	return ops, i
}
