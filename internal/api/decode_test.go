package api

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mtc/internal/history"
)

// doc is a canonical history document touching every shape the scanner
// knows: an init transaction, an abort, null and empty ops, a nil and an
// empty session list, negative and 19-digit integers, a non-ASCII key.
const doc = `{"txns":[` +
	`{"id":0,"sess":-1,"ops":[{"k":1,"key":"x","v":0},{"k":1,"key":"clé","v":0}],"start":0,"finish":0,"committed":true},` +
	`{"id":1,"sess":0,"ops":[{"k":0,"key":"x","v":0},{"k":1,"key":"x","v":-7}],"start":1,"finish":1700000000000000000,"committed":true},` +
	`{"id":2,"sess":2,"ops":null,"start":2,"finish":3,"committed":false},` +
	`{"id":3,"sess":2,"ops":[],"start":4,"finish":5,"committed":true}],` +
	`"sessions":[[1],null,[2,3],[]],"has_init":true}`

// checkDoor holds one body to the door's contract — the request and the
// error text of json.Unmarshal — and reports whether the scanner took it.
func checkDoor(t testing.TB, body []byte) (fast bool) {
	t.Helper()
	var want JobRequest
	werr := json.Unmarshal(body, &want)
	got, gerr := DecodeJobRequest(body)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%q: door error %v, json.Unmarshal %v", body, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: door %+v (history %+v), json.Unmarshal %+v (history %+v)", body, got, got.History, want, want.History)
	}
	scanned, fast := scanJobRequest(body)
	if fast && (werr != nil || !reflect.DeepEqual(scanned, want)) {
		t.Fatalf("%q: the scanner accepted what json.Unmarshal decodes as %+v, %v", body, want, werr)
	}
	return fast
}

// TestDecodeJobRequestMatchesEncodingJSON walks the border of the fast
// spelling: on either side of it the door is json.Unmarshal.
func TestDecodeJobRequestMatchesEncodingJSON(t *testing.T) {
	re := func(old, new string) string {
		if !strings.Contains(doc, old) {
			t.Fatalf("doc has no %q", old)
		}
		return strings.Replace(doc, old, new, 1)
	}
	other := `{"txns":null,"sessions":null,"has_init":false}`
	cases := []struct {
		name, body string
		fast       bool
	}{
		{"history last", `{"checker":"mtc","level":"SI","shard":2,"history":` + doc + `}`, true},
		{"history first", `{"history":` + doc + `,"level":"SER","distributed":true}`, true},
		{"history alone", `{"history":` + doc + `}`, true},
		{"aborted doc", `{"history":` + re(`"has_init":true`, `"has_init":false`) + `}`, true},
		{"txns null", `{"history":{"txns":null,"sessions":[[]],"has_init":false}}`, true},
		{"txns empty", `{"history":{"txns":[],"sessions":[],"has_init":false}}`, true},
		{"sessions null", `{"history":` + re(`[[1],null,[2,3],[]]`, `null`) + `}`, true},
		{"sessions empty", `{"history":` + re(`[[1],null,[2,3],[]]`, `[]`) + `}`, true},
		{"sessions of nothing", `{"history":` + re(`[[1],null,[2,3],[]]`, `[[],null]`) + `}`, true},
		{"more ids than txns", `{"history":` + re(`[2,3]`, `[2,3,2,3,2,3,-1,9223372036854775807]`) + `}`, true},
		{"unknown fields around", `{"sparse_rt":true,"x":{"y":[1,"}"]},"history":` + doc + `,"skip_precheck":true,"z":null}`, true},
		{"pretty envelope", "{\n \"level\": \"SER\",\n \"history\":" + doc + "\n}\n", true},
		{"case-folded envelope", `{"LEVEL":"SER","Checker":"mtc","history":` + doc + `}`, true},
		{"escaped envelope", `{"lev\u0065l":"S\u0049","history":` + doc + `}`, true},
		{"trailing whitespace", `{"history":` + doc + "} \t\r\n", true},
		{"pattern in a string", `{"checker":"\"history\":{\"txns\":","history":` + doc + `}`, true},

		{"pretty history", `{"history": ` + doc + `}`, false},
		{"pretty doc", `{"history":` + re(`"sessions":`, `"sessions": `) + `}`, false},
		{"reordered doc", `{"history":{"sessions":null,"txns":null,"has_init":false}}`, false},
		{"reordered record", `{"history":` + re(`"id":2,"sess":2`, `"sess":2,"id":2`) + `}`, false},
		{"case-folded doc", `{"history":` + re(`"has_init"`, `"Has_Init"`) + `}`, false},
		{"case-folded key", `{"History":` + doc + `}`, false},
		{"long-s key", `{"hiſtory":` + doc + `}`, false},
		{"escaped key", `{"hist\u006fry":` + doc + `}`, false},
		{"key ending in the pattern", `{"x\"history":` + doc + `}`, false},
		{"key ending in the pattern, then the key", `{"x\"history":` + doc + `,"history":` + other + `}`, false},
		{"non-UTF-8 key", "{\"\xffhistory\":" + doc + `}`, false},
		{"nested", `{"x":{"history":` + doc + `},"level":"SER"}`, false},
		{"nested in an array", `{"x":[{"history":` + doc + `}]}`, false},
		{"nested, then the key", `{"x":{"history":` + doc + `},"history":` + other + `}`, false},
		{"history null", `{"level":"SER","history":null}`, false},
		{"history missing", `{"level":"SER"}`, false},
		{"history empty object", `{"history":{}}`, false},
		{"duplicate, last wins", `{"history":` + doc + `,"history":` + other + `}`, false},
		{"duplicate, same", `{"history":` + doc + `,"history":` + doc + `}`, false},
		{"duplicate, null before", `{"history":null,"history":` + doc + `}`, false},
		{"duplicate, null after", `{"history":` + doc + `,"history":null}`, false},
		{"duplicate, partial after", `{"history":` + doc + `,"history":{"has_init":false}}`, false},
		{"duplicate, empty txns after", `{"history":` + doc + `,"history":{"txns":[]}}`, false},
		{"duplicate, partial before", `{"history":{"txns":[{"id":9,"start":8}]},"history":` + doc + `}`, false},
		{"duplicate, folded after", `{"history":` + doc + `,"HISTORY":null}`, false},
		{"duplicate, escaped after", `{"history":` + doc + `,"hist\u006fry":{}}`, false},
		{"duplicate, long-s after", `{"history":` + doc + `,"hiſtory":null}`, false},
		{"int past int64", `{"history":` + re(`"v":-7`, `"v":9223372036854775808`) + `}`, false},
		{"session id past int64", `{"history":` + re(`[2,3]`, `[2,-9223372036854775809]`) + `}`, false},
		{"leading zero", `{"history":` + re(`[2,3]`, `[02,3]`) + `}`, false},
		{"fractional id", `{"history":` + re(`[2,3]`, `[2.0,3]`) + `}`, false},
		{"string session", `{"history":` + re(`[2,3]`, `["2",3]`) + `}`, false},
		{"dangling comma in txns", `{"history":` + re(`}],"sessions"`, `},],"sessions"`) + `}`, false},
		{"dangling comma in sessions", `{"history":` + re(`[]],"has_init"`, `[],],"has_init"`) + `}`, false},
		{"unknown doc field", `{"history":` + re(`,"has_init":true`, `,"has_init":true,"more":1`) + `}`, false},
		{"missing has_init", `{"history":` + re(`,"has_init":true`, ``) + `}`, false},
		{"has_init null", `{"history":` + re(`"has_init":true`, `"has_init":null`) + `}`, false},
		{"bad envelope type", `{"shard":"two","history":` + doc + `}`, false},
		{"bad envelope syntax", `{"shard":2,,"history":` + doc + `}`, false},
		{"trailing job", `{"history":` + doc + `}{"history":` + doc + `}`, false},
		{"trailing job, spelled", `{"history": ` + doc + `} {"history": ` + doc + `}`, false},
		{"trailing garbage", `{"history":` + doc + `}x`, false},
		{"trailing bracket", `{"history":` + doc + `}]`, false},
		{"array of jobs", `[{"history":` + doc + `}]`, false},
		{"bare document", doc, false},
		{"null", `null`, false},
		{"empty", ``, false},
		{"not json", `not json`, false},
	}
	for _, c := range cases {
		if fast := checkDoor(t, []byte(c.body)); fast != c.fast {
			t.Errorf("%s: fast path taken = %v, want %v", c.name, fast, c.fast)
		}
	}
	// A body cut anywhere is json.Unmarshal's to refuse.
	body := `{"checker":"mtc","history":` + doc + `,"level":"SI"}`
	for cut := 0; cut < len(body); cut++ {
		if checkDoor(t, []byte(body[:cut])) {
			t.Errorf("the scanner accepted the body cut at byte %d", cut)
		}
	}
}

// benchHistory is a clean read-modify-write history: txns transactions
// over keys keys in ten sessions, behind an init transaction.
func benchHistory(txns, keys int) *history.History {
	names := make([]history.Key, keys)
	for i := range names {
		names[i] = history.Key(fmt.Sprintf("acct%04d", i))
	}
	b := history.NewBuilder(names...)
	latest := make([]history.Value, keys)
	for j := 0; j < txns; j++ {
		k := j * 7 % keys
		b.TimedTxn(j%10, int64(2*j+1), int64(2*j+2), history.R(names[k], latest[k]), history.W(names[k], history.Value(j+1)))
		latest[k] = history.Value(j + 1)
	}
	return b.Build()
}

// TestJobMarshalTakesFastPath pins the writers to the scanner: what
// json.Marshal emits for a JobRequest — by pointer or by value, which is
// how pkg/client's request body is built — is a body the scanner takes.
// A new field, a changed tag or a reordered struct fails here instead of
// silently demoting every job to the encoding/json route.
func TestJobMarshalTakesFastPath(t *testing.T) {
	empty := &history.History{}
	reqs := []JobRequest{
		{History: benchHistory(50, 5)},
		{Checker: "mtc", Level: "SI", TimeoutMillis: 9, Parallelism: 1, Shard: 2, Window: 64, Distributed: true, History: benchHistory(3, 2)},
		{Level: "SER", History: empty},
		{History: &history.History{Txns: []history.Txn{}, Sessions: [][]int{nil, {}}}},
	}
	for _, fx := range history.Fixtures() {
		reqs = append(reqs, JobRequest{Level: "SER", History: fx.H})
	}
	for i, want := range reqs {
		byPointer, err := json.Marshal(&want)
		if err != nil {
			t.Fatal(err)
		}
		byValue, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{byPointer, byValue} {
			if !checkDoor(t, body) {
				t.Errorf("request %d: the scanner declined json.Marshal's own output %.80s…", i, body)
			}
			got, err := DecodeJobRequest(body)
			if err != nil {
				t.Fatal(err)
			}
			again, err := json.Marshal(&got)
			if err != nil || string(again) != string(body) {
				t.Errorf("request %d: the decoded request marshals to different bytes (%v)", i, err)
			}
		}
	}
}

// allocated reports the bytes and objects one call of f allocates.
func allocated(f func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestJobBodyAllocations: a canonical body costs the door about its own
// length — the transaction table, the op chunks, one string per key — and
// objects per key, not per transaction; the same history spelled for
// encoding/json shows what the door is not doing.
func TestJobBodyAllocations(t *testing.T) {
	body, err := json.Marshal(&JobRequest{Checker: "mtc", Level: "SER", History: benchHistory(20_000, 2000)})
	if err != nil {
		t.Fatal(err)
	}
	var req JobRequest
	bytes, objects := allocated(func() { req, err = DecodeJobRequest(body) })
	if err != nil || len(req.History.Txns) != 20_001 {
		t.Fatalf("decode: %v", err)
	}
	t.Logf("door: %d-byte body, %d bytes (%.2fx) in %d objects", len(body), bytes, float64(bytes)/float64(len(body)), objects)
	if float64(bytes) > 1.5*float64(len(body)) || objects > 3000 {
		t.Errorf("door allocated %d bytes in %d objects for a %d-byte body, want at most 1.5x and 3000", bytes, objects, len(body))
	}
	spelled := []byte(strings.Replace(string(body), `"history":`, `"history": `, 1))
	bytes, objects = allocated(func() { req, err = DecodeJobRequest(spelled) })
	if err != nil || len(req.History.Txns) != 20_001 {
		t.Fatalf("decode, spelled: %v", err)
	}
	t.Logf("json.Unmarshal: %d bytes (%.2fx) in %d objects", bytes, float64(bytes)/float64(len(body)), objects)
}

// FuzzDecodeJobRequest holds arbitrary bodies to the door's contract.
func FuzzDecodeJobRequest(f *testing.F) {
	f.Add([]byte(`{"checker":"mtc","level":"SI","shard":2,"history":` + doc + `}`))
	f.Add([]byte(`{"history":` + doc + `,"history":null}`))
	f.Add([]byte(`{"history":null,"history":` + doc + `,"HISTORY":{"txns":[]}}`))
	f.Add([]byte(`{"x":{"history":` + doc + `},"history":{"has_init":true}}`))
	f.Add([]byte(`{"x\"history":{"txns":null,"sessions":[[],null],"has_init":false},"history":{"txns":[],"sessions":null,"has_init":false}}`))
	f.Add([]byte("{\n \"level\": \"SER\",\n \"history\":{\"txns\":null,\"sessions\":[[1,2],[]],\"has_init\":true}\n}\n{}"))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDoor(t, body)
	})
}
