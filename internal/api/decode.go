package api

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"

	"mtc/internal/history"
)

// historyOpen is how json.Marshal — and so pkg/client — spells the start
// of a JobRequest's history: the key, then a canonical document.
var historyOpen = []byte(`"history":{"txns":`)

// DecodeJobRequest decodes the body of POST /v1/jobs. Its specification
// is json.Unmarshal(body, &req) — same request, same error text,
// trailing data refused — and that is also its fallback: only a body
// scanJobRequest vouches for is decoded any other way.
func DecodeJobRequest(body []byte) (JobRequest, error) {
	if req, ok := scanJobRequest(body); ok {
		return req, nil
	}
	var req JobRequest
	err := json.Unmarshal(body, &req)
	return req, err
}

// scanJobRequest reads a body whose history is the canonical document
// of history.ScanDocument once: the document is scanned where it sits,
// "null" is spliced in its place, and encoding/json decodes the envelope
// that is left — a few hundred bytes, so field order, unknown fields and
// every envelope error stay encoding/json's. It declines any other body,
// and any doubt: an envelope encoding/json refuses, a history key
// nested, duplicated or spelled with an escape.
//
//mtc:hotpath — one scan of the body; allocates what the request keeps plus the envelope
func scanJobRequest(body []byte) (JobRequest, bool) {
	key := bytes.Index(body, historyOpen)
	if key < 0 {
		return JobRequest{}, false
	}
	at := key + len(`"history":`)
	h, end := history.ScanDocument(body, at, history.NewIngestArena())
	if end < 0 {
		return JobRequest{}, false
	}
	env := make([]byte, 0, at+len("null")+len(body)-end) //mtc:alloc-ok the envelope: the body less its history
	env = append(append(append(env, body[:at]...), "null"...), body[end:]...)
	var req JobRequest
	if json.Unmarshal(env, &req) != nil || !soleHistoryKey(env, int64(at)) {
		return JobRequest{}, false
	}
	req.History = &h
	return req, true
}

// soleHistoryKey reports whether env, a JSON object, has exactly one
// top-level key encoding/json decodes into JobRequest.History (it folds
// case and reads escapes) and that key's value starts at offset at: the
// guarantee that the value spliced out of env was the request's history
// and that no second spelling of the key merges into it or replaces it.
func soleHistoryKey(env []byte, at int64) bool {
	dec := json.NewDecoder(bytes.NewReader(env))
	found := false
	depth, key := 0, false // key: the next token is a top-level key
	for {
		tok, err := dec.Token()
		if err != nil {
			return err == io.EOF && found
		}
		switch tok := tok.(type) {
		case json.Delim:
			if tok == '{' || tok == '[' {
				depth++
			} else {
				depth--
			}
		case string:
			if key {
				if strings.EqualFold(tok, "history") {
					// The offset is the colon's; the value follows it.
					if found || dec.InputOffset()+1 != at {
						return false
					}
					found = true
				}
				key = false
				continue
			}
		}
		key = depth == 1
	}
}
