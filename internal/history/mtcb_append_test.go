package history_test

import (
	"bytes"
	"fmt"
	"testing"

	"mtc/internal/corpus"
	"mtc/internal/history"
	"mtc/internal/shard"
)

// TestAppendMTCBMatchesStreamWriter holds every whole-document MTCB
// encoder — AppendMTCB over KeyColumn, WriteMTCB, and a split's
// SourceMTCB and ComponentMTCB — to StreamMTCB, which writes the same
// sorted header table and then every record through the streaming
// BinaryWriter. The histories are corpus.Shapes at four seeds,
// history.Fixtures, and the multi-tenant differential corpus, whose
// splits replicate ⊥T into every component. AppendMTCB must also size
// its output exactly.
func TestAppendMTCBMatchesStreamWriter(t *testing.T) {
	stream := func(h *history.History, tag string) []byte {
		var buf bytes.Buffer
		if err := history.StreamMTCB(&buf, h); err != nil {
			t.Fatalf("%s: stream writer: %v", tag, err)
		}
		return buf.Bytes()
	}
	same := func(got []byte, err error, want []byte, tag string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: %d bytes differ from the stream writer's %d", tag, len(got), len(want))
		}
	}
	histories, replicated := 0, 0
	check := func(h *history.History, tag string) {
		histories++
		want := stream(h, tag)
		// Appended behind a prefix into a buffer with exactly the room the
		// document needs: a size pass that is off either way reallocates.
		names, opKey := history.KeyColumn(h)
		dst := append(make([]byte, 0, 2+len(want)), 0xAB, 0xCD)
		got, err := history.AppendMTCB(dst, h, names, opKey)
		same(got[2:], err, want, tag+"/AppendMTCB")
		if &got[0] != &dst[0] || got[0] != 0xAB || got[1] != 0xCD {
			t.Fatalf("%s: AppendMTCB moved the buffer: not sized exactly", tag)
		}
		var w bytes.Buffer
		if err := history.WriteMTCB(&w, h); err != nil || !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("%s: WriteMTCB differs from the stream writer (%v)", tag, err)
		}
		p := shard.Split(h)
		got, err = p.SourceMTCB()
		same(got, err, want, tag+"/SourceMTCB")
		if h.HasInit && len(p.Components) > 1 {
			replicated++
		}
		for i := range p.Components {
			same(p.ComponentMTCB(i), nil, stream(p.Components[i].H, tag), fmt.Sprintf("%s/component %d", tag, i))
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, s := range corpus.Shapes(60, seed) {
			check(s.H, fmt.Sprintf("%s/%d", s.Name, seed))
		}
	}
	for _, f := range history.Fixtures() {
		check(f.H, f.Name)
	}
	corpus.Differential(corpus.Shape{Seeds: 12, Sessions: 4, Objects: 3, Tenants: true, Bugs: 1}, check)
	if replicated < 10 {
		t.Fatalf("only %d of %d histories split a replicated init into several components", replicated, histories)
	}
	t.Logf("%d histories, %d of them split with a replicated init", histories, replicated)
}
