package shard

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"mtc/internal/corpus"
	"mtc/internal/history"
)

// TestComponentMTCBIsStable: cutting a component's key column is
// idempotent, so its encoding is the same bytes when it is encoded
// twice, after Check's index cut of it, and on a fresh split whose index
// was cut first — and those bytes are history.WriteMTCB of the
// component's sub-history (which the history tests hold to the streaming
// writer). Decoded, every component equals the one Split built.
func TestComponentMTCBIsStable(t *testing.T) {
	sharded := 0
	check := func(h *history.History, tag string) {
		p, fresh := Split(h), Split(h)
		if len(p.Components) > 1 {
			sharded++
		}
		for i := range p.Components {
			c := &p.Components[i]
			tag := fmt.Sprintf("%s/component %d", tag, i)
			first := p.ComponentMTCB(i)
			again := p.ComponentMTCB(i)
			p.col.index(i, c)
			after := p.ComponentMTCB(i)
			fresh.col.index(i, &fresh.Components[i])
			indexedFirst := fresh.ComponentMTCB(i)
			var want bytes.Buffer
			if err := history.WriteMTCB(&want, c.H); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			for name, got := range map[string][]byte{"first": first, "again": again, "after index": after, "index first": indexedFirst} {
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("%s: %s encoding differs from WriteMTCB", tag, name)
				}
			}
			dec, err := history.ReadMTCB(bytes.NewReader(first))
			if err != nil {
				t.Fatalf("%s: decode: %v", tag, err)
			}
			if !reflect.DeepEqual(dec, c.H) {
				t.Fatalf("%s: decoded component differs from the split's", tag)
			}
		}
	}
	corpus.Differential(corpus.Shape{Seeds: 12, Sessions: 4, Objects: 3, Tenants: true, Bugs: 1}, check)
	for _, s := range corpus.Shapes(200, 7) {
		check(s.H, s.Name)
	}
	if sharded < 10 {
		t.Fatalf("only %d histories split into several components", sharded)
	}
}
