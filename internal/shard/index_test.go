package shard

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mtc/internal/corpus"
	"mtc/internal/history"
)

// TestComponentIndexMatchesNewIndex is the oracle for indexing a sharded
// check from one key column: for every component of Split(h), the index
// Check hands the component's engine must DeepEqual history.NewIndex of
// the component's sub-history, column for column, and the index of the
// single-component path must DeepEqual NewIndex(h). Both must rank keys
// by name, so a skipped rank fails here even though NewIndex would
// skip it too.
func TestComponentIndexMatchesNewIndex(t *testing.T) {
	histories, sharded := 0, 0
	check := func(h *history.History, tag string) {
		histories++
		p := Split(h)
		col := p.col
		if len(p.Components) > 1 {
			sharded++
			for i := range p.Components {
				c := &p.Components[i]
				sameIndex(t, col.index(i, c), history.NewIndex(c.H), fmt.Sprintf("%s/component %d", tag, i))
			}
		}
		// Last: IndexColumns ranks the source column in place.
		sameIndex(t, history.IndexColumns(h, col.names, col.opKey), history.NewIndex(h), tag)
	}
	corpus.Differential(corpus.Shape{Seeds: 30, Sessions: 4, Objects: 3, Tenants: true, Bugs: 2}, check)
	for _, txns := range []int{24, 200, 1200} {
		for _, s := range corpus.Shapes(txns, int64(txns)) {
			check(s.H, fmt.Sprintf("%s/%d", s.Name, txns))
		}
	}
	if sharded < histories/3 {
		t.Fatalf("only %d of %d histories split into several components", sharded, histories)
	}
	t.Logf("%d histories, %d of them sharded", histories, sharded)
}

func sameIndex(t *testing.T, got, want *history.Index, tag string) {
	t.Helper()
	if got.History() != want.History() {
		t.Fatalf("%s: index of another history", tag)
	}
	if !slices.IsSorted(got.KeyNames()) {
		t.Fatalf("%s: key ids not in name order: %v", tag, got.KeyNames())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: index differs from NewIndex", tag)
	}
}
