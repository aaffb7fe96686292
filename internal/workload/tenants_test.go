package workload

import (
	"reflect"
	"testing"

	"mtc/internal/history"
)

// TestTenantsKeyDisjoint: with T tenants the MT plan's sessions split
// into T key-disjoint groups, round-robin by session index.
func TestTenantsKeyDisjoint(t *testing.T) {
	w := GenerateMT(MTConfig{Sessions: 8, Txns: 20, Objects: 5, Seed: 7, Tenants: 4})
	if len(w.Keys) != 20 {
		t.Fatalf("key universe %d, want Objects*Tenants = 20", len(w.Keys))
	}
	assertTenantsKeyDisjoint(t, w, 4)
}

// assertTenantsKeyDisjoint reads the keys each session's specs touch and
// fails unless sessions share a key only within their tenant, session s
// being tenant s mod tenants's, and every tenant touches a key.
func assertTenantsKeyDisjoint(t *testing.T, w *Workload, tenants int) {
	t.Helper()
	tenantOf := make(map[history.Key]int)
	for si, specs := range w.Sessions {
		for _, spec := range specs {
			for _, op := range spec.Ops {
				if tn, ok := tenantOf[op.Key]; ok && tn != si%tenants {
					t.Fatalf("session %d (tenant %d) touches %s of tenant %d", si, si%tenants, op.Key, tn)
				}
				tenantOf[op.Key] = si % tenants
			}
		}
	}
	touched := make(map[int]bool)
	for _, tn := range tenantOf {
		touched[tn] = true
	}
	if len(touched) != tenants {
		t.Fatalf("%d of %d tenants touch a key", len(touched), tenants)
	}
}

// TestTenantsOffByDefault: Tenants 0 or 1 reproduces the single-tenant
// plan byte for byte (seed compatibility).
func TestTenantsOffByDefault(t *testing.T) {
	base := GenerateMT(MTConfig{Sessions: 3, Txns: 10, Objects: 4, Seed: 42})
	for _, tenants := range []int{0, 1} {
		got := GenerateMT(MTConfig{Sessions: 3, Txns: 10, Objects: 4, Seed: 42, Tenants: tenants})
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("Tenants=%d changed the plan", tenants)
		}
	}
}

// TestTenantsGT: the GT generator shards identically.
func TestTenantsGT(t *testing.T) {
	w := GenerateGT(GTConfig{Sessions: 6, Txns: 15, Objects: 4, OpsPerTxn: 4, Seed: 3, Tenants: 3})
	if len(w.Keys) != 12 {
		t.Fatalf("key universe %d, want 12", len(w.Keys))
	}
	assertTenantsKeyDisjoint(t, w, 3)
	base := GenerateGT(GTConfig{Sessions: 6, Txns: 15, Objects: 4, OpsPerTxn: 4, Seed: 3})
	got := GenerateGT(GTConfig{Sessions: 6, Txns: 15, Objects: 4, OpsPerTxn: 4, Seed: 3, Tenants: 1})
	if !reflect.DeepEqual(got, base) {
		t.Fatal("Tenants=1 changed the GT plan")
	}
}
