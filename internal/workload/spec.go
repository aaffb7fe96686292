package workload

import (
	"fmt"

	"mtc/internal/history"
)

// SpecKind identifies how an operation spec touches its key.
type SpecKind uint8

// Operation spec kinds.
const (
	SpecRead     SpecKind = iota // read the key
	SpecWrite                    // blind write (GT workloads only)
	SpecRMW                      // read then write (the MT pattern)
	SpecAppend                   // list append (Elle workloads)
	SpecReadList                 // list read (Elle workloads)
)

// String names the spec kind.
func (k SpecKind) String() string {
	switch k {
	case SpecRead:
		return "read"
	case SpecWrite:
		return "write"
	case SpecRMW:
		return "rmw"
	case SpecAppend:
		return "append"
	case SpecReadList:
		return "read-list"
	default:
		return fmt.Sprintf("SpecKind(%d)", uint8(k))
	}
}

// OpSpec is one planned access. Write values are assigned by the runner.
type OpSpec struct {
	Kind SpecKind
	Key  history.Key
}

// TxnSpec is a planned transaction.
type TxnSpec struct {
	Ops []OpSpec
}

// Workload is a complete plan: per-session transaction specs plus the key
// universe (used to initialize the store).
type Workload struct {
	Sessions [][]TxnSpec
	Keys     []history.Key
}

// NumTxns returns the total number of planned transactions.
func (w *Workload) NumTxns() int {
	n := 0
	for _, s := range w.Sessions {
		n += len(s)
	}
	return n
}

// KeyName renders object index i as a key.
func KeyName(i int) history.Key { return history.Key(fmt.Sprintf("k%d", i)) }

// KeyUniverse returns the keys k0..k{n-1}.
func KeyUniverse(n int) []history.Key {
	keys := make([]history.Key, n)
	for i := range keys {
		keys[i] = KeyName(i)
	}
	return keys
}
