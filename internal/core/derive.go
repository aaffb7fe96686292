package core

import (
	"context"

	"mtc/internal/graph"
	"mtc/internal/history"
)

// DeriveDepsCtx derives every WR, WW and RW dependency edge of the indexed
// history following the optimized Algorithm 1, invoking emit once per
// edge, and returns the DIVERGENCE witnesses found while inferring WW
// edges. It is the columnar core of BuildDependency: instead of per-txn
// map probes it merge-joins each transaction's sorted read and write
// key columns and takes each read's writer from the index's
// resolved-reads column, so the hot loop performs no per-transaction
// allocation (a handful of flat scratch arenas are allocated once per
// call) and the whole derivation is O(reads + edges), however wide the
// init transaction. Edge emission order — and therefore every downstream
// cycle search — is identical to the map-based builder: transactions
// ascending, keys in lexicographic order within each, WR before WW,
// then the RW loop grouped by writer; a graph built from the emitted
// edges matches the one BuildDependency constructs (internal/levels
// relies on this for bit-identical SER/SI rungs). The derivation polls
// ctx between batches of transactions and returns its error when the
// deadline fires.
func DeriveDepsCtx(ctx context.Context, ix *history.Index, emit func(graph.Edge)) ([]Divergence, error) {
	rr, err := resolveReads(ctx, ix)
	if err != nil {
		return nil, err
	}
	return rr.emitDeps(ctx, emit)
}

// resolvedReads is pass A of the derivation: every read's RMW status and
// the WR/WW out-degree prefix sums per writer. isRMW aligns with the
// index's read column (transactions are iterated in order, so positions
// are contiguous); wrCnt/wwCnt hold counts at [w+1]
// for emitDeps' in-place prefix-sum-then-fill trick. The totals are
// known here, before any edge exists, which is what lets
// BuildDependencyCtx size the graph's edge arena once.
type resolvedReads struct {
	ix           *history.Index
	isRMW        []bool
	wrCnt, wwCnt []int32
}

// numWR is the WR edge total emitDeps will emit.
func (rr resolvedReads) numWR() int { return int(rr.wrCnt[len(rr.wrCnt)-1]) }

// resolveReads runs pass A.
//
//mtc:hotpath — the first of the three merge-join passes the allocs/op benchmark gate measures
func resolveReads(ctx context.Context, ix *history.Index) (resolvedReads, error) {
	n := ix.NumTxns()
	isRMW := make([]bool, ix.NumReads())
	wrCnt := make([]int32, n+1)
	wwCnt := make([]int32, n+1)
	pos := 0
	for s := 0; s < n; s++ {
		if s&1023 == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return resolvedReads{}, cerr
			}
		}
		rk, rw := ix.ReadKeys(s), ix.ReadWriters(s)
		wk, _ := ix.Writes(s)
		j := 0
		for i, k := range rk {
			for j < len(wk) && wk[j] < k {
				j++
			}
			w := rw[i]
			if w < 0 || int(w) == s {
				continue // pre-check reports these; stay robust here
			}
			wrCnt[w+1]++
			if j < len(wk) && wk[j] == k {
				isRMW[pos+i] = true
				wwCnt[w+1]++
			}
		}
		pos += len(rk)
	}
	for w := 0; w < n; w++ {
		wrCnt[w+1] += wrCnt[w]
		wwCnt[w+1] += wwCnt[w]
	}
	return resolvedReads{ix: ix, isRMW: isRMW, wrCnt: wrCnt, wwCnt: wwCnt}, nil
}

// emitDeps runs passes B and C over the resolved reads. It consumes the
// prefix sums, so it runs once.
//
//mtc:hotpath — the emitting two of the three merge-join passes the allocs/op benchmark gate measures
func (rr resolvedReads) emitDeps(ctx context.Context, emit func(graph.Edge)) ([]Divergence, error) {
	ix, isRMW, wrCnt, wwCnt := rr.ix, rr.isRMW, rr.wrCnt, rr.wwCnt
	n := ix.NumTxns()
	totalWR, totalWW := wrCnt[n], wwCnt[n]

	// Pass B: emit WR and WW edges in transaction/key order while
	// scattering (key, reader) and (key, overwriter) into per-writer
	// segments of the flat arenas (the columnar wrOut/wwOut). wrCnt[w]
	// advances from w's segment start to its end as the segment fills.
	// Divergence witnesses index dense (key, writer) slots instead of a
	// map, preserving the map-based builder's first-reader semantics and
	// report order.
	wrKey := make([]history.KeyID, totalWR)
	wrTo := make([]int32, totalWR)
	wwKey := make([]history.KeyID, totalWW)
	wwTo := make([]int32, totalWW)
	firstRMW := make([]int32, ix.NumWriterSlots())
	for i := range firstRMW {
		firstRMW[i] = -1
	}
	var divs []Divergence
	pos := 0
	for s := 0; s < n; s++ {
		if s&1023 == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
		}
		rk, rw := ix.ReadKeys(s), ix.ReadWriters(s)
		for i, k := range rk {
			w := rw[i]
			if w < 0 || int(w) == s {
				continue
			}
			emit(graph.Edge{From: int(w), To: s, Kind: graph.WR, Obj: string(ix.KeyName(k))})
			wrKey[wrCnt[w]] = k
			wrTo[wrCnt[w]] = int32(s)
			wrCnt[w]++
			if !isRMW[pos+i] {
				continue
			}
			emit(graph.Edge{From: int(w), To: s, Kind: graph.WW, Obj: string(ix.KeyName(k))})
			wwKey[wwCnt[w]] = k
			wwTo[wwCnt[w]] = int32(s)
			wwCnt[w]++
			if slot := ix.WriterSlot(k, w); slot >= 0 {
				if prev := firstRMW[slot]; prev >= 0 {
					divs = append(divs, Divergence{Key: ix.KeyName(k), Writer: int(w), Reader1: int(prev), Reader2: s}) //mtc:alloc-ok divergences are rare anomalies; this branch is cold
				} else {
					firstRMW[slot] = int32(s)
				}
			}
		}
		pos += len(rk)
	}

	// Pass C: RW edges. T' -WR(x)-> T and T' -WW(x)-> S with T != S
	// gives T -RW(x)-> S (lines 14-15 of BuildDependency). After the
	// fill, wrCnt[w] is the END of w's segment, so w's segment starts at
	// wrCnt[w-1] (the previous writer's end). The WW segment is threaded
	// into one chain per (writer, key) — head[k], then next[j] — built
	// from the segment's tail down so it runs in segment order; a reader
	// walks its key's chain, which yields the pairs of a readers ×
	// overwriters double loop in the same order, in O(WR + WW + RW).
	nk := ix.NumKeys()
	chains := make([]int32, nk+int(totalWW)) // one arena: head, then next
	head, next := chains[:nk], chains[nk:]
	for i := range head {
		head[i] = -1
	}
	for w := 0; w < n; w++ {
		if w&1023 == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
		}
		var rLo, oLo int32
		if w > 0 {
			rLo, oLo = wrCnt[w-1], wwCnt[w-1]
		}
		rHi, oHi := wrCnt[w], wwCnt[w]
		if rLo == rHi || oLo == oHi {
			continue
		}
		for j := oHi - 1; j >= oLo; j-- {
			next[j], head[wwKey[j]] = head[wwKey[j]], j
		}
		for i := rLo; i < rHi; i++ {
			for j := head[wrKey[i]]; j >= 0; j = next[j] {
				if wwTo[j] != wrTo[i] {
					emit(graph.Edge{From: int(wrTo[i]), To: int(wwTo[j]), Kind: graph.RW, Obj: string(ix.KeyName(wrKey[i]))})
				}
			}
		}
		for j := oLo; j < oHi; j++ {
			head[wwKey[j]] = -1
		}
	}
	return divs, nil
}
