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
// key columns and resolves writers with binary searches over the
// index's postings, so the hot loop performs no per-transaction
// allocation (a handful of flat scratch arenas are allocated once per
// call). Edge emission order — and therefore every downstream cycle
// search — is identical to the map-based builder: transactions
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

// resolvedReads is pass A of the derivation: every read's writer and
// RMW status, and the WR/WW out-degree prefix sums per writer. readW and
// isRMW align with the index's read column (transactions are iterated in
// order, so positions are contiguous); wrCnt/wwCnt hold counts at [w+1]
// for emitDeps' in-place prefix-sum-then-fill trick. The totals are
// known here, before any edge exists, which is what lets
// BuildDependencyCtx size the graph's edge arena once.
type resolvedReads struct {
	ix           *history.Index
	readW        []int32
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
	nr := ix.NumReads()
	readW := make([]int32, nr)
	isRMW := make([]bool, nr)
	wrCnt := make([]int32, n+1)
	wwCnt := make([]int32, n+1)
	pos := 0
	for s := 0; s < n; s++ {
		if s&1023 == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return resolvedReads{}, cerr
			}
		}
		rk, rv := ix.Reads(s)
		wk, _ := ix.Writes(s)
		j := 0
		for i, k := range rk {
			for j < len(wk) && wk[j] < k {
				j++
			}
			w := ix.Writer(k, rv[i])
			if w < 0 || w == s {
				readW[pos+i] = -1 // pre-check reports these; stay robust here
				continue
			}
			readW[pos+i] = int32(w)
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
	return resolvedReads{ix: ix, readW: readW, isRMW: isRMW, wrCnt: wrCnt, wwCnt: wwCnt}, nil
}

// emitDeps runs passes B and C over the resolved reads. It consumes the
// prefix sums, so it runs once.
//
//mtc:hotpath — the emitting two of the three merge-join passes the allocs/op benchmark gate measures
func (rr resolvedReads) emitDeps(ctx context.Context, emit func(graph.Edge)) ([]Divergence, error) {
	ix, readW, isRMW, wrCnt, wwCnt := rr.ix, rr.readW, rr.isRMW, rr.wrCnt, rr.wwCnt
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
		rk := ix.ReadKeys(s)
		for i, k := range rk {
			w := readW[pos+i]
			if w < 0 {
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
	// wrCnt[w-1] (the previous writer's end).
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
		for i := rLo; i < rHi; i++ {
			for j := oLo; j < oHi; j++ {
				if wwKey[j] != wrKey[i] || wwTo[j] == wrTo[i] {
					continue
				}
				emit(graph.Edge{From: int(wrTo[i]), To: int(wwTo[j]), Kind: graph.RW, Obj: string(ix.KeyName(wrKey[i]))})
			}
		}
	}
	return divs, nil
}
