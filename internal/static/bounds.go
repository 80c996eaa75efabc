package static

import (
	"repro/internal/isa"
	"repro/internal/verify"
)

// Cycle bounds for the separate-port, cacheless pipeline engine.
//
// Lower bound (per executed block): every instruction issues at least
// one cycle apart, and every bus-block boundary a straight-line block
// crosses is a guaranteed fetch-buffer miss costing exactly W cycles
// (with separate ports the instruction bus is always free when the
// fetch starts, so a miss delays issue by exactly WaitStates). The
// image minimum adds the entry fetch (the buffer starts empty) and the
// pipeline drain. Interprocedurally it is a shortest-path problem:
// Dijkstra inside each function with call edges charged the callee's
// min-to-return, iterated to its (unique) fixpoint across functions;
// blocks ending in unresolved jumps may leave the analyzed graph, so
// they contribute early-exit candidates — a sound undercount.
//
// Upper bound (per executed block): each instruction's worst cost is
// its issue cycle, plus W+1 per data-memory request (the port is busy
// at most W+1 cycles per request, and every interlock cycle past the
// producer's base window is port-busy — an amortization over the run),
// plus latency-1 for multi-cycle FPU producers (a consumer issues at
// least one cycle after its producer); each block entry re-fetches at
// most every bus block it spans. Block costs are multiplied by the
// loop-nest execution caps and summed; calls add the callee's total.
// Anything unbounded (loops without inferable trip counts, irreducible
// flow, unresolved jumps, recursion) is ⊤.

// instrWorst is the worst-case issue-to-issue cost of one instruction,
// excluding fetch (charged per block).
func instrWorst(op isa.Op, w int64) int64 {
	c := int64(1)
	if op.IsLoad() || op.IsStore() {
		return c + w + 1
	}
	if lat := isa.ResultLatency(op); lat > 1 {
		c += lat - 1
	}
	return c
}

// spannedBlocks counts the bus-width blocks a basic block's instruction
// addresses cover.
func spannedBlocks(b *verify.Block, bus uint32) int64 {
	first := b.PCs[0] &^ (bus - 1)
	last := b.PCs[len(b.PCs)-1] &^ (bus - 1)
	return int64((last-first)/bus) + 1
}

// blockMinCost is a lower bound on the cycles one execution of b adds:
// one issue per instruction plus the guaranteed in-block fetch misses.
func blockMinCost(b *verify.Block, bus uint32, w int64) int64 {
	return int64(len(b.Instrs)) + w*(spannedBlocks(b, bus)-1)
}

// blockWorstCost is an upper bound on the cycles one execution of b
// adds, excluding callee time.
func blockWorstCost(b *verify.Block, bus uint32, w int64) int64 {
	c := w * spannedBlocks(b, bus)
	for i := range b.Instrs {
		c += instrWorst(b.Instrs[i].Op, w)
	}
	return c
}

// minSolution is the per-cell fixpoint of the interprocedural
// shortest-path system: for every function, the fewest cycles from
// entry to a return and to a halt.
type minSolution struct {
	minRet  map[uint32]int64
	minHalt map[uint32]int64
}

// solveMin iterates per-function Dijkstra to the fixpoint. Every block
// costs at least one cycle, so the system has a unique fixpoint and
// Kleene iteration from +inf converges in at most len(funcs)+1 rounds
// (the minimum is achieved by call trees with no function repeated on a
// chain; a cheaper repeat would contradict minimality).
func (a *analysis) solveMin(bus uint32, w int64) *minSolution {
	s := &minSolution{minRet: map[uint32]int64{}, minHalt: map[uint32]int64{}}
	for _, fi := range a.funcs {
		s.minRet[fi.fc.Entry] = inf
		s.minHalt[fi.fc.Entry] = inf
	}
	for round := 0; round <= len(a.funcs)+1; round++ {
		changed := false
		for _, fi := range a.funcs {
			r, h := a.funcMin(fi, bus, w, s)
			if r < s.minRet[fi.fc.Entry] {
				s.minRet[fi.fc.Entry] = r
				changed = true
			}
			if h < s.minHalt[fi.fc.Entry] {
				s.minHalt[fi.fc.Entry] = h
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return s
}

// funcMin runs one Dijkstra pass over fi's blocks with the current
// callee estimates and returns (min to return, min to halt).
func (a *analysis) funcMin(fi *funcInfo, bus uint32, w int64, s *minSolution) (int64, int64) {
	n := len(fi.fc.Blocks)
	entry, ok := fi.fc.Index[fi.fc.Entry]
	if !ok || n == 0 {
		return inf, inf
	}
	dist := make([]int64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = inf
	}
	dist[entry] = 0

	minRet, minHalt := inf, inf
	for {
		// Extract-min; block count per function is small, so the simple
		// quadratic scan beats heap bookkeeping.
		b, best := -1, inf
		for i := 0; i < n; i++ {
			if !done[i] && dist[i] < best {
				b, best = i, dist[i]
			}
		}
		if b < 0 {
			break
		}
		done[b] = true
		blk := fi.fc.Blocks[b]
		total := best + blockMinCost(blk, bus, w)

		if blk.Halts && total < minHalt {
			minHalt = total
		}
		if blk.Returns && total < minRet {
			minRet = total
		}
		if blk.Unresolved {
			// The jump may leave the analyzed graph; assume it could
			// return or halt immediately (sound undercount).
			if total < minHalt {
				minHalt = total
			}
			if total < minRet {
				minRet = total
			}
		}

		out := total
		if blk.HasCall {
			if blk.CallUnresolved {
				// Unknown callee: the fall-through still costs at least
				// the block itself, and the callee might halt at once.
				if total < minHalt {
					minHalt = total
				}
			} else {
				cr := s.minRet[blk.CallTarget]
				if ch := s.minHalt[blk.CallTarget]; ch < inf && total+ch < minHalt {
					minHalt = total + ch
				}
				if cr >= inf {
					continue // the callee never provably returns
				}
				out = total + cr
			}
		}
		for _, succ := range blk.Succs {
			if j, ok := fi.fc.Index[succ]; ok && out < dist[j] {
				dist[j] = out
			}
		}
	}
	return minRet, minHalt
}

// maxCtx memoizes per-cell interprocedural worst-case totals.
type maxCtx struct {
	a       *analysis
	bus     uint32
	w       int64
	memo    map[uint32]int64
	onStack map[uint32]bool
}

func (a *analysis) newMaxCtx(bus uint32, w int64) *maxCtx {
	return &maxCtx{a: a, bus: bus, w: w, memo: map[uint32]int64{}, onStack: map[uint32]bool{}}
}

// maxTotal bounds the cycles one invocation of the function at entry
// consumes, callees included, regardless of how it terminates (extra
// blocks a halting run never reaches only increase the bound).
func (c *maxCtx) maxTotal(entry uint32) int64 {
	if v, ok := c.memo[entry]; ok {
		return v
	}
	fi := c.a.byEntry[entry]
	if fi == nil || fi.maxTop || c.onStack[entry] {
		// Unknown function, structural ⊤, or a recursion cycle.
		return top
	}
	c.onStack[entry] = true
	total := int64(0)
	for bi, blk := range fi.fc.Blocks {
		cost := blockWorstCost(blk, c.bus, c.w)
		if blk.HasCall {
			if blk.CallUnresolved {
				cost = top
			} else {
				cost = tAdd(cost, c.maxTotal(blk.CallTarget))
			}
		}
		total = tAdd(total, tMul(c.a.blockCap(fi, bi), cost))
	}
	delete(c.onStack, entry)
	c.memo[entry] = total
	return total
}
