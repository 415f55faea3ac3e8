package core

import "hitsndiffs/internal/mat"

// SolveScratch owns every buffer an HnD-power solve needs: the four
// iteration vectors, an apply workspace, the user indices orientation
// selects its two deciles in, and orientation's option counts. Binding one
// via Options.Scratch makes a warm re-rank allocation-free in steady state;
// the engines keep a pool of these.
//
// A SolveScratch must not be shared by concurrent solves. When Options.
// Scratch is set, Result.Scores may alias scratch memory: the caller must
// copy the scores out before reusing or pooling the scratch. Binding changes
// no floating-point operation — scratch-backed solves are bitwise identical
// to allocating ones.
type SolveScratch struct {
	sdiff, s, us, next mat.Vector
	ws                 Workspace
	order              []int // user indices, the two deciles selected in place
	counts             []int // orientation's option counts: a spare slot, then one per column (Σkᵢ+1)
}

// bind sizes the iteration buffers for u and points the workspace at it;
// orientation sizes its own two buffers when it runs. Buffers keep their
// capacity across matrices of shrinking size; every entry is fully
// overwritten before its first read, so stale contents are harmless.
func (sc *SolveScratch) bind(u *Update) {
	users := u.Users()
	sc.sdiff = resizeVec(sc.sdiff, users-1)
	sc.s = resizeVec(sc.s, users)
	sc.us = resizeVec(sc.us, users)
	sc.next = resizeVec(sc.next, users-1)
	sc.ws.u = u
	sc.ws.opt = resizeVec(sc.ws.opt, len(u.ColScale))
}

func resizeVec(v mat.Vector, n int) mat.Vector {
	if cap(v) < n {
		return mat.NewVector(n)
	}
	return v[:n]
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}
