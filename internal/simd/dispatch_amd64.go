//go:build amd64 && !noasm

package simd

var sse2Set = kernels{
	name:           "sse2",
	addMulF32:      addMulF32SSE2,
	addMulScaleF32: addMulScaleF32SSE2,
	mulConstF32:    mulConstF32SSE2,
	quantF32:       quantF32SSE2,
	dequantF32:     dequantF32SSE2,
	ictFwd:         ictFwdSSE2,
	ictInv:         ictInvSSE2,
	roundAddF32:    roundAddF32SSE2,
	addShr1I32:     addShr1I32SSE2,
	subShr1I32:     subShr1I32SSE2,
	addShr2I32:     addShr2I32SSE2,
	subShr2I32:     subShr2I32SSE2,
	addConstI32:    addConstI32SSE2,
	rctFwd:         rctFwdSSE2,
	rctInv:         rctInvSSE2,
	clampI32:       clampI32SSE2,
	fixAddMul:      fixAddMulSSE2,
	il2I32:         il2I32SSE2,
	il2F32:         il2F32SSE2,
	dl2I32:         dl2I32SSE2,
	dl2F32:         dl2F32SSE2,
	absOr:          absOrSSE2,
	orU32:          orU32SSE2,
	signOr:         signOrSSE2,
	planeMask:      planeMaskSSE2,
}

// detect installs SSE2, the amd64 baseline: every amd64 CPU has it, so
// there is nothing to probe. The scalar oracle stays selectable through
// Use for the differential tests and the kernel-set determinism matrices.
func detect() {
	available = []*kernels{&scalarSet, &sse2Set}
	active.Store(&sse2Set)
}
