//go:build amd64 && !noasm

package simd

import "os"

// cpuid and xgetbv0 are implemented in cpuid_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// hasAVX2 reports AVX2 usability: the CPU must advertise AVX and AVX2,
// and the OS must have enabled XMM+YMM state saving (OSXSAVE + XCR0
// bits 1 and 2) — the same gate golang.org/x/sys/cpu applies.
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&6 != 6 { // XMM and YMM state enabled
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

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
	fixScale:       fixScaleSSE2,
	il2I32:         il2I32SSE2,
	il2F32:         il2F32SSE2,
	dl2I32:         dl2I32SSE2,
	dl2F32:         dl2F32SSE2,
	absOr:          absOrSSE2,
	orU32:          orU32SSE2,
	signOr:         signOrSSE2,
	planeMask:      planeMaskSSE2,
}

var avx2Set = kernels{
	name:           "avx2",
	addMulF32:      addMulF32AVX2,
	addMulScaleF32: addMulScaleF32AVX2,
	mulConstF32:    mulConstF32AVX2,
	quantF32:       quantF32AVX2,
	dequantF32:     dequantF32AVX2,
	ictFwd:         ictFwdAVX2,
	ictInv:         ictInvAVX2,
	roundAddF32:    roundAddF32AVX2,
	addShr1I32:     addShr1I32AVX2,
	subShr1I32:     subShr1I32AVX2,
	addShr2I32:     addShr2I32AVX2,
	subShr2I32:     subShr2I32AVX2,
	addConstI32:    addConstI32AVX2,
	rctFwd:         rctFwdAVX2,
	rctInv:         rctInvAVX2,
	clampI32:       clampI32AVX2,
	fixAddMul:      fixAddMulAVX2,
	fixScale:       fixScaleAVX2,
	il2I32:         il2I32AVX2,
	il2F32:         il2F32AVX2,
	dl2I32:         dl2I32AVX2,
	dl2F32:         dl2F32AVX2,
	absOr:          absOrAVX2,
	orU32:          orU32AVX2,
	signOr:         signOrAVX2,
	planeMask:      planeMaskAVX2,
}

// detect probes the CPU once, builds the available-set list (narrowest
// first) and installs the widest set — unless J2K_NOSIMD kills the
// vector paths, in which case the sets stay selectable via Use but the
// scalar oracle runs.
func detect() {
	available = []*kernels{&scalarSet, &sse2Set} // SSE2 is amd64 baseline
	best := &sse2Set
	if hasAVX2() {
		available = append(available, &avx2Set)
		best = &avx2Set
	}
	if v := os.Getenv("J2K_NOSIMD"); v != "" && v != "0" {
		best = &scalarSet
	}
	active.Store(best)
}
