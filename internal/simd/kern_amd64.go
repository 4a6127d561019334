//go:build amd64 && !noasm

package simd

const kernelName = "sse2"

// The …Vec bodies are SSE2 assembly (kern_amd64.s), the one vector set
// on amd64. Each processes a whole-vector prefix of the row, 4 elements
// per step, and returns how many elements it handled; the caller
// finishes the tail with the scalar loop. All loads and stores are
// unaligned forms, so slices may start at any offset.

//go:noescape
func addMulF32Vec(dst, a, b, c []float32, k float32) (n int)

//go:noescape
func addMulScaleF32Vec(s, b, c []float32, k, scale float32) (n int)

//go:noescape
func mulConstF32Vec(dst, src []float32, k float32) (n int)

//go:noescape
func quantF32Vec(dst []int32, src []float32, inv float32) (n int)

//go:noescape
func dequantF32Vec(dst []float32, src []int32, delta float32) (n int)

//go:noescape
func ictFwdVec(r, g, b []int32, y, cb, cr []float32, p *ICTParams) (n int)

//go:noescape
func ictInvVec(y, cb, cr []float32, r, g, b []int32, p *ICTInvParams) (n int)

//go:noescape
func roundAddF32Vec(dst []int32, src []float32, off float32) (n int)

//go:noescape
func addShr1I32Vec(dst, a, b, c []int32) (n int)

//go:noescape
func subShr1I32Vec(dst, a, b, c []int32) (n int)

//go:noescape
func addShr2I32Vec(dst, a, b, c []int32) (n int)

//go:noescape
func subShr2I32Vec(dst, a, b, c []int32) (n int)

//go:noescape
func addConstI32Vec(dst []int32, k int32) (n int)

//go:noescape
func rctFwdVec(r, g, b []int32, off int32) (n int)

//go:noescape
func rctInvVec(y, cb, cr []int32, off int32) (n int)

//go:noescape
func clampI32Vec(dst []int32, max int32) (n int)

//go:noescape
func il2I32Vec(dst, even, odd []int32) (n int)

//go:noescape
func il2F32Vec(dst, even, odd []float32) (n int)

//go:noescape
func dl2I32Vec(even, odd, src []int32) (n int)

//go:noescape
func dl2F32Vec(even, odd, src []float32) (n int)

//go:noescape
func fixAddMulVec(d, b, c []int32, k int32) (n int)

//go:noescape
func absOrVec(mag []uint32, coef []int32) (n int, or uint32)

//go:noescape
func orU32Vec(dst, src []uint32) (n int)

//go:noescape
func signOrVec(flags []uint32, coef []int32, bit uint32) (n int)

//go:noescape
func planeMaskVec(nz, bit []uint64, mag []uint32, p uint) (n int)
