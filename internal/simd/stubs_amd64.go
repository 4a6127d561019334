//go:build amd64 && !noasm

package simd

// SSE2 assembly kernels (kern_amd64.s), the one vector set on amd64.
// Each processes a whole-vector prefix of the row, 4 elements per step,
// and returns how many elements it handled; the caller finishes the
// tail with the scalar loop. All loads and stores are unaligned forms,
// so slices may start at any offset.

//go:noescape
func addMulF32SSE2(dst, a, b, c []float32, k float32) (n int)

//go:noescape
func addMulScaleF32SSE2(s, b, c []float32, k, scale float32) (n int)

//go:noescape
func mulConstF32SSE2(dst, src []float32, k float32) (n int)

//go:noescape
func quantF32SSE2(dst []int32, src []float32, inv float32) (n int)

//go:noescape
func dequantF32SSE2(dst []float32, src []int32, delta float32) (n int)

//go:noescape
func ictFwdSSE2(r, g, b []int32, y, cb, cr []float32, p *ICTParams) (n int)

//go:noescape
func ictInvSSE2(y, cb, cr []float32, r, g, b []int32, p *ICTInvParams) (n int)

//go:noescape
func roundAddF32SSE2(dst []int32, src []float32, off float32) (n int)

//go:noescape
func addShr1I32SSE2(dst, a, b, c []int32) (n int)

//go:noescape
func subShr1I32SSE2(dst, a, b, c []int32) (n int)

//go:noescape
func addShr2I32SSE2(dst, a, b, c []int32) (n int)

//go:noescape
func subShr2I32SSE2(dst, a, b, c []int32) (n int)

//go:noescape
func addConstI32SSE2(dst []int32, k int32) (n int)

//go:noescape
func rctFwdSSE2(r, g, b []int32, off int32) (n int)

//go:noescape
func rctInvSSE2(y, cb, cr []int32, off int32) (n int)

//go:noescape
func clampI32SSE2(dst []int32, max int32) (n int)

//go:noescape
func il2I32SSE2(dst, even, odd []int32) (n int)

//go:noescape
func il2F32SSE2(dst, even, odd []float32) (n int)

//go:noescape
func dl2I32SSE2(even, odd, src []int32) (n int)

//go:noescape
func dl2F32SSE2(even, odd, src []float32) (n int)

//go:noescape
func fixAddMulSSE2(d, b, c []int32, k int32) (n int)

//go:noescape
func absOrSSE2(mag []uint32, coef []int32) (n int, or uint32)

//go:noescape
func orU32SSE2(dst, src []uint32) (n int)

//go:noescape
func signOrSSE2(flags []uint32, coef []int32, bit uint32) (n int)

//go:noescape
func planeMaskSSE2(nz, bit []uint64, mag []uint32, p uint) (n int)
