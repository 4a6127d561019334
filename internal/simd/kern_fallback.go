//go:build !amd64 || noasm

package simd

const kernelName = "scalar"

// Without assembly every …Vec body handles 0 elements and the exported
// wrapper runs the scalar loop over the whole row.

func addMulF32Vec(dst, a, b, c []float32, k float32) int                  { return 0 }
func addMulScaleF32Vec(s, b, c []float32, k, scale float32) int           { return 0 }
func mulConstF32Vec(dst, src []float32, k float32) int                    { return 0 }
func quantF32Vec(dst []int32, src []float32, inv float32) int             { return 0 }
func dequantF32Vec(dst []float32, src []int32, delta float32) int         { return 0 }
func ictFwdVec(r, g, b []int32, y, cb, cr []float32, p *ICTParams) int    { return 0 }
func ictInvVec(y, cb, cr []float32, r, g, b []int32, p *ICTInvParams) int { return 0 }
func roundAddF32Vec(dst []int32, src []float32, off float32) int          { return 0 }
func addShr1I32Vec(dst, a, b, c []int32) int                              { return 0 }
func subShr1I32Vec(dst, a, b, c []int32) int                              { return 0 }
func addShr2I32Vec(dst, a, b, c []int32) int                              { return 0 }
func subShr2I32Vec(dst, a, b, c []int32) int                              { return 0 }
func addConstI32Vec(dst []int32, k int32) int                             { return 0 }
func rctFwdVec(r, g, b []int32, off int32) int                            { return 0 }
func rctInvVec(y, cb, cr []int32, off int32) int                          { return 0 }
func clampI32Vec(dst []int32, max int32) int                              { return 0 }
func il2I32Vec(dst, even, odd []int32) int                                { return 0 }
func il2F32Vec(dst, even, odd []float32) int                              { return 0 }
func dl2I32Vec(even, odd, src []int32) int                                { return 0 }
func dl2F32Vec(even, odd, src []float32) int                              { return 0 }
func fixAddMulVec(d, b, c []int32, k int32) int                           { return 0 }
func absOrVec(mag []uint32, coef []int32) (int, uint32)                   { return 0, 0 }
func orU32Vec(dst, src []uint32) int                                      { return 0 }
func signOrVec(flags []uint32, coef []int32, bit uint32) int              { return 0 }
func planeMaskVec(nz, bit []uint64, mag []uint32, p uint) int             { return 0 }
