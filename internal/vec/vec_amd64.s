#include "textflag.h"

// Every instruction here is VEX-encoded, the scalar tails included, and
// every kernel clears the upper YMM halves before it returns: mixing
// legacy-SSE instructions with dirty upper halves costs a state transition
// on every switch, which once made a replay twice as slow.
//
// Operand order follows the scalar twins as compiled: in Go's operand
// order "VMULPS Y0, Y1, Y1" computes Y1·Y0 with Y1 the first source, and
// where both sources are NaN the first one's payload is the result.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyAVX2(dst []float32, a float32, x []float32)
// dst[i] = x[i]·a + dst[i]
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+32(FP), SI
	VBROADCASTSS a+24(FP), Y0
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX

axpy_loop8:
	CMPQ AX, BX
	JAE  axpy_tail
	VMOVUPS (SI)(AX*4), Y1
	VMULPS  Y0, Y1, Y1
	VADDPS  (DI)(AX*4), Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     axpy_loop8

axpy_tail:
	CMPQ AX, CX
	JAE  axpy_done
	VMOVSS (SI)(AX*4), X1
	VMULSS X0, X1, X1
	VADDSS (DI)(AX*4), X1, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ   AX
	JMP    axpy_tail

axpy_done:
	VZEROUPPER
	RET

// func dot8AVX2(acc, w, x, scratch []float32)
// First the eight weight rows are laid out tap by tap in scratch, eight
// taps at a time by an 8×8 transpose in registers. Then per position p and
// tap t: acc[8p:8p+8] = acc[8p:8p+8] + scratch[8t:8t+8]·x[p·nt+t], four
// positions at once, one accumulator register each.
TEXT ·dot8AVX2(SB), NOSPLIT, $0-96
	MOVQ w_base+24(FP), R10     // row 0
	MOVQ w_len+32(FP), DX
	SHRQ $3, DX                 // taps
	MOVQ DX, BX
	SHLQ $2, BX                 // bytes between rows
	LEAQ (R10)(BX*2), R11
	ADDQ BX, R11                // row 3
	LEAQ (R11)(BX*2), R12
	ADDQ BX, R12                // row 6
	MOVQ scratch_base+72(FP), DI
	MOVQ DX, CX
	SHRQ $3, CX                 // whole chunks of eight taps

dot8_pack8:
	TESTQ CX, CX
	JZ    dot8_pack_tail
	VMOVUPS    (R10), Y0
	VMOVUPS    (R10)(BX*2), Y2
	VMOVUPS    (R10)(BX*4), Y4
	VMOVUPS    (R12), Y6
	VUNPCKLPS  (R10)(BX*1), Y0, Y8
	VUNPCKHPS  (R10)(BX*1), Y0, Y9
	VUNPCKLPS  (R11), Y2, Y10
	VUNPCKHPS  (R11), Y2, Y11
	VUNPCKLPS  (R11)(BX*2), Y4, Y12
	VUNPCKHPS  (R11)(BX*2), Y4, Y13
	VUNPCKLPS  (R11)(BX*4), Y6, Y14
	VUNPCKHPS  (R11)(BX*4), Y6, Y15
	VSHUFPS    $0x44, Y10, Y8, Y0
	VSHUFPS    $0xee, Y10, Y8, Y1
	VSHUFPS    $0x44, Y11, Y9, Y2
	VSHUFPS    $0xee, Y11, Y9, Y3
	VSHUFPS    $0x44, Y14, Y12, Y4
	VSHUFPS    $0xee, Y14, Y12, Y5
	VSHUFPS    $0x44, Y15, Y13, Y6
	VSHUFPS    $0xee, Y15, Y13, Y7
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15
	VMOVUPS    Y8, 0(DI)
	VMOVUPS    Y9, 32(DI)
	VMOVUPS    Y10, 64(DI)
	VMOVUPS    Y11, 96(DI)
	VMOVUPS    Y12, 128(DI)
	VMOVUPS    Y13, 160(DI)
	VMOVUPS    Y14, 192(DI)
	VMOVUPS    Y15, 224(DI)
	ADDQ       $32, R10
	ADDQ       $32, R11
	ADDQ       $32, R12
	ADDQ       $256, DI
	DECQ       CX
	JMP        dot8_pack8

dot8_pack_tail:
	MOVQ DX, CX
	ANDQ $7, CX                 // taps left over

dot8_pack_tap:
	TESTQ CX, CX
	JZ    dot8_packed
	MOVL  (R10), AX
	MOVL  AX, 0(DI)
	MOVL  (R10)(BX*1), AX
	MOVL  AX, 4(DI)
	MOVL  (R10)(BX*2), AX
	MOVL  AX, 8(DI)
	MOVL  (R11), AX
	MOVL  AX, 12(DI)
	MOVL  (R10)(BX*4), AX
	MOVL  AX, 16(DI)
	MOVL  (R11)(BX*2), AX
	MOVL  AX, 20(DI)
	MOVL  (R12), AX
	MOVL  AX, 24(DI)
	MOVL  (R11)(BX*4), AX
	MOVL  AX, 28(DI)
	ADDQ  $4, R10
	ADDQ  $4, R11
	ADDQ  $4, R12
	ADDQ  $32, DI
	DECQ  CX
	JMP   dot8_pack_tap

dot8_packed:
	MOVQ acc_base+0(FP), DI
	MOVQ acc_len+8(FP), CX
	SHRQ $3, CX                 // positions
	MOVQ scratch_base+72(FP), SI
	MOVQ x_base+48(FP), R8
	MOVQ BX, R9                 // bytes between positions' inputs

dot8_quad:
	CMPQ CX, $4
	JB   dot8_single
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	LEAQ (R8)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12
	MOVQ SI, R13
	XORQ BX, BX

dot8_quad_tap:
	CMPQ BX, DX
	JAE  dot8_quad_done
	VMOVUPS      (R13), Y8
	VBROADCASTSS (R8)(BX*4), Y4
	VBROADCASTSS (R10)(BX*4), Y5
	VBROADCASTSS (R11)(BX*4), Y6
	VBROADCASTSS (R12)(BX*4), Y7
	VMULPS       Y4, Y8, Y4
	VMULPS       Y5, Y8, Y5
	VMULPS       Y6, Y8, Y6
	VMULPS       Y7, Y8, Y7
	VADDPS       Y4, Y0, Y0
	VADDPS       Y5, Y1, Y1
	VADDPS       Y6, Y2, Y2
	VADDPS       Y7, Y3, Y3
	ADDQ         $32, R13
	INCQ         BX
	JMP          dot8_quad_tap

dot8_quad_done:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	LEAQ    (R12)(R9*1), R8
	SUBQ    $4, CX
	JMP     dot8_quad

dot8_single:
	TESTQ CX, CX
	JZ    dot8_done
	VMOVUPS (DI), Y0
	MOVQ    SI, R13
	XORQ    BX, BX

dot8_single_tap:
	CMPQ BX, DX
	JAE  dot8_single_done
	VMOVUPS      (R13), Y8
	VBROADCASTSS (R8)(BX*4), Y4
	VMULPS       Y4, Y8, Y4
	VADDPS       Y4, Y0, Y0
	ADDQ         $32, R13
	INCQ         BX
	JMP          dot8_single_tap

dot8_single_done:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    R9, R8
	DECQ    CX
	JMP     dot8_single

dot8_done:
	VZEROUPPER
	RET

// func mulAddAVX2(dst, w, x []float32)
// dst[i] = w[i]·x[i] + dst[i]
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ w_base+24(FP), SI
	MOVQ x_base+48(FP), R8
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX

muladd_loop8:
	CMPQ AX, BX
	JAE  muladd_tail
	VMOVUPS (SI)(AX*4), Y1
	VMULPS  (R8)(AX*4), Y1, Y1
	VADDPS  (DI)(AX*4), Y1, Y1
	VMOVUPS Y1, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     muladd_loop8

muladd_tail:
	CMPQ AX, CX
	JAE  muladd_done
	VMOVSS (SI)(AX*4), X1
	VMULSS (R8)(AX*4), X1, X1
	VADDSS (DI)(AX*4), X1, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ   AX
	JMP    muladd_tail

muladd_done:
	VZEROUPPER
	RET

// func mulAddNonzeroAVX2(dst, g, x []float32)
// dst[i] = g[i]·x[i] + dst[i] where g[i] != 0 (NaN included); other
// elements keep their value, blended back rather than added to.
TEXT ·mulAddNonzeroAVX2(SB), NOSPLIT, $0-72
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   g_base+24(FP), SI
	MOVQ   x_base+48(FP), R8
	VXORPS Y15, Y15, Y15
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $-8, BX

mulnz_loop8:
	CMPQ AX, BX
	JAE  mulnz_tail
	VMOVUPS   (SI)(AX*4), Y1
	VCMPPS    $4, Y15, Y1, Y2 // g != 0, unordered counts as not equal
	VMULPS    (R8)(AX*4), Y1, Y1
	VMOVUPS   (DI)(AX*4), Y3
	VADDPS    Y3, Y1, Y1
	VBLENDVPS Y2, Y1, Y3, Y3
	VMOVUPS   Y3, (DI)(AX*4)
	ADDQ      $8, AX
	JMP       mulnz_loop8

mulnz_tail:
	CMPQ AX, CX
	JAE  mulnz_done
	VMOVSS   (SI)(AX*4), X1
	VUCOMISS X15, X1
	JNE      mulnz_add
	JPS      mulnz_add
	INCQ     AX
	JMP      mulnz_tail

mulnz_add:
	VMULSS (R8)(AX*4), X1, X1
	VADDSS (DI)(AX*4), X1, X1
	VMOVSS X1, (DI)(AX*4)
	INCQ   AX
	JMP    mulnz_tail

mulnz_done:
	VZEROUPPER
	RET

// func momentumAVX2(w, v, g []float32, mom, lr float32)
// v[i] = v[i]·mom + g[i]; w[i] = w[i] − v[i]·lr
TEXT ·momentumAVX2(SB), NOSPLIT, $0-80
	MOVQ w_base+0(FP), DI
	MOVQ w_len+8(FP), CX
	MOVQ v_base+24(FP), SI
	MOVQ g_base+48(FP), R8
	VBROADCASTSS mom+72(FP), Y0
	VBROADCASTSS lr+76(FP), Y1
	XORQ AX, AX
	MOVQ CX, BX
	ANDQ $-8, BX

mom_loop8:
	CMPQ AX, BX
	JAE  mom_tail
	VMOVUPS (SI)(AX*4), Y2
	VMULPS  Y0, Y2, Y2
	VADDPS  (R8)(AX*4), Y2, Y2
	VMOVUPS Y2, (SI)(AX*4)
	VMULPS  Y1, Y2, Y2
	VMOVUPS (DI)(AX*4), Y3
	VSUBPS  Y2, Y3, Y3
	VMOVUPS Y3, (DI)(AX*4)
	ADDQ    $8, AX
	JMP     mom_loop8

mom_tail:
	CMPQ AX, CX
	JAE  mom_done
	VMOVSS (SI)(AX*4), X2
	VMULSS X0, X2, X2
	VADDSS (R8)(AX*4), X2, X2
	VMOVSS X2, (SI)(AX*4)
	VMULSS X1, X2, X2
	VMOVSS (DI)(AX*4), X3
	VSUBSS X2, X3, X3
	VMOVSS X3, (DI)(AX*4)
	INCQ   AX
	JMP    mom_tail

mom_done:
	VZEROUPPER
	RET
