#include "textflag.h"

// func axpyVec(dst, x []float32, a float32)
//
// dst[i] += a*x[i] for i < len(dst); the caller (axpy) has established
// len(x) >= len(dst). MULPS then ADDPS, never FMA: see axpy. Sixteen, then
// four, then one element at a time, so no load or store reaches past
// len(dst) elements of either slice; MOVUPS because rows of a row-major
// matrix are only 4-byte aligned.
TEXT ·axpyVec(SB), NOSPLIT, $0-52
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   x_base+24(FP), SI
	MOVSS  a+48(FP), X0
	SHUFPS $0, X0, X0 // a in all four lanes

loop16:
	CMPQ   CX, $16
	JLT    loop4
	MOVUPS (SI), X1
	MOVUPS 16(SI), X2
	MOVUPS 32(SI), X3
	MOVUPS 48(SI), X4
	MULPS  X0, X1
	MULPS  X0, X2
	MULPS  X0, X3
	MULPS  X0, X4
	MOVUPS (DI), X5
	MOVUPS 16(DI), X6
	MOVUPS 32(DI), X7
	MOVUPS 48(DI), X8
	ADDPS  X1, X5
	ADDPS  X2, X6
	ADDPS  X3, X7
	ADDPS  X4, X8
	MOVUPS X5, (DI)
	MOVUPS X6, 16(DI)
	MOVUPS X7, 32(DI)
	MOVUPS X8, 48(DI)
	ADDQ   $64, SI
	ADDQ   $64, DI
	SUBQ   $16, CX
	JMP    loop16

loop4:
	CMPQ   CX, $4
	JLT    loop1
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS (DI), X5
	ADDPS  X1, X5
	MOVUPS X5, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	SUBQ   $4, CX
	JMP    loop4

loop1:
	TESTQ CX, CX
	JEQ   done
	MOVSS (SI), X1
	MULSS X0, X1
	MOVSS (DI), X5
	ADDSS X1, X5
	MOVSS X5, (DI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JMP   loop1

done:
	RET
