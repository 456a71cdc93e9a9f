#include "textflag.h"

// tailMask: loading eight lanes from tailMask+32-4·r gives r all-ones lanes,
// then 8-r zero lanes — the VMASKMOVPS mask of a tile r < 8 columns wide.
DATA tailMask<>+0(SB)/4, $0xffffffff
DATA tailMask<>+4(SB)/4, $0xffffffff
DATA tailMask<>+8(SB)/4, $0xffffffff
DATA tailMask<>+12(SB)/4, $0xffffffff
DATA tailMask<>+16(SB)/4, $0xffffffff
DATA tailMask<>+20(SB)/4, $0xffffffff
DATA tailMask<>+24(SB)/4, $0xffffffff
DATA tailMask<>+28(SB)/4, $0xffffffff
DATA tailMask<>+32(SB)/4, $0
DATA tailMask<>+36(SB)/4, $0
DATA tailMask<>+40(SB)/4, $0
DATA tailMask<>+44(SB)/4, $0
DATA tailMask<>+48(SB)/4, $0
DATA tailMask<>+52(SB)/4, $0
DATA tailMask<>+56(SB)/4, $0
DATA tailMask<>+60(SB)/4, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $64

// STEP multiplies the b row at SI, column offset off, by the broadcast
// multiplier in Y8 and adds the product into the accumulator acc. The b
// vector is loaded first so that it is VMULPS's first source, as x is
// MULPS's destination in axpyVec: with two NaN operands both pick the same
// payload. VMULPS then VADDPS, never FMA.
#define STEP(off, acc) \
	VMOVUPS off(SI), Y9; \
	VMULPS  Y8, Y9, Y9; \
	VADDPS  Y9, acc, acc

// KSTEP loads the next entry k of ks (DX indexes it): Y8 gets a[k·astride]
// in every lane and SI the address of b's row k at the tile's columns.
#define KSTEP \
	MOVLQSX (R12)(DX*4), AX; \
	MOVQ    AX, SI; \
	IMULQ   R9, AX; \
	IMULQ   R11, SI; \
	ADDQ    R10, SI; \
	VBROADCASTSS (R8)(AX*1), Y8

// func rowAVX2(out, a []float32, astride int, b []float32, bstride int, ks []int32, acc bool)
//
// out[j] (= +0, or out[j] with acc) += a[k·astride]·b[k·bstride+j] for each
// k of ks in order, for j < len(out). The caller (rowKernel) has checked every
// index. Columns go in tiles of 64, 32, 16 and 8 held in Y0–Y7 across the
// whole k loop, then one masked tile of the last len(out)%8; each tile is
// loaded (or zeroed) once and stored once. VEX encodings only, VZEROUPPER
// before returning.
TEXT ·rowAVX2(SB), NOSPLIT, $0-113
	MOVQ    out_base+0(FP), DI
	MOVQ    out_len+8(FP), CX
	MOVQ    a_base+24(FP), R8
	MOVQ    astride+48(FP), R9
	SHLQ    $2, R9
	MOVQ    b_base+56(FP), R10
	MOVQ    bstride+80(FP), R11
	SHLQ    $2, R11
	MOVQ    ks_base+88(FP), R12
	MOVQ    ks_len+96(FP), R13
	MOVBLZX acc+112(FP), BX

tile64:
	CMPQ  CX, $64
	JLT   tile32
	TESTQ BX, BX
	JNE   load64
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	JMP   run64

load64:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7

run64:
	XORQ DX, DX
	TESTQ R13, R13
	JEQ  k64_end

k64:
	KSTEP
	STEP(0, Y0)
	STEP(32, Y1)
	STEP(64, Y2)
	STEP(96, Y3)
	STEP(128, Y4)
	STEP(160, Y5)
	STEP(192, Y6)
	STEP(224, Y7)
	INCQ DX
	CMPQ DX, R13
	JLT  k64

k64_end:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, R10
	SUBQ $64, CX
	JMP  tile64

tile32:
	CMPQ  CX, $32
	JLT   tile16
	TESTQ BX, BX
	JNE   load32
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	JMP   run32

load32:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3

run32:
	XORQ DX, DX
	TESTQ R13, R13
	JEQ  k32_end

k32:
	KSTEP
	STEP(0, Y0)
	STEP(32, Y1)
	STEP(64, Y2)
	STEP(96, Y3)
	INCQ DX
	CMPQ DX, R13
	JLT  k32

k32_end:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, R10
	SUBQ $32, CX

tile16:
	CMPQ  CX, $16
	JLT   tile8
	TESTQ BX, BX
	JNE   load16
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	JMP   run16

load16:
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1

run16:
	XORQ DX, DX
	TESTQ R13, R13
	JEQ  k16_end

k16:
	KSTEP
	STEP(0, Y0)
	STEP(32, Y1)
	INCQ DX
	CMPQ DX, R13
	JLT  k16

k16_end:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, DI
	ADDQ $64, R10
	SUBQ $16, CX

tile8:
	CMPQ  CX, $8
	JLT   tail
	TESTQ BX, BX
	JNE   load8
	VXORPS Y0, Y0, Y0
	JMP   run8

load8:
	VMOVUPS (DI), Y0

run8:
	XORQ DX, DX
	TESTQ R13, R13
	JEQ  k8_end

k8:
	KSTEP
	STEP(0, Y0)
	INCQ DX
	CMPQ DX, R13
	JLT  k8

k8_end:
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, R10
	SUBQ $8, CX

tail:
	TESTQ CX, CX
	JEQ   done
	LEAQ  tailMask<>+32(SB), AX
	SHLQ  $2, CX
	SUBQ  CX, AX
	VMOVUPS (AX), Y15
	TESTQ BX, BX
	JNE   loadTail
	VXORPS Y0, Y0, Y0
	JMP   runTail

loadTail:
	VMASKMOVPS (DI), Y15, Y0

runTail:
	XORQ DX, DX
	TESTQ R13, R13
	JEQ  kTail_end

kTail:
	KSTEP
	VMASKMOVPS (SI), Y15, Y9
	VMULPS     Y8, Y9, Y9
	VADDPS     Y9, Y0, Y0
	INCQ DX
	CMPQ DX, R13
	JLT  kTail

kTail_end:
	VMASKMOVPS Y0, Y15, (DI)

done:
	VZEROUPPER
	RET

// func nonZeroAVX2(ks *[128]int32, a []float32, astride, kn int) int
//
// Eight multipliers at a time: gather a[k·astride] for eight k (one
// VMOVUPS when astride is 1), compare their bits, sign dropped, with zero,
// and turn the 8-bit mask of non-zeros into the compacted lane order with
// packLUT; VPERMD applies it to the eight k, the whole vector is stored at
// ks[n] and n advances by the mask's popcount. A store reaches ks[n+7]: n
// stays at most k, and kn is at most len(ks), a multiple of 8, so it fits.
// The last kn%8 lanes are gathered under tailMask, the others read as zero.
TEXT ·nonZeroAVX2(SB), NOSPLIT, $0-56
	MOVQ ks+0(FP), DI
	MOVQ a_base+8(FP), SI
	MOVQ astride+32(FP), R8
	MOVQ kn+40(FP), CX
	LEAQ ·packLUT(SB), R9
	XORQ DX, DX

	VPMOVZXBD 2040(R9), Y7 // packLUT[255]: the k of each lane, 0..7
	MOVL         $8, AX
	VMOVD        AX, X6
	VPBROADCASTD X6, Y6 // 8 in every lane
	VMOVQ        R8, X5
	VPBROADCASTD X5, Y5
	VPMULLD      Y7, Y5, Y5 // gather indices: lane·astride
	VPXOR        Y4, Y4, Y4
	MOVQ         R8, R10
	SHLQ         $5, R10 // bytes of a per eight k

	MOVQ CX, R11
	ANDQ $-8, R11 // k covered by whole blocks
	XORQ BX, BX   // k

block:
	CMPQ BX, R11
	JGE  tail
	CMPQ R8, $1
	JNE  gather
	VMOVUPS (SI), Y0
	JMP  pack

gather:
	VPCMPEQD   Y3, Y3, Y3
	VGATHERDPS Y3, (SI)(Y5*4), Y0

pack:
	VPSLLD    $1, Y0, Y0
	VPCMPEQD  Y4, Y0, Y0
	VMOVMSKPS Y0, AX
	XORL      $0xff, AX
	VPMOVZXBD (R9)(AX*8), Y1
	VPERMD    Y7, Y1, Y1
	VMOVDQU   Y1, (DI)(DX*4)
	POPCNTL   AX, AX
	ADDQ      AX, DX
	VPADDD    Y6, Y7, Y7
	ADDQ      R10, SI
	ADDQ      $8, BX
	JMP       block

tail:
	SUBQ  BX, CX
	JEQ   done
	LEAQ  tailMask<>+32(SB), AX
	SHLQ  $2, CX
	SUBQ  CX, AX
	VMOVUPS    (AX), Y3
	VPXOR      Y0, Y0, Y0
	VGATHERDPS Y3, (SI)(Y5*4), Y0
	VPSLLD    $1, Y0, Y0
	VPCMPEQD  Y4, Y0, Y0
	VMOVMSKPS Y0, AX
	XORL      $0xff, AX
	VPMOVZXBD (R9)(AX*8), Y1
	VPERMD    Y7, Y1, Y1
	VMOVDQU   Y1, (DI)(DX*4)
	POPCNTL   AX, AX
	ADDQ      AX, DX

done:
	VZEROUPPER
	MOVQ DX, ret+48(FP)
	RET
