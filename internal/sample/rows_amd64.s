#include "textflag.h"

// Offsets into lanes (rows.go): the four generator words, the row bases,
// the bounds, the reply slots, the layer seeds, the node ids, the picks
// table and the replacement table. Each is eight 8-byte or 4-byte lanes,
// lane i at +8i or +4i.
#define S0 0
#define S1 64
#define S2 128
#define S3 192
#define ADJ 256
#define BOUND 320
#define OUT 384
#define SEED 448
#define NODE 512
#define PICKS 576
#define REPL 1600 // PICKS + maxRowK·32

DATA rowZero<>+0(SB)/8, $0
DATA rowZero<>+8(SB)/8, $0
DATA rowZero<>+16(SB)/8, $0
DATA rowZero<>+24(SB)/8, $0
GLOBL rowZero<>(SB), RODATA|NOPTR, $32

// The splitmix64 constants of rng.MixStep and rng.Seed: the golden-ratio
// increment, and the low and high halves of the two multipliers.
DATA rowGolden<>+0(SB)/8, $0x9e3779b97f4a7c15
DATA rowGolden<>+8(SB)/8, $0x9e3779b97f4a7c15
DATA rowGolden<>+16(SB)/8, $0x9e3779b97f4a7c15
DATA rowGolden<>+24(SB)/8, $0x9e3779b97f4a7c15
GLOBL rowGolden<>(SB), RODATA|NOPTR, $32

DATA rowM1<>+0(SB)/8, $0x1ce4e5b9
DATA rowM1<>+8(SB)/8, $0x1ce4e5b9
DATA rowM1<>+16(SB)/8, $0x1ce4e5b9
DATA rowM1<>+24(SB)/8, $0x1ce4e5b9
DATA rowM1<>+32(SB)/8, $0xbf58476d
DATA rowM1<>+40(SB)/8, $0xbf58476d
DATA rowM1<>+48(SB)/8, $0xbf58476d
DATA rowM1<>+56(SB)/8, $0xbf58476d
GLOBL rowM1<>(SB), RODATA|NOPTR, $64

DATA rowM2<>+0(SB)/8, $0x133111eb
DATA rowM2<>+8(SB)/8, $0x133111eb
DATA rowM2<>+16(SB)/8, $0x133111eb
DATA rowM2<>+24(SB)/8, $0x133111eb
DATA rowM2<>+32(SB)/8, $0x94d049bb
DATA rowM2<>+40(SB)/8, $0x94d049bb
DATA rowM2<>+48(SB)/8, $0x94d049bb
DATA rowM2<>+56(SB)/8, $0x94d049bb
GLOBL rowM2<>(SB), RODATA|NOPTR, $64

// rowMask: eight lanes loaded from rowMask+32-4·r are r all-ones lanes,
// then 8-r zero lanes — the VPMASKMOVD mask of a block of r < 8 steps.
DATA rowMask<>+0(SB)/8, $-1
DATA rowMask<>+8(SB)/8, $-1
DATA rowMask<>+16(SB)/8, $-1
DATA rowMask<>+24(SB)/8, $-1
DATA rowMask<>+32(SB)/8, $0
DATA rowMask<>+40(SB)/8, $0
DATA rowMask<>+48(SB)/8, $0
DATA rowMask<>+56(SB)/8, $0
GLOBL rowMask<>(SB), RODATA|NOPTR, $64

// TRANSPOSE8 transposes the 8×8 matrix of 32-bit values whose row i is in
// Yi (Y0–Y7) into Y8–Y15: Y(8+i) gets column i. Y0–Y7 are overwritten.
#define TRANSPOSE8 \
	VPUNPCKLDQ  Y1, Y0, Y8; \
	VPUNPCKHDQ  Y1, Y0, Y9; \
	VPUNPCKLDQ  Y3, Y2, Y10; \
	VPUNPCKHDQ  Y3, Y2, Y11; \
	VPUNPCKLDQ  Y5, Y4, Y12; \
	VPUNPCKHDQ  Y5, Y4, Y13; \
	VPUNPCKLDQ  Y7, Y6, Y14; \
	VPUNPCKHDQ  Y7, Y6, Y15; \
	VPUNPCKLQDQ Y10, Y8, Y0; \
	VPUNPCKHQDQ Y10, Y8, Y1; \
	VPUNPCKLQDQ Y11, Y9, Y2; \
	VPUNPCKHQDQ Y11, Y9, Y3; \
	VPUNPCKLQDQ Y14, Y12, Y4; \
	VPUNPCKHQDQ Y14, Y12, Y5; \
	VPUNPCKLQDQ Y15, Y13, Y6; \
	VPUNPCKHQDQ Y15, Y13, Y7; \
	VPERM2I128  $0x20, Y4, Y0, Y8; \
	VPERM2I128  $0x20, Y5, Y1, Y9; \
	VPERM2I128  $0x20, Y6, Y2, Y10; \
	VPERM2I128  $0x20, Y7, Y3, Y11; \
	VPERM2I128  $0x31, Y4, Y0, Y12; \
	VPERM2I128  $0x31, Y5, Y1, Y13; \
	VPERM2I128  $0x31, Y6, Y2, Y14; \
	VPERM2I128  $0x31, Y7, Y3, Y15

// LOADREPL loads lane i's replacement values adj[d−k+j] for the block's
// steps j = DX, DX+1, … into Yi under the mask in Y8. The lane's
// adj[d−k] is adj + 4·(bound − 1).
#define LOADREPL(i, yi) \
	MOVQ       ADJ+8*i(AX), R8; \
	MOVQ       BOUND+8*i(AX), R9; \
	LEAQ       -4(R8)(R9*4), R8; \
	VPMASKMOVD (R8)(DX*4), Y8, yi

// STOREOUT stores lane i's picks for the block's steps j = DX, DX+1, …,
// column i of the transposed block, into its reply slots under the mask
// in Y0.
#define STOREOUT(i, yi) \
	MOVQ       OUT+8*i(AX), R8; \
	VPMASKMOVD yi, Y0, (R8)(DX*4)

// BLOCKMASK loads into y the mask of the block of steps that starts at DX:
// min(8, k−DX) lanes. Uses R9 and R11.
#define BLOCKMASK(y) \
	MOVQ    CX, R9; \
	SUBQ    DX, R9; \
	MOVQ    $8, R11; \
	CMPQ    R9, R11; \
	CMOVQGT R11, R9; \
	SHLQ    $2, R9; \
	LEAQ    rowMask<>+32(SB), R11; \
	SUBQ    R9, R11; \
	VMOVDQU (R11), y

// XSHIFT is z ^= z >> n, with t scratch.
#define XSHIFT(n, z, t) \
	VPSRLQ $n, z, t; \
	VPXOR  t, z, z

// MUL64 is z = z·m mod 2^64 for the constant m whose low halves are at ml
// and high halves at mh: with z = zh·2^32 + zl, it is
// zl·ml + ((zh·ml + zl·mh) << 32). t1 and t2 are scratch.
#define MUL64(ml, mh, z, t1, t2) \
	VPSRLQ   $32, z, t1; \
	VPMULUDQ ml, t1, t1; \
	VPMULUDQ mh, z, t2; \
	VPADDQ   t2, t1, t1; \
	VPSLLQ   $32, t1, t1; \
	VPMULUDQ ml, z, z; \
	VPADDQ   t1, z, z

// SPLITMIX is splitmix64's output function on z: two xor-shift-multiply
// rounds and a last xor-shift.
#define SPLITMIX(z, t1, t2) \
	XSHIFT(30, z, t1); \
	MUL64(rowM1<>+0(SB), rowM1<>+32(SB), z, t1, t2); \
	XSHIFT(27, z, t1); \
	MUL64(rowM2<>+0(SB), rowM2<>+32(SB), z, t1, t2); \
	XSHIFT(31, z, t1)

// SEEDWORD steps the splitmix64 state sm by the increment and stores the
// output as generator word s of a set at off(AX).
#define SEEDWORD(off, sm, z, t1, t2) \
	VPADDQ  rowGolden<>(SB), sm, sm; \
	VMOVDQA sm, z; \
	SPLITMIX(z, t1, t2); \
	VMOVDQU z, off(AX)

// SEEDSET seeds the four lanes of one set whose layer seeds, node ids and
// generator words are at off within their tables: h = rng.MixStep(layer
// seed, node), then rng.Seed(h)'s four splitmix64 words. Seed's guard
// against an all-zero state never fires — splitmix64's output function is
// a bijection, so four consecutive states give at most one zero word — and
// is left out.
#define SEEDSET(off) \
	VMOVDQU SEED+off(AX), Y0; \
	VPSLLQ  $6, Y0, Y1; \
	VPSRLQ  $2, Y0, Y2; \
	VPADDQ  Y2, Y1, Y1; \
	VPADDQ  NODE+off(AX), Y1, Y1; \
	VPADDQ  rowGolden<>(SB), Y1, Y1; \
	VPXOR   Y1, Y0, Y0; \
	SPLITMIX(Y0, Y1, Y2); \
	SEEDWORD(S0+off, Y0, Y3, Y1, Y2); \
	SEEDWORD(S1+off, Y0, Y4, Y1, Y2); \
	SEEDWORD(S2+off, Y0, Y5, Y1, Y2); \
	SEEDWORD(S3+off, Y0, Y6, Y1, Y2)

// func seedRowsAVX2(l *lanes)
//
// Writes each lane's generator words: rng.Seed(rng.MixStep(layer seed,
// node id)), bit for bit. The multiplies are 64-bit by a constant, made of
// three VPMULUDQ (MUL64). VEX encodings only, VZEROUPPER before returning.
TEXT ·seedRowsAVX2(SB), NOSPLIT, $0-8
	MOVQ l+0(FP), AX
	SEEDSET(0)
	SEEDSET(32)
	VZEROUPPER
	RET

// DRAW advances one set of four lanes by one step j. s0–s3 hold the lanes'
// xoshiro256** words and flags the minimum of each lane's lazy-threshold
// witness; bound (n = d−k+j+1) and adjq (the row base ÷ 4) are the set's
// slots in the frame, and Y15 holds all ones. It leaves adj[t] for
// t = Intn(n) in px, the low half of p, and adds one to every bound; r and
// t are scratch, and tx is t's low half.
//
// The next output is rotl(s1·5, 7)·9 with the multiplies as shifts and
// adds. Lemire's high word, x·n >> 64, is exact from two VPMULUDQ because
// n < 2^31: with x = xh·2^32 + xl, it is (xh·n + (xl·n >> 32)) >> 32. The
// product's low word is below n only if the low half of that sum is 0
// (about one draw in 2^32), so flags keeps the sum's smallest low half. A
// power-of-two n takes x's low bits instead, as Uint64n does; the position
// is blended per lane. Rows are 4-byte aligned, so the gather reads
// 4·(adjq + t) = &adj[t].
#define DRAW(s0, s1, s2, s3, flags, bound, adjq, p, px, r, t, tx) \
	VPSLLQ     $2, s1, p; \
	VPADDQ     s1, p, p; \
	VPSLLQ     $7, p, t; \
	VPSRLQ     $57, p, p; \
	VPOR       t, p, p; \
	VPSLLQ     $3, p, t; \
	VPADDQ     t, p, p; \
	VPSLLQ     $17, s1, t; \
	VPXOR      s0, s2, s2; \
	VPXOR      s1, s3, s3; \
	VPXOR      s2, s1, s1; \
	VPXOR      s3, s0, s0; \
	VPXOR      t, s2, s2; \
	VPSLLQ     $45, s3, t; \
	VPSRLQ     $19, s3, s3; \
	VPOR       t, s3, s3; \
	VPSRLQ     $32, p, r; \
	VPMULUDQ   bound, r, r; \
	VPMULUDQ   bound, p, t; \
	VPSRLQ     $32, t, t; \
	VPADDQ     t, r, r; \
	VPMINUD    r, flags, flags; \
	VPSRLQ     $32, r, r; \
	VPADDQ     bound, Y15, t; \
	VPAND      t, p, p; \
	VPAND      bound, t, t; \
	VPCMPEQQ   rowZero<>(SB), t, t; \
	VPBLENDVB  t, p, r, r; \
	VPADDQ     adjq, r, r; \
	VMOVDQA    X15, tx; \
	VPGATHERQD tx, 0(r*4), px; \
	VMOVDQU    bound, t; \
	VPSUBQ     Y15, t, t; \
	VMOVDQU    t, bound

// SCAN4 compares the picks p with four rows of the picks table at SI,
// ORing the lanes that match into m; t is scratch.
#define SCAN4(p, m, t) \
	VPCMPEQD (SI), p, t; \
	VPOR     t, m, m; \
	VPCMPEQD 32(SI), p, t; \
	VPOR     t, m, m; \
	VPCMPEQD 64(SI), p, t; \
	VPOR     t, m, m; \
	VPCMPEQD 96(SI), p, t; \
	VPOR     t, m, m

// func uniformRowsAVX2(l *lanes, k int) (redo int)
//
// Draws k samples for each of eight rows into their reply slots. First, a
// block of eight steps at a time, the replacement values adj[d−k+j] of
// every lane are read and transposed into the step-major table REPL, and
// the picks table's rows are set to −1, which no node id equals. Then set
// A (lanes 0–3, words in Y0–Y3) and set B (lanes 4–7, Y4–Y7) each draw one
// step (DRAW), their picks are joined into one eight-lane vector, compared
// with every earlier step's picks, and blended with the step's REPL row
// where a lane matches. The previous step's picks stay in Y14 and are
// compared there, last; they reach their table row only after this step's
// scan, which reads whole blocks of four rows up to this step's own
// (SCAN4): a trip count that changes every fourth step, not every step,
// and no wait on a store just made. Last, the table is transposed back
// eight steps at a time and stored into each lane's slots. Returns the
// lanes whose product's low word may have fallen below the bound, bit i
// for lane i. The frame holds both sets' bounds and row bases ÷ 4.
//
// The caller (Rows.Flush) has checked 1 ≤ k ≤ maxRowK and d > k for every
// lane, so every gathered read is inside its row; the block reads and
// writes past step k are masked. VEX encodings only, VZEROUPPER before
// returning.
TEXT ·uniformRowsAVX2(SB), NOSPLIT, $128-24
	MOVQ l+0(FP), AX
	MOVQ k+8(FP), CX

	XORQ DX, DX
repl:
	BLOCKMASK(Y8)
	LOADREPL(0, Y0)
	LOADREPL(1, Y1)
	LOADREPL(2, Y2)
	LOADREPL(3, Y3)
	LOADREPL(4, Y4)
	LOADREPL(5, Y5)
	LOADREPL(6, Y6)
	LOADREPL(7, Y7)
	TRANSPOSE8
	MOVQ     DX, R8
	SHLQ     $5, R8
	LEAQ     REPL(AX)(R8*1), R9 // REPL row DX
	VMOVDQU  Y8, (R9)
	VMOVDQU  Y9, 32(R9)
	VMOVDQU  Y10, 64(R9)
	VMOVDQU  Y11, 96(R9)
	VMOVDQU  Y12, 128(R9)
	VMOVDQU  Y13, 160(R9)
	VMOVDQU  Y14, 192(R9)
	VMOVDQU  Y15, 224(R9)
	LEAQ     PICKS(AX)(R8*1), R9 // picks row DX
	VPCMPEQD Y0, Y0, Y0
	VMOVDQU  Y0, (R9)
	VMOVDQU  Y0, 32(R9)
	VMOVDQU  Y0, 64(R9)
	VMOVDQU  Y0, 96(R9)
	VMOVDQU  Y0, 128(R9)
	VMOVDQU  Y0, 160(R9)
	VMOVDQU  Y0, 192(R9)
	VMOVDQU  Y0, 224(R9)
	ADDQ     $8, DX
	CMPQ     DX, CX
	JLT      repl

	VMOVDQU  BOUND(AX), Y0
	VMOVDQU  Y0, 0(SP)
	VMOVDQU  BOUND+32(AX), Y0
	VMOVDQU  Y0, 32(SP)
	VMOVDQU  ADJ(AX), Y0
	VPSRLQ   $2, Y0, Y0
	VMOVDQU  Y0, 64(SP)
	VMOVDQU  ADJ+32(AX), Y0
	VPSRLQ   $2, Y0, Y0
	VMOVDQU  Y0, 96(SP)
	VMOVDQU  S0(AX), Y0
	VMOVDQU  S1(AX), Y1
	VMOVDQU  S2(AX), Y2
	VMOVDQU  S3(AX), Y3
	VMOVDQU  S0+32(AX), Y4
	VMOVDQU  S1+32(AX), Y5
	VMOVDQU  S2+32(AX), Y6
	VMOVDQU  S3+32(AX), Y7
	VPCMPEQD Y15, Y15, Y15
	VMOVDQA  Y15, Y8
	VMOVDQA  Y15, Y9
	VMOVDQA  Y15, Y14
	LEAQ     PICKS(AX), R9      // the table's first row
	MOVQ     R9, DI             // row j
	LEAQ     PICKS+128(AX), R12 // the end of row j's block
	MOVQ     CX, BX

step:
	DRAW(Y0, Y1, Y2, Y3, Y8, 0(SP), 64(SP), Y10, X10, Y11, Y12, X12)
	DRAW(Y4, Y5, Y6, Y7, Y9, 32(SP), 96(SP), Y11, X11, Y12, Y13, X13)
	VINSERTI128 $1, X11, Y10, Y10 // the eight picks adj[t]
	VPXOR       Y12, Y12, Y12
	MOVQ        R9, SI

scan:
	SCAN4(Y10, Y12, Y13)
	ADDQ $128, SI
	CMPQ SI, R12
	JNE  scan
	VPCMPEQD  Y14, Y10, Y13
	VPOR      Y13, Y12, Y12
	VPBLENDVB Y12, 1024(DI), Y10, Y10 // the step's REPL row
	CMPQ      DI, R9
	JEQ       first
	VMOVDQU   Y14, -32(DI) // the previous step's row, after the scan read it

first:
	VMOVDQA Y10, Y14
	ADDQ    $32, DI
	LEAQ    128(R12), R8
	CMPQ    DI, R12
	CMOVQEQ R8, R12
	DECQ    BX
	JNZ     step
	VMOVDQU Y14, -32(DI)

	// Bit i of the result is lane i's flag: a zero low half of a 64-bit
	// lane of flags moves to its sign bit.
	VPXOR     Y10, Y10, Y10
	VPCMPEQD  Y10, Y8, Y8
	VPCMPEQD  Y10, Y9, Y9
	VPSLLQ    $32, Y8, Y8
	VPSLLQ    $32, Y9, Y9
	VMOVMSKPD Y8, BX
	VMOVMSKPD Y9, SI
	SHLQ      $4, SI
	ORQ       SI, BX
	MOVQ      BX, redo+16(FP)

	XORQ DX, DX
out:
	MOVQ    DX, R8
	SHLQ    $5, R8
	LEAQ    PICKS(AX)(R8*1), R8 // picks row DX
	VMOVDQU (R8), Y0
	VMOVDQU 32(R8), Y1
	VMOVDQU 64(R8), Y2
	VMOVDQU 96(R8), Y3
	VMOVDQU 128(R8), Y4
	VMOVDQU 160(R8), Y5
	VMOVDQU 192(R8), Y6
	VMOVDQU 224(R8), Y7
	TRANSPOSE8
	BLOCKMASK(Y0)
	STOREOUT(0, Y8)
	STOREOUT(1, Y9)
	STOREOUT(2, Y10)
	STOREOUT(3, Y11)
	STOREOUT(4, Y12)
	STOREOUT(5, Y13)
	STOREOUT(6, Y14)
	STOREOUT(7, Y15)
	ADDQ $8, DX
	CMPQ DX, CX
	JLT  out

	VZEROUPPER
	RET
