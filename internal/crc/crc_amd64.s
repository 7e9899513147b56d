#include "textflag.h"

// Each 16-byte lane X is a low half L (the earlier 8 bytes) and a high
// half H. Folding it d bits forward replaces it with L·(x^(d+63) mod P)
// ⊕ H·(x^(d-1) mod P), which PCLMULQDQ $0x00 and $0x11 compute against a
// register holding that pair of multipliers. The multipliers sit in a
// foldKeys: 256 bytes forward at offset 0, 64 bytes at 16, 16 bytes at
// 32.

// FOLD16 folds lane X1 16 bytes forward with the multipliers in X0 and
// XORs in the next lane, next, using X5 as scratch.
#define FOLD16(next) \
	MOVOA     X1, X5;        \
	PCLMULQDQ $0x00, X0, X1; \
	PCLMULQDQ $0x11, X0, X5; \
	PXOR      X5, X1;        \
	PXOR      next, X1

// FINISH folds the four lanes X1..X4 into X1, then every remaining
// 16-byte block at SI (CX bytes, a multiple of 16) into it, and stores
// X1 as lo and hi. AX points at the foldKeys, whose x^191 and x^127
// fold 16 bytes forward.
#define FINISH \
	MOVOU 32(AX), X0; \
	FOLD16(X2);       \
	FOLD16(X3);       \
	FOLD16(X4);       \
	CMPQ  CX, $16;    \
	JB    done;       \
loop16:;              \
	MOVOU (SI), X10;  \
	FOLD16(X10);      \
	ADDQ  $16, SI;    \
	SUBQ  $16, CX;    \
	CMPQ  CX, $16;    \
	JAE   loop16;     \
done:;                \
	MOVQ   X1, lo+40(FP); \
	PSRLDQ $8, X1;        \
	MOVQ   X1, hi+48(FP)

// func foldCLMUL(state uint64, p []byte, k *foldKeys) (lo, hi uint64)
TEXT ·foldCLMUL(SB), NOSPLIT, $0-56
	MOVQ state+0(FP), X0
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX
	MOVQ k+32(FP), AX

	// Four lanes, the register state XORed into the first 8 bytes.
	MOVOU (SI), X1
	MOVOU 16(SI), X2
	MOVOU 32(SI), X3
	MOVOU 48(SI), X4
	PXOR  X0, X1
	ADDQ  $64, SI
	SUBQ  $64, CX
	MOVOU 16(AX), X0 // x^575, x^511: 64 bytes forward
	CMPQ  CX, $64
	JB    reduce

loop64:
	MOVOA X1, X5
	MOVOA X2, X6
	MOVOA X3, X7
	MOVOA X4, X8

	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x00, X0, X2
	PCLMULQDQ $0x00, X0, X3
	PCLMULQDQ $0x00, X0, X4

	MOVOU (SI), X11
	MOVOU 16(SI), X12
	MOVOU 32(SI), X13
	MOVOU 48(SI), X14

	PCLMULQDQ $0x11, X0, X5
	PCLMULQDQ $0x11, X0, X6
	PCLMULQDQ $0x11, X0, X7
	PCLMULQDQ $0x11, X0, X8

	PXOR X5, X1
	PXOR X6, X2
	PXOR X7, X3
	PXOR X8, X4

	PXOR X11, X1
	PXOR X12, X2
	PXOR X13, X3
	PXOR X14, X4

	ADDQ $64, SI
	SUBQ $64, CX
	CMPQ CX, $64
	JAE  loop64

reduce:
	FINISH
	RET

// FOLDZ folds each lane of acc forward by the multipliers broadcast in
// Z0 and XORs in next, using Z5 as scratch.
#define FOLDZ(acc, next) \
	VPCLMULQDQ $0x00, Z0, acc, Z5; \
	VPCLMULQDQ $0x11, Z0, acc, acc; \
	VPTERNLOGQ $0x96, next, Z5, acc

// func foldWide(state uint64, p []byte, k *foldKeys) (lo, hi uint64)
//
// foldCLMUL on four 64-byte ZMM accumulators of four lanes each: the
// loop folds 256 bytes per iteration, the four accumulators then fold
// into one 64 bytes at a time, and its four lanes finish as foldCLMUL's
// four lanes do, after VZEROUPPER.
TEXT ·foldWide(SB), NOSPLIT, $0-56
	MOVQ state+0(FP), X0 // zeroes the rest of Z0
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX
	MOVQ k+32(FP), AX

	VMOVDQU64 (SI), Z1
	VMOVDQU64 64(SI), Z2
	VMOVDQU64 128(SI), Z3
	VMOVDQU64 192(SI), Z4
	VPXORQ    Z0, Z1, Z1
	ADDQ      $256, SI
	SUBQ      $256, CX
	VBROADCASTI32X4 (AX), Z0 // x^2111, x^2047: 256 bytes forward
	CMPQ      CX, $256
	JB        fold4

loop256:
	VMOVDQU64 (SI), Z11
	VMOVDQU64 64(SI), Z12
	VMOVDQU64 128(SI), Z13
	VMOVDQU64 192(SI), Z14
	FOLDZ(Z1, Z11)
	FOLDZ(Z2, Z12)
	FOLDZ(Z3, Z13)
	FOLDZ(Z4, Z14)
	ADDQ      $256, SI
	SUBQ      $256, CX
	CMPQ      CX, $256
	JAE       loop256

fold4:
	VBROADCASTI32X4 16(AX), Z0 // x^575, x^511: 64 bytes forward
	FOLDZ(Z1, Z2)
	FOLDZ(Z1, Z3)
	FOLDZ(Z1, Z4)
	CMPQ      CX, $64
	JB        lanes

loop64:
	VMOVDQU64 (SI), Z11
	FOLDZ(Z1, Z11)
	ADDQ      $64, SI
	SUBQ      $64, CX
	CMPQ      CX, $64
	JAE       loop64

lanes:
	VEXTRACTI32X4 $1, Z1, X2
	VEXTRACTI32X4 $2, Z1, X3
	VEXTRACTI32X4 $3, Z1, X4
	VZEROUPPER
	FINISH
	RET
