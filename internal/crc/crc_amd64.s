#include "textflag.h"

// func foldCLMUL(state uint64, p []byte, k *[4]uint64) (lo, hi uint64)
//
// Each 16-byte lane X is a low half L (the earlier 8 bytes) and a high
// half H. Folding it d bits forward replaces it with L·(x^(d+63) mod P)
// ⊕ H·(x^(d-1) mod P), which PCLMULQDQ $0x00 and $0x11 compute against a
// register holding that pair of multipliers.
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
	MOVOU (AX), X0 // x^575, x^511: 64 bytes forward
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

	// Fold the four lanes into X1, 16 bytes at a time.
reduce:
	MOVOU 16(AX), X0 // x^191, x^127: 16 bytes forward

	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X2, X1

	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X3, X1

	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X4, X1

	CMPQ CX, $16
	JB   done

loop16:
	MOVOU     (SI), X10
	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X10, X1
	ADDQ      $16, SI
	SUBQ      $16, CX
	CMPQ      CX, $16
	JAE       loop16

done:
	MOVQ   X1, lo+40(FP)
	PSRLDQ $8, X1
	MOVQ   X1, hi+48(FP)
	RET
