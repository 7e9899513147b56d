#include "textflag.h"

// func mulAddSSSE3(dst, src []byte, tbl *[32]byte)
//
// The split-nibble multiply: multiplication by c is linear over GF(2),
// so c·x = c·(x & 15) ^ c·(x & 0xf0), and each half indexes a 16-entry
// table that PSHUFB looks up for 16 bytes at once. X6 holds c·i and X7
// holds c·(i<<4) for i = 0..15; X8 holds 0x0f in every byte. Each
// iteration multiplies 32 source bytes and XORs the products into dst;
// one 16-byte step finishes a length that is an odd multiple of 16.
TEXT ·mulAddSSSE3(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ tbl+48(FP), AX

	MOVOU      (AX), X6
	MOVOU      16(AX), X7
	MOVQ       $0x0f0f0f0f0f0f0f0f, DX
	MOVQ       DX, X8
	PUNPCKLQDQ X8, X8

	CMPQ CX, $32
	JB   tail16

loop32:
	MOVOU (SI), X0
	MOVOU 16(SI), X1
	MOVOA X0, X2
	MOVOA X1, X3
	PSRLQ $4, X2
	PSRLQ $4, X3
	PAND  X8, X0
	PAND  X8, X1
	PAND  X8, X2
	PAND  X8, X3

	MOVOA  X6, X4
	MOVOA  X6, X5
	PSHUFB X0, X4 // c·(x & 15)
	PSHUFB X1, X5
	MOVOA  X7, X0
	MOVOA  X7, X1
	PSHUFB X2, X0 // c·(x & 0xf0)
	PSHUFB X3, X1
	PXOR   X4, X0
	PXOR   X5, X1

	MOVOU (DI), X2
	MOVOU 16(DI), X3
	PXOR  X2, X0
	PXOR  X3, X1
	MOVOU X0, (DI)
	MOVOU X1, 16(DI)

	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $32, CX
	CMPQ CX, $32
	JAE  loop32

tail16:
	CMPQ CX, $16
	JB   done
	MOVOU  (SI), X0
	MOVOA  X0, X2
	PSRLQ  $4, X2
	PAND   X8, X0
	PAND   X8, X2
	MOVOA  X6, X4
	PSHUFB X0, X4
	MOVOA  X7, X0
	PSHUFB X2, X0
	PXOR   X4, X0
	MOVOU  (DI), X2
	PXOR   X2, X0
	MOVOU  X0, (DI)

done:
	RET
