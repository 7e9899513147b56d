#include "textflag.h"

// func mulSumGFNI(dst []byte, srcs [][]byte, coefs []byte, tbl *[256]uint64)
//
// Multiplication by c is an 8×8 bit matrix over GF(2), tbl[c], which
// VGF2P8AFFINEQB applies to each of the 64 bytes of a ZMM register.
// Each iteration computes 256 bytes of dst in Z0-Z3: the first source's
// products set them and every further source's products are XORed in,
// its matrix broadcast into Z8 once per 256 bytes. Then a 64-byte loop
// in Z0 alone finishes the length. dst is only written. Registers: DI
// dst, CX its length, SI the source slice headers (24 bytes apart), BX
// their count, DX coefs, R10 tbl, AX the byte offset into every slice,
// R9 the source number and R13 its header.
TEXT ·mulSumGFNI(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ srcs_base+24(FP), SI
	MOVQ srcs_len+32(FP), BX
	MOVQ coefs_base+48(FP), DX
	MOVQ tbl+72(FP), R10
	XORQ AX, AX

loop256:
	LEAQ 256(AX), R12
	CMPQ R12, CX
	JA   loop64

	MOVQ           (SI), R11
	MOVBQZX        (DX), R12
	VPBROADCASTQ   (R10)(R12*8), Z8
	VMOVDQU64      (R11)(AX*1), Z0
	VMOVDQU64      64(R11)(AX*1), Z1
	VMOVDQU64      128(R11)(AX*1), Z2
	VMOVDQU64      192(R11)(AX*1), Z3
	VGF2P8AFFINEQB $0, Z8, Z0, Z0
	VGF2P8AFFINEQB $0, Z8, Z1, Z1
	VGF2P8AFFINEQB $0, Z8, Z2, Z2
	VGF2P8AFFINEQB $0, Z8, Z3, Z3
	MOVQ           $1, R9
	LEAQ           24(SI), R13

acc256:
	CMPQ           R9, BX
	JAE            store256
	MOVQ           (R13), R11
	MOVBQZX        (DX)(R9*1), R12
	VPBROADCASTQ   (R10)(R12*8), Z8
	VMOVDQU64      (R11)(AX*1), Z4
	VMOVDQU64      64(R11)(AX*1), Z5
	VMOVDQU64      128(R11)(AX*1), Z6
	VMOVDQU64      192(R11)(AX*1), Z7
	VGF2P8AFFINEQB $0, Z8, Z4, Z4
	VGF2P8AFFINEQB $0, Z8, Z5, Z5
	VGF2P8AFFINEQB $0, Z8, Z6, Z6
	VGF2P8AFFINEQB $0, Z8, Z7, Z7
	VPXORQ         Z4, Z0, Z0
	VPXORQ         Z5, Z1, Z1
	VPXORQ         Z6, Z2, Z2
	VPXORQ         Z7, Z3, Z3
	ADDQ           $24, R13
	INCQ           R9
	JMP            acc256

store256:
	VMOVDQU64 Z0, (DI)(AX*1)
	VMOVDQU64 Z1, 64(DI)(AX*1)
	VMOVDQU64 Z2, 128(DI)(AX*1)
	VMOVDQU64 Z3, 192(DI)(AX*1)
	ADDQ      $256, AX
	JMP       loop256

loop64:
	CMPQ AX, CX
	JAE  done

	MOVQ           (SI), R11
	MOVBQZX        (DX), R12
	VPBROADCASTQ   (R10)(R12*8), Z8
	VMOVDQU64      (R11)(AX*1), Z0
	VGF2P8AFFINEQB $0, Z8, Z0, Z0
	MOVQ           $1, R9
	LEAQ           24(SI), R13

acc64:
	CMPQ           R9, BX
	JAE            store64
	MOVQ           (R13), R11
	MOVBQZX        (DX)(R9*1), R12
	VPBROADCASTQ   (R10)(R12*8), Z8
	VMOVDQU64      (R11)(AX*1), Z4
	VGF2P8AFFINEQB $0, Z8, Z4, Z4
	VPXORQ         Z4, Z0, Z0
	ADDQ           $24, R13
	INCQ           R9
	JMP            acc64

store64:
	VMOVDQU64 Z0, (DI)(AX*1)
	ADDQ      $64, AX
	JMP       loop64

done:
	VZEROUPPER
	RET

// The split-nibble multiply: multiplication by c is linear over GF(2),
// so c·x = c·(x & 15) ^ c·(x & 0xf0), and each half indexes a 16-entry
// table that PSHUFB looks up for 16 bytes at once. NIBTABLES loads X6
// with c·i and X7 with c·(i<<4) for i = 0..15 from the table at AX, and
// X8 with 0x0f in every byte. NIBMUL(x, t, u) replaces the 16 bytes in
// x with their products, using t and u as scratch.
#define NIBTABLES \
	MOVOU      (AX), X6; \
	MOVOU      16(AX), X7; \
	MOVQ       $0x0f0f0f0f0f0f0f0f, DX; \
	MOVQ       DX, X8; \
	PUNPCKLQDQ X8, X8

#define NIBMUL(x, t, u) \
	MOVOA  x, t; \
	PSRLQ  $4, t; \
	PAND   X8, x; \
	PAND   X8, t; \
	MOVOA  X6, u; \
	PSHUFB x, u; \
	MOVOA  X7, x; \
	PSHUFB t, x; \
	PXOR   u, x

// func mulSetSSSE3(dst, src []byte, tbl *[32]byte)
//
// Each iteration multiplies 32 source bytes into dst; one 16-byte step
// finishes a length that is an odd multiple of 16.
TEXT ·mulSetSSSE3(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ tbl+48(FP), AX
	NIBTABLES

	CMPQ CX, $32
	JB   set16

set32:
	MOVOU (SI), X0
	MOVOU 16(SI), X1
	NIBMUL(X0, X2, X4)
	NIBMUL(X1, X3, X5)
	MOVOU X0, (DI)
	MOVOU X1, 16(DI)
	ADDQ  $32, SI
	ADDQ  $32, DI
	SUBQ  $32, CX
	CMPQ  CX, $32
	JAE   set32

set16:
	CMPQ  CX, $16
	JB    setdone
	MOVOU (SI), X0
	NIBMUL(X0, X2, X4)
	MOVOU X0, (DI)

setdone:
	RET

// func mulAddSSSE3(dst, src []byte, tbl *[32]byte)
//
// mulSetSSSE3 with each product XORed into dst.
TEXT ·mulAddSSSE3(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	MOVQ tbl+48(FP), AX
	NIBTABLES

	CMPQ CX, $32
	JB   add16

add32:
	MOVOU (SI), X0
	MOVOU 16(SI), X1
	NIBMUL(X0, X2, X4)
	NIBMUL(X1, X3, X5)
	MOVOU (DI), X2
	MOVOU 16(DI), X3
	PXOR  X2, X0
	PXOR  X3, X1
	MOVOU X0, (DI)
	MOVOU X1, 16(DI)
	ADDQ  $32, SI
	ADDQ  $32, DI
	SUBQ  $32, CX
	CMPQ  CX, $32
	JAE   add32

add16:
	CMPQ  CX, $16
	JB    adddone
	MOVOU (SI), X0
	NIBMUL(X0, X2, X4)
	MOVOU (DI), X2
	PXOR  X2, X0
	MOVOU X0, (DI)

adddone:
	RET
