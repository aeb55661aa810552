#include "textflag.h"

// Order-3 block scatter in SSE2; see scatter_amd64.go for the
// contract. Registers in both kernels:
//
//	DX   &acc[0]            R11  len(acc) - 11: a block whose first float
//	SI   &keyI[0]                is at index x fits when x < R11
//	DI   &offJ[0]           R8   gene i's broadcast rows of sample s
//	CX   m                  R9   gene j's stencils (unpermuted: of sample s)
//	BX   sample s           R10  &perm[0]
//	AX   bucket block, then its first float    R12  perm[s], then 3·perm[s]
//
// Per sample: X0 = (wj0, wj1, wj2, 0) from an 8-byte and a 4-byte load,
// X1..X3 = gene i's broadcast w_i(u) (48 bytes) multiplied by X0, and
// row u of the bucket block (16 bytes at 16·u) += X(1+u).

// func scatter3SSE(acc []float32, keyI, offJ []int32, wi, wj []float32) int
TEXT ·scatter3SSE(SB), NOSPLIT, $0-128
	MOVQ acc_base+0(FP), DX
	MOVQ acc_len+8(FP), R11
	SUBQ $11, R11
	MOVQ keyI_base+24(FP), SI
	MOVQ keyI_len+32(FP), CX
	MOVQ offJ_base+48(FP), DI
	MOVQ wi_base+72(FP), R8
	MOVQ wj_base+96(FP), R9
	XORQ BX, BX
	TESTQ CX, CX
	JEQ done

loop:
	MOVL (SI)(BX*4), AX
	ADDL (DI)(BX*4), AX     // bucket block b = keyI[s] + offJ[s]
	LEAQ (AX)(AX*2), AX
	SHLQ $2, AX             // 12·b, the block's first float
	CMPQ AX, R11
	JGE  done
	MOVSD   (R9), X0
	MOVSS   8(R9), X1
	MOVLHPS X1, X0
	MOVUPS  (R8), X1
	MOVUPS  16(R8), X2
	MOVUPS  32(R8), X3
	MULPS   X0, X1
	MULPS   X0, X2
	MULPS   X0, X3
	MOVUPS  (DX)(AX*4), X4
	ADDPS   X1, X4
	MOVUPS  X4, (DX)(AX*4)
	MOVUPS  16(DX)(AX*4), X5
	ADDPS   X2, X5
	MOVUPS  X5, 16(DX)(AX*4)
	MOVUPS  32(DX)(AX*4), X6
	ADDPS   X3, X6
	MOVUPS  X6, 32(DX)(AX*4)
	ADDQ $48, R8
	ADDQ $12, R9
	INCQ BX
	CMPQ BX, CX
	JLT  loop

done:
	MOVQ BX, ret+120(FP)
	RET

// func scatter3PermSSE(acc []float32, keyI, offJ []int32, wi, wj []float32, perm []int32) int
TEXT ·scatter3PermSSE(SB), NOSPLIT, $0-152
	MOVQ acc_base+0(FP), DX
	MOVQ acc_len+8(FP), R11
	SUBQ $11, R11
	MOVQ keyI_base+24(FP), SI
	MOVQ keyI_len+32(FP), CX
	MOVQ offJ_base+48(FP), DI
	MOVQ wi_base+72(FP), R8
	MOVQ wj_base+96(FP), R9
	MOVQ perm_base+120(FP), R10
	XORQ BX, BX
	TESTQ CX, CX
	JEQ pdone

ploop:
	MOVL (R10)(BX*4), R12   // t = perm[s], zero-extended
	CMPQ R12, CX
	JAE  pdone              // unsigned: a negative index is huge
	MOVL (SI)(BX*4), AX
	ADDL (DI)(R12*4), AX    // bucket block b = keyI[s] + offJ[t]
	LEAQ (AX)(AX*2), AX
	SHLQ $2, AX
	CMPQ AX, R11
	JGE  pdone
	LEAQ (R12)(R12*2), R12  // 3·t, gene j's stencil t
	MOVSD   (R9)(R12*4), X0
	MOVSS   8(R9)(R12*4), X1
	MOVLHPS X1, X0
	MOVUPS  (R8), X1
	MOVUPS  16(R8), X2
	MOVUPS  32(R8), X3
	MULPS   X0, X1
	MULPS   X0, X2
	MULPS   X0, X3
	MOVUPS  (DX)(AX*4), X4
	ADDPS   X1, X4
	MOVUPS  X4, (DX)(AX*4)
	MOVUPS  16(DX)(AX*4), X5
	ADDPS   X2, X5
	MOVUPS  X5, 16(DX)(AX*4)
	MOVUPS  32(DX)(AX*4), X6
	ADDPS   X3, X6
	MOVUPS  X6, 32(DX)(AX*4)
	ADDQ $48, R8
	INCQ BX
	CMPQ BX, CX
	JLT  ploop

pdone:
	MOVQ BX, ret+144(FP)
	RET
