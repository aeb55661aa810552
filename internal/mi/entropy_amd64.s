#include "textflag.h"

// Two-lane log2 in SSE2; see entropy_amd64.go for the contract. Each
// step names the scalar instruction of Go's amd64 math.Log2 (log10.go's
// log2, frexp.go's frexp, and log_amd64.s's archLog) that it replays
// lane by lane; the comments give the lanes' values.
//
//	SI  &src[0]    DI  &dst[0]    CX  len(src)    BX  cell index
//	R8  log2c, the constants below, each in both lanes

DATA log2c<>+0(SB)/8, $0x000fffffffffffff // mantissa mask
DATA log2c<>+8(SB)/8, $0x000fffffffffffff
DATA log2c<>+16(SB)/8, $0x3fe0000000000000 // 0.5: Frexp's fraction exponent, hfsq's factor
DATA log2c<>+24(SB)/8, $0x3fe0000000000000
DATA log2c<>+32(SB)/8, $0x4330000000000000 // 2^52: converts an exponent field to double
DATA log2c<>+40(SB)/8, $0x4330000000000000
DATA log2c<>+48(SB)/8, $0x408ff00000000000 // 1022.0: Frexp's exponent bias
DATA log2c<>+56(SB)/8, $0x408ff00000000000
DATA log2c<>+64(SB)/8, $0x3fe6a09e667f3bcd // HSqrt2
DATA log2c<>+72(SB)/8, $0x3fe6a09e667f3bcd
DATA log2c<>+80(SB)/8, $0x3ff0000000000000 // 1.0
DATA log2c<>+88(SB)/8, $0x3ff0000000000000
DATA log2c<>+96(SB)/8, $0x4000000000000000 // 2.0
DATA log2c<>+104(SB)/8, $0x4000000000000000
DATA log2c<>+112(SB)/8, $0x3fe5555555555593 // L1
DATA log2c<>+120(SB)/8, $0x3fe5555555555593
DATA log2c<>+128(SB)/8, $0x3fd999999997fa04 // L2
DATA log2c<>+136(SB)/8, $0x3fd999999997fa04
DATA log2c<>+144(SB)/8, $0x3fd2492494229359 // L3
DATA log2c<>+152(SB)/8, $0x3fd2492494229359
DATA log2c<>+160(SB)/8, $0x3fcc71c51d8e78af // L4
DATA log2c<>+168(SB)/8, $0x3fcc71c51d8e78af
DATA log2c<>+176(SB)/8, $0x3fc7466496cb03de // L5
DATA log2c<>+184(SB)/8, $0x3fc7466496cb03de
DATA log2c<>+192(SB)/8, $0x3fc39a09d078c69f // L6
DATA log2c<>+200(SB)/8, $0x3fc39a09d078c69f
DATA log2c<>+208(SB)/8, $0x3fc2f112df3e5244 // L7
DATA log2c<>+216(SB)/8, $0x3fc2f112df3e5244
DATA log2c<>+224(SB)/8, $0x3fe62e42fee00000 // Ln2Hi
DATA log2c<>+232(SB)/8, $0x3fe62e42fee00000
DATA log2c<>+240(SB)/8, $0x3dea39ef35793c76 // Ln2Lo
DATA log2c<>+248(SB)/8, $0x3dea39ef35793c76
DATA log2c<>+256(SB)/8, $0x3ff71547652b82fe // 1/Ln2
DATA log2c<>+264(SB)/8, $0x3ff71547652b82fe
DATA log2c<>+272(SB)/8, $0x0010000000000000 // smallest normal, 2^-1022
DATA log2c<>+280(SB)/8, $0x0010000000000000
DATA log2c<>+288(SB)/8, $0x7fefffffffffffff // MaxFloat64
DATA log2c<>+296(SB)/8, $0x7fefffffffffffff
GLOBL log2c<>(SB), RODATA|NOPTR, $304

// func log2SSE(dst, src []float64) int
TEXT ·log2SSE(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	LEAQ log2c<>(SB), R8
	XORQ BX, BX

loop:
	LEAQ 2(BX), AX
	CMPQ AX, CX
	JGT  done
	MOVUPD (SI)(BX*8), X0           // x
	MOVUPD 272(R8), X1
	CMPPD  X0, X1, $2               // 2^-1022 <= x
	MOVAPD X0, X2
	CMPPD  288(R8), X2, $2          // x <= MaxFloat64
	ANDPD  X2, X1
	MOVMSKPD X1, AX
	CMPQ AX, $3
	JNE  done                       // a lane outside the positive normals

	// frac, exp := Frexp(x): exp = (bits>>52) - 1022, converted exactly
	// through 2^52; frac = mantissa | 0.5's exponent.
	MOVAPD X0, X1
	PSRLQ  $52, X1
	ORPD   32(R8), X1
	SUBPD  32(R8), X1
	SUBPD  48(R8), X1               // X1 = exp
	ANDPD  0(R8), X0
	ORPD   16(R8), X0               // X0 = frac
	MOVAPD X0, X2
	CMPPD  16(R8), X2, $0           // X2 = frac == 0.5: return exp-1

	// archLog(frac). Its Frexp leaves f1 = frac and k = 0. CMPSD's
	// predicate 5 (not less than) takes f1 <= Sqrt2/2: k -= 1; f1 *= 2.
	MOVUPD 64(R8), X3
	CMPPD  X0, X3, $5
	ANDPD  80(R8), X3               // X3 = 0 or 1
	XORPD  X4, X4
	SUBPD  X3, X4                   // X4 = k = 0 - X3
	ADDPD  80(R8), X3
	MULPD  X3, X0                   // X0 = f1
	SUBPD  80(R8), X0               // X0 = f = f1 - 1
	MOVUPD 96(R8), X5
	ADDPD  X0, X5                   // 2 + f
	MOVAPD X0, X6
	DIVPD  X5, X6                   // X6 = s = f / (2 + f)
	MOVAPD X6, X7
	MULPD  X7, X7                   // X7 = s2 = s * s
	MOVAPD X7, X8
	MULPD  X8, X8                   // X8 = s4 = s2 * s2
	MOVUPD 208(R8), X9              // t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	MULPD  X8, X9
	ADDPD  176(R8), X9
	MULPD  X8, X9
	ADDPD  144(R8), X9
	MULPD  X8, X9
	ADDPD  112(R8), X9
	MULPD  X9, X7                   // X7 = t1
	MOVUPD 192(R8), X9              // t2 := s4 * (L2 + s4*(L4+s4*L6))
	MULPD  X8, X9
	ADDPD  160(R8), X9
	MULPD  X8, X9
	ADDPD  128(R8), X9
	MULPD  X9, X8                   // X8 = t2
	ADDPD  X8, X7                   // X7 = R = t1 + t2
	MOVUPD 16(R8), X9
	MULPD  X0, X9
	MULPD  X0, X9                   // X9 = hfsq = 0.5 * f * f
	ADDPD  X9, X7                   // X7 = hfsq + R
	MULPD  X7, X6                   // X6 = s*(hfsq+R)
	MOVUPD 240(R8), X10
	MULPD  X4, X10                  // X10 = k*Ln2Lo
	ADDPD  X10, X6                  // X6 = s*(hfsq+R) + k*Ln2Lo
	SUBPD  X6, X9                   // X9 = hfsq - X6
	SUBPD  X0, X9                   // X9 = (hfsq - X6) - f
	MULPD  224(R8), X4              // X4 = k*Ln2Hi
	SUBPD  X9, X4                   // X4 = Log(frac)

	// Log(frac)*(1/Ln2) + exp, or exp-1 where frac == 0.5.
	MULPD  256(R8), X4
	ADDPD  X1, X4
	SUBPD  80(R8), X1
	ANDPD  X2, X1
	ANDNPD X4, X2
	ORPD   X1, X2
	MOVUPD X2, (DI)(BX*8)
	ADDQ $2, BX
	JMP  loop

done:
	MOVQ BX, ret+48(FP)
	RET
