#include "textflag.h"

// The 8-limb Montgomery multiply behind fpContext.mul on CPUs with BMI2
// and ADX. It is fpContext.mulGeneric's CIOS loop for n = 8, unrolled: each
// round adds x·y[i] into the accumulator, then m·q with m = t₀·inv0 mod 2⁶⁴,
// and drops the zero low word. MULXQ leaves the flags alone, so every
// product row runs two carry chains at once: ADOXQ adds the low words along
// OF and ADCXQ the high words along CF.
//
// q may fill all 512 bits, so the accumulator t₀…t₉ takes ten registers:
// eight words, a ninth below 2 between rounds, and a carry word that a row
// can set. Dropping the low word renames the registers instead of moving
// them. The cleared t₀ becomes the next round's t₉, so each round's
// register list is the previous one rotated by one. AX and BX take the
// product halves, DX the multiplier and DI the row's operand pointer, which
// is reloaded from the argument frame (there is no register left to keep x,
// y and q). Carries are folded with a register zeroed by MOVQ $0, which,
// unlike XORQ, leaves CF and OF pending. No BP, no frame, no global symbol.

// MACC adds DX·off(DI) into T0 (low word, OF chain) and T1 (high word, CF
// chain).
#define MACC(off, T0, T1) \
	MULXQ off(DI), AX, BX; \
	ADOXQ AX, T0;          \
	ADCXQ BX, T1

// ROW adds DX·[DI] into T0…T9: T9 takes the carries out of T8, which both
// chains can feed.
#define ROW(T0, T1, T2, T3, T4, T5, T6, T7, T8, T9) \
	XORQ  AX, AX;       \
	MACC(0, T0, T1);    \
	MACC(8, T1, T2);    \
	MACC(16, T2, T3);   \
	MACC(24, T3, T4);   \
	MACC(32, T4, T5);   \
	MACC(40, T5, T6);   \
	MACC(48, T6, T7);   \
	MACC(56, T7, T8);   \
	MOVQ  $0, AX;       \
	ADOXQ AX, T8;       \
	ADCXQ AX, T9;       \
	ADOXQ AX, T9

// ROUND runs one CIOS round for the word y[off/8]: t += x·y[i], then
// t += m·q, which clears T0.
#define ROUND(off, T0, T1, T2, T3, T4, T5, T6, T7, T8, T9) \
	MOVQ  y+16(FP), DX;                             \
	MOVQ  off(DX), DX;                              \
	MOVQ  x+8(FP), DI;                              \
	ROW(T0, T1, T2, T3, T4, T5, T6, T7, T8, T9);    \
	MOVQ  inv0+32(FP), DX;                          \
	IMULQ T0, DX;                                   \
	MOVQ  q+24(FP), DI;                             \
	ROW(T0, T1, T2, T3, T4, T5, T6, T7, T8, T9)

// func mulMont8(z, x, y, q *fpElement, inv0 uint64)
TEXT ·mulMont8(SB), NOSPLIT|NOFRAME, $0-40
	XORQ CX, CX
	XORQ SI, SI
	XORQ R8, R8
	XORQ R9, R9
	XORQ R10, R10
	XORQ R11, R11
	XORQ R12, R12
	XORQ R13, R13
	XORQ R14, R14
	XORQ R15, R15
	ROUND(0, CX, SI, R8, R9, R10, R11, R12, R13, R14, R15)
	ROUND(8, SI, R8, R9, R10, R11, R12, R13, R14, R15, CX)
	ROUND(16, R8, R9, R10, R11, R12, R13, R14, R15, CX, SI)
	ROUND(24, R9, R10, R11, R12, R13, R14, R15, CX, SI, R8)
	ROUND(32, R10, R11, R12, R13, R14, R15, CX, SI, R8, R9)
	ROUND(40, R11, R12, R13, R14, R15, CX, SI, R8, R9, R10)
	ROUND(48, R12, R13, R14, R15, CX, SI, R8, R9, R10, R11)
	ROUND(56, R13, R14, R15, CX, SI, R8, R9, R10, R11, R12)

	// t = R14, R15, CX, SI, R8…R11 with the ninth word in R12, and t < 2q.
	// Store t, subtract q, and reload the stored t if that borrowed past
	// the ninth word (t < q).
	MOVQ z+0(FP), AX
	MOVQ q+24(FP), DI
	MOVQ R14, 0(AX)
	MOVQ R15, 8(AX)
	MOVQ CX, 16(AX)
	MOVQ SI, 24(AX)
	MOVQ R8, 32(AX)
	MOVQ R9, 40(AX)
	MOVQ R10, 48(AX)
	MOVQ R11, 56(AX)
	SUBQ 0(DI), R14
	SBBQ 8(DI), R15
	SBBQ 16(DI), CX
	SBBQ 24(DI), SI
	SBBQ 32(DI), R8
	SBBQ 40(DI), R9
	SBBQ 48(DI), R10
	SBBQ 56(DI), R11
	SBBQ $0, R12
	CMOVQCS 0(AX), R14
	CMOVQCS 8(AX), R15
	CMOVQCS 16(AX), CX
	CMOVQCS 24(AX), SI
	CMOVQCS 32(AX), R8
	CMOVQCS 40(AX), R9
	CMOVQCS 48(AX), R10
	CMOVQCS 56(AX), R11
	MOVQ R14, 0(AX)
	MOVQ R15, 8(AX)
	MOVQ CX, 16(AX)
	MOVQ SI, 24(AX)
	MOVQ R8, 32(AX)
	MOVQ R9, 40(AX)
	MOVQ R10, 48(AX)
	MOVQ R11, 56(AX)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT|NOFRAME, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET
