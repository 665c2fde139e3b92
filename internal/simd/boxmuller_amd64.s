//go:build !noasm

#include "textflag.h"

// Constants for boxMullerAVX, each stored four times so that every one
// is a full 256-bit memory operand. Bit patterns are those of the
// constants in math/log_amd64.s and math/sin.go (their hex comments).
#define CONST4(off, bits) \
	DATA bmc<>+(off)(SB)/8, bits; \
	DATA bmc<>+(off+8)(SB)/8, bits; \
	DATA bmc<>+(off+16)(SB)/8, bits; \
	DATA bmc<>+(off+24)(SB)/8, bits

CONST4(0, $0x000FFFFFFFFFFFFF)   // mantissa mask
CONST4(32, $0x3FE0000000000000)  // 0.5
CONST4(64, $0x00000000000007FF)  // biased-exponent mask
CONST4(96, $0x4330000000000000)  // 2^52
CONST4(128, $0x408FF00000000000) // 1022.0 (= 0x3FE)
CONST4(160, $0x3FE6A09E667F3BCD) // HSqrt2
CONST4(192, $0x3FF0000000000000) // 1.0
CONST4(224, $0x4000000000000000) // 2.0
CONST4(256, $0x3FE5555555555593) // L1
CONST4(288, $0x3FD999999997FA04) // L2
CONST4(320, $0x3FD2492494229359) // L3
CONST4(352, $0x3FCC71C51D8E78AF) // L4
CONST4(384, $0x3FC7466496CB03DE) // L5
CONST4(416, $0x3FC39A09D078C69F) // L6
CONST4(448, $0x3FC2F112DF3E5244) // L7
CONST4(480, $0x3FE62E42FEE00000) // Ln2Hi
CONST4(512, $0x3DEA39EF35793C76) // Ln2Lo
CONST4(544, $0xC000000000000000) // -2.0
CONST4(576, $0x401921FB54442D18) // 2*Pi
CONST4(608, $0x7FFFFFFFFFFFFFFF) // |x| mask
CONST4(640, $0x3FF45F306DC9C883) // 4/Pi
CONST4(672, $0x0000000100000001) // int32 1 in every lane
CONST4(704, $0x0000000000000002) // int64 2
CONST4(736, $0x8000000000000000) // sign bit
CONST4(768, $0x3FE921FB40000000) // PI4A
CONST4(800, $0x3E64442D00000000) // PI4B
CONST4(832, $0x3CE8469898CC5170) // PI4C
CONST4(864, $0x3DE5D8FD1FD19CCD) // _sin[0]
CONST4(896, $0xBE5AE5E5A9291F5D) // _sin[1]
CONST4(928, $0x3EC71DE3567D48A1) // _sin[2]
CONST4(960, $0xBF2A01A019BFDF03) // _sin[3]
CONST4(992, $0x3F8111111110F7D0) // _sin[4]
CONST4(1024, $0xBFC5555555555548) // _sin[5]
CONST4(1056, $0xBDA8FA49A0861A9B) // _cos[0]
CONST4(1088, $0x3E21EE9D7B4E3F05) // _cos[1]
CONST4(1120, $0xBE927E4F7EAC4BC6) // _cos[2]
CONST4(1152, $0x3EFA01A019C844F5) // _cos[3]
CONST4(1184, $0xBF56C16C16C14F91) // _cos[4]
CONST4(1216, $0x3FA555555555554B) // _cos[5]
GLOBL bmc<>(SB), RODATA|NOPTR, $1248

#define MANT bmc<>+0(SB)
#define HALF bmc<>+32(SB)
#define EXPMASK bmc<>+64(SB)
#define TWO52 bmc<>+96(SB)
#define BIAS bmc<>+128(SB)
#define HSQRT2 bmc<>+160(SB)
#define ONE bmc<>+192(SB)
#define TWO bmc<>+224(SB)
#define L1 bmc<>+256(SB)
#define L2 bmc<>+288(SB)
#define L3 bmc<>+320(SB)
#define L4 bmc<>+352(SB)
#define L5 bmc<>+384(SB)
#define L6 bmc<>+416(SB)
#define L7 bmc<>+448(SB)
#define LN2HI bmc<>+480(SB)
#define LN2LO bmc<>+512(SB)
#define NEG2 bmc<>+544(SB)
#define TWOPI bmc<>+576(SB)
#define ABSMASK bmc<>+608(SB)
#define FOUROVERPI bmc<>+640(SB)
#define ONEI32 bmc<>+672(SB)
#define TWOI64 bmc<>+704(SB)
#define SIGNBIT bmc<>+736(SB)
#define PI4A bmc<>+768(SB)
#define PI4B bmc<>+800(SB)
#define PI4C bmc<>+832(SB)
#define SIN0 bmc<>+864(SB)
#define SIN1 bmc<>+896(SB)
#define SIN2 bmc<>+928(SB)
#define SIN3 bmc<>+960(SB)
#define SIN4 bmc<>+992(SB)
#define SIN5 bmc<>+1024(SB)
#define COS0 bmc<>+1056(SB)
#define COS1 bmc<>+1088(SB)
#define COS2 bmc<>+1120(SB)
#define COS3 bmc<>+1152(SB)
#define COS4 bmc<>+1184(SB)
#define COS5 bmc<>+1216(SB)

// func boxMullerAVX(dst, u1, u2 []float64)
//
// dst[i] = Sqrt(-2*Log(u1[i])) * Cos(2*Pi*u2[i]), four lanes per
// iteration; len(dst) is a multiple of 4 and u1, u2 are at least as
// long. The log half replays math/log_amd64.s and the cos half replays
// math.cos (sin.go) operation for operation: same constants, same
// evaluation order, separate multiply and add (no FMA), and only
// correctly rounded VDIVPD/VSQRTPD beyond that. Every lane therefore
// rounds exactly like the scalar library on the Box–Muller domain,
// u1 in (0,1] and 2*Pi*u2 in [0, 2*Pi] — DESIGN.md §13.
TEXT ·boxMullerAVX(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ u1_base+24(FP), SI
	MOVQ u2_base+48(FP), DX
	SHRQ $2, CX
	JZ   bmdone

bmloop:
	// ln u1. f1, k := Frexp(x) through bit masks; k converts from the
	// integer exponent field by the 2^52 trick, (2^52 | e) - 2^52 = e.
	VMOVUPD (SI), Y0
	VANDPD  MANT, Y0, Y2
	VORPD   HALF, Y2, Y2     // f1
	VPSRLQ  $52, Y0, Y1
	VPAND   EXPMASK, Y1, Y1
	VPOR    TWO52, Y1, Y1
	VSUBPD  TWO52, Y1, Y1
	VSUBPD  BIAS, Y1, Y1     // k
	// if f1 <= HSqrt2 { k -= 1; f1 *= 2 }: the CMPSD-NLT of the library
	// as a compare mask, and the same 0-or-1 / 1-or-2 arithmetic.
	VCMPPD  $2, HSQRT2, Y2, Y3
	VANDPD  ONE, Y3, Y3
	VSUBPD  Y3, Y1, Y1
	VADDPD  ONE, Y3, Y3
	VMULPD  Y3, Y2, Y2
	VSUBPD  ONE, Y2, Y2      // f
	// s := f / (2 + f); s2 := s*s; s4 := s2*s2
	VADDPD  TWO, Y2, Y3
	VDIVPD  Y3, Y2, Y3       // s
	VMULPD  Y3, Y3, Y4       // s2
	VMULPD  Y4, Y4, Y5       // s4
	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD  L7, Y5, Y6
	VADDPD  L5, Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  L3, Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  L1, Y6, Y6
	VMULPD  Y6, Y4, Y4       // t1
	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	VMULPD  L6, Y5, Y6
	VADDPD  L4, Y6, Y6
	VMULPD  Y5, Y6, Y6
	VADDPD  L2, Y6, Y6
	VMULPD  Y6, Y5, Y5       // t2
	VADDPD  Y5, Y4, Y4       // R := t1 + t2
	// hfsq := 0.5 * f * f
	VMULPD  HALF, Y2, Y0
	VMULPD  Y2, Y0, Y0
	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD  Y0, Y4, Y4
	VMULPD  Y4, Y3, Y3
	VMULPD  LN2LO, Y1, Y4
	VADDPD  Y4, Y3, Y3
	VSUBPD  Y3, Y0, Y0
	VSUBPD  Y2, Y0, Y0
	VMULPD  LN2HI, Y1, Y1
	VSUBPD  Y0, Y1, Y1       // ln u1
	VMULPD  NEG2, Y1, Y1
	VSQRTPD Y1, Y1           // r := Sqrt(-2*ln u1)

	// cos(x), x := 2*Pi*u2.
	VMOVUPD (DX), Y2
	VMULPD  TWOPI, Y2, Y2
	VANDPD  ABSMASK, Y2, Y2  // x = Abs(x)
	// j := uint64(x * (4/Pi)); if j&1 == 1 { j++ }; y := float64(j)
	VMULPD      FOUROVERPI, Y2, Y3
	VCVTTPD2DQY Y3, X3
	VPAND       ONEI32, X3, X4
	VPADDD      X4, X3, X3
	VCVTDQ2PD   X3, Y4       // y
	// Octant j&7 ∈ {0,2,4,6}: bit 1 selects the sin polynomial, bit 2
	// of j+2 is the library's sign flag (set for octants 2 and 4).
	VPMOVZXDQ X3, Y5
	VPSLLQ    $62, Y5, Y6    // sin-select mask in each lane's top bit
	VPADDQ    TWOI64, Y5, Y7
	VPSLLQ    $61, Y7, Y7
	VPAND     SIGNBIT, Y7, Y7
	// z := ((x - y*PI4A) - y*PI4B) - y*PI4C
	VMULPD PI4A, Y4, Y8
	VSUBPD Y8, Y2, Y2
	VMULPD PI4B, Y4, Y8
	VSUBPD Y8, Y2, Y2
	VMULPD PI4C, Y4, Y8
	VSUBPD Y8, Y2, Y2        // z
	VMULPD Y2, Y2, Y8        // zz
	// sin: z + z*zz*((((((_sin[0]*zz)+_sin[1])*zz+_sin[2])*zz+_sin[3])*zz+_sin[4])*zz+_sin[5])
	VMULPD SIN0, Y8, Y9
	VADDPD SIN1, Y9, Y9
	VMULPD Y8, Y9, Y9
	VADDPD SIN2, Y9, Y9
	VMULPD Y8, Y9, Y9
	VADDPD SIN3, Y9, Y9
	VMULPD Y8, Y9, Y9
	VADDPD SIN4, Y9, Y9
	VMULPD Y8, Y9, Y9
	VADDPD SIN5, Y9, Y9
	VMULPD Y8, Y2, Y10
	VMULPD Y9, Y10, Y10
	VADDPD Y10, Y2, Y10
	// cos: 1.0 - 0.5*zz + zz*zz*((((((_cos[0]*zz)+_cos[1])*zz+_cos[2])*zz+_cos[3])*zz+_cos[4])*zz+_cos[5])
	VMULPD  COS0, Y8, Y9
	VADDPD  COS1, Y9, Y9
	VMULPD  Y8, Y9, Y9
	VADDPD  COS2, Y9, Y9
	VMULPD  Y8, Y9, Y9
	VADDPD  COS3, Y9, Y9
	VMULPD  Y8, Y9, Y9
	VADDPD  COS4, Y9, Y9
	VMULPD  Y8, Y9, Y9
	VADDPD  COS5, Y9, Y9
	VMULPD  Y8, Y8, Y11
	VMULPD  Y9, Y11, Y11
	VMULPD  HALF, Y8, Y12
	VMOVUPD ONE, Y13
	VSUBPD  Y12, Y13, Y12
	VADDPD  Y11, Y12, Y12
	VBLENDVPD Y6, Y10, Y12, Y12
	VXORPD  Y7, Y12, Y12     // if sign { y = -y }

	VMULPD  Y12, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     bmloop

bmdone:
	VZEROUPPER
	RET
