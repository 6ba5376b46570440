#include "textflag.h"

// func rankOneScaleAVX(data []float64, b []float64, a, c float64)
//
// For each row i and j ≥ i: data[i*n+j] = c * (data[i*n+j] + a*(b[i]*b[j])),
// with n = len(b). Each lane takes the Go loop's operations in its order,
// VMULPD, VMULPD, VADDPD, VMULPD, and no FMA, so every entry rounds as
// rankOneScaleGo rounds it.
TEXT ·rankOneScaleAVX(SB), NOSPLIT, $0-64
	MOVQ data_base+0(FP), DI  // &data[i*n+i], the row's first entry
	MOVQ b_base+24(FP), SI    // &b[i]
	MOVQ b_len+32(FP), CX     // n−i, the entries left in the row
	VBROADCASTSD a+48(FP), Y0
	VBROADCASTSD c+56(FP), Y1
	LEAQ 8(CX*8), R8          // (n+1)·8: from one diagonal entry to the next

row:
	TESTQ CX, CX
	JZ    done
	VBROADCASTSD (SI), Y2     // b[i]
	MOVQ  DI, AX              // &data[i*n+j]
	MOVQ  SI, BX              // &b[j]
	MOVQ  CX, DX              // entries left from j on
	CMPQ  DX, $4
	JB    tail

quad:
	VMULPD  (BX), Y2, Y3      // b[i]*b[j]
	VMULPD  Y3, Y0, Y3        // a*(b[i]*b[j])
	VADDPD  (AX), Y3, Y3      // data + a*(b[i]*b[j])
	VMULPD  Y3, Y1, Y3        // c*(...)
	VMOVUPD Y3, (AX)
	ADDQ    $32, AX
	ADDQ    $32, BX
	SUBQ    $4, DX
	CMPQ    DX, $4
	JAE     quad

tail:
	TESTQ DX, DX
	JZ    next

one:
	VMOVSD (BX), X3
	VMULSD X3, X2, X3
	VMULSD X3, X0, X3
	VADDSD (AX), X3, X3
	VMULSD X3, X1, X3
	VMOVSD X3, (AX)
	ADDQ   $8, AX
	ADDQ   $8, BX
	DECQ   DX
	JNZ    one

next:
	ADDQ R8, DI
	ADDQ $8, SI
	DECQ CX
	JMP  row

done:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
