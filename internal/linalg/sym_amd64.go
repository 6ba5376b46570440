package linalg

// hasAVX reports whether the CPU has AVX and the OS saves the XMM and YMM
// registers across context switches; probed once, at package init.
var hasAVX = probeAVX()

func probeAVX() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX: XGETBV is enabled
		avx     = 1 << 28 // CPUID.1:ECX: AVX
		xmmYMM  = 1<<1 | 1<<2
	)
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&xmmYMM == xmmYMM
}

// rankOneScale runs the AVX kernel where the probe found AVX, and the Go
// loop otherwise.
func rankOneScale(data []float64, b Vector, a, c float64) {
	if hasAVX {
		rankOneScaleAVX(data, b, a, c)
		return
	}
	rankOneScaleGo(data, b, a, c)
}

// rankOneScaleAVX is rankOneScaleGo in AVX: for each row i it updates the
// entries j ≥ i four lanes at a time, then the last len(b)−i mod 4
// entries one at a time. It checks no bounds: len(data) must be at least
// len(b)².
//
//go:noescape
func rankOneScaleAVX(data []float64, b []float64, a, c float64)

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns XCR0, the OS-enabled register state; callers must first
// check CPUID's OSXSAVE bit.
func xgetbv() (eax, edx uint32)
