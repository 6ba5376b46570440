//go:build !amd64

package linalg

// rankOneScale runs the Go loop: only amd64 has an assembly kernel.
func rankOneScale(data []float64, b Vector, a, c float64) {
	rankOneScaleGo(data, b, a, c)
}
