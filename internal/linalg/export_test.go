package linalg

// ReferenceQR exposes referenceQR to the external test package, whose
// tests may import packages built on linalg.
var ReferenceQR = referenceQR
