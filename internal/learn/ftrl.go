package learn

import (
	"fmt"
	"math"

	"datamarket/internal/linalg"
)

// FTRLProximal is the Follow-The-Regularized-Leader (Proximal) online
// logistic regression of McMahan et al. (KDD 2013), "Ad click prediction:
// a view from the trenches" — the learner Google deployed for CTR
// prediction and the one the paper uses to obtain the Avazu weight vector
// (§V-C). It keeps per-coordinate learning rates and applies L1 and L2
// regularization lazily, which yields genuinely sparse weights.
type FTRLProximal struct {
	// Alpha and Beta set the per-coordinate learning rate
	// η_i = α / (β + √Σ g_i²).
	Alpha, Beta float64
	// L1 and L2 are the regularization strengths; L1 > 0 induces sparsity.
	L1, L2 float64

	z linalg.Vector // per-coordinate "lazy weight" accumulators
	n linalg.Vector // per-coordinate squared-gradient sums
	w linalg.Vector // materialized weights (recomputed on demand)

	samples int
	lossSum float64
}

// FTRLConfig configures NewFTRL.
type FTRLConfig struct {
	Dim   int
	Alpha float64 // learning rate numerator, typical 0.05–0.5
	Beta  float64 // learning rate smoothing, typical 1
	L1    float64 // ≥ 0
	L2    float64 // ≥ 0
}

// NewFTRL validates the configuration and returns a fresh learner.
func NewFTRL(cfg FTRLConfig) (*FTRLProximal, error) {
	if cfg.Dim <= 0 {
		return nil, fmt.Errorf("learn: FTRL dimension must be positive, got %d", cfg.Dim)
	}
	if cfg.Alpha <= 0 || cfg.Beta <= 0 {
		return nil, fmt.Errorf("learn: FTRL alpha and beta must be positive, got %g, %g", cfg.Alpha, cfg.Beta)
	}
	if cfg.L1 < 0 || cfg.L2 < 0 {
		return nil, fmt.Errorf("learn: FTRL penalties must be non-negative, got %g, %g", cfg.L1, cfg.L2)
	}
	return &FTRLProximal{
		Alpha: cfg.Alpha, Beta: cfg.Beta, L1: cfg.L1, L2: cfg.L2,
		z: make(linalg.Vector, cfg.Dim),
		n: make(linalg.Vector, cfg.Dim),
		w: make(linalg.Vector, cfg.Dim),
	}, nil
}

// Dim returns the feature dimension.
func (f *FTRLProximal) Dim() int { return len(f.z) }

// weight materializes the proximal weight for coordinate i:
// w_i = 0 if |z_i| ≤ λ₁, else −(z_i − sign(z_i)λ₁)/((β+√n_i)/α + λ₂).
func (f *FTRLProximal) weight(i int) float64 {
	zi := f.z[i]
	if math.Abs(zi) <= f.L1 {
		return 0
	}
	sign := 1.0
	if zi < 0 {
		sign = -1
	}
	return -(zi - float64(sign*f.L1)) / ((f.Beta+math.Sqrt(f.n[i]))/f.Alpha + f.L2)
}

// Predict returns the click probability sigmoid(w·x) for the current
// weights. Only nonzero feature entries contribute, so sparse inputs are
// cheap.
func (f *FTRLProximal) Predict(x linalg.Vector) (float64, error) {
	if len(x) != len(f.z) {
		return 0, fmt.Errorf("learn: FTRL predict dim %d, want %d", len(x), len(f.z))
	}
	var score float64
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		score += float64(f.weight(i) * xi)
	}
	return sigmoid(score), nil
}

// Update performs one FTRL-Proximal step on example (x, y) with label
// y ∈ {0, 1}, returning the pre-update logistic loss of the example.
func (f *FTRLProximal) Update(x linalg.Vector, y float64) (float64, error) {
	if len(x) != len(f.z) {
		return 0, fmt.Errorf("learn: FTRL update dim %d, want %d", len(x), len(f.z))
	}
	if y != 0 && y != 1 {
		return 0, fmt.Errorf("learn: FTRL label must be 0 or 1, got %g", y)
	}
	// Predict with materialized weights, caching them for the gradient.
	var score float64
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		f.w[i] = f.weight(i)
		score += float64(f.w[i] * xi)
	}
	p := sigmoid(score)
	loss := LogLoss(p, y)

	g := p - y // dLoss/dscore
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		gi := float64(g * xi)
		sigma := (math.Sqrt(f.n[i]+float64(gi*gi)) - math.Sqrt(f.n[i])) / f.Alpha
		f.z[i] += gi - float64(sigma*f.w[i])
		f.n[i] += float64(gi * gi)
	}
	f.samples++
	f.lossSum += loss
	return loss, nil
}

// Weights materializes and returns the full weight vector.
func (f *FTRLProximal) Weights() linalg.Vector {
	out := make(linalg.Vector, len(f.z))
	for i := range out {
		out[i] = f.weight(i)
	}
	return out
}

// NonzeroCount returns the number of nonzero materialized weights — the
// sparsity statistic the paper reports (21 at n=128, 23 at n=1024).
func (f *FTRLProximal) NonzeroCount() int {
	var c int
	for i := range f.z {
		if f.weight(i) != 0 {
			c++
		}
	}
	return c
}

// Samples returns the number of training examples consumed.
func (f *FTRLProximal) Samples() int { return f.samples }

// AverageLoss returns the progressive (online) average logistic loss.
func (f *FTRLProximal) AverageLoss() float64 {
	if f.samples == 0 {
		return 0
	}
	return f.lossSum / float64(f.samples)
}

// EvaluateLogLoss computes the mean logistic loss of the current weights
// over a labelled batch (the paper's held-out "last two days" metric).
func (f *FTRLProximal) EvaluateLogLoss(rows []linalg.Vector, labels linalg.Vector) (float64, error) {
	if len(rows) != len(labels) {
		return 0, fmt.Errorf("learn: %d rows for %d labels", len(rows), len(labels))
	}
	if len(rows) == 0 {
		return 0, fmt.Errorf("learn: empty evaluation set")
	}
	var s float64
	for i, r := range rows {
		p, err := f.Predict(r)
		if err != nil {
			return 0, err
		}
		s += LogLoss(p, labels[i])
	}
	return s / float64(len(rows)), nil
}

// sigmoid is the logistic function with clamping against overflow.
func sigmoid(z float64) float64 {
	if z > 35 {
		return 1
	}
	if z < -35 {
		return 0
	}
	return 1 / (1 + math.Exp(-z))
}

// LogLoss returns the logistic loss −y·log p − (1−y)·log(1−p), with p
// clamped away from {0, 1} for numerical safety.
func LogLoss(p, y float64) float64 {
	const eps = 1e-12
	if p < eps {
		p = eps
	}
	if p > 1-eps {
		p = 1 - eps
	}
	return float64(-y*math.Log(p)) - float64((1-y)*math.Log(1-p))
}

// Accuracy returns the fraction of examples whose thresholded prediction
// (p ≥ 0.5) matches the label.
func Accuracy(preds, labels linalg.Vector) (float64, error) {
	if len(preds) != len(labels) {
		return 0, fmt.Errorf("learn: %d predictions for %d labels", len(preds), len(labels))
	}
	if len(preds) == 0 {
		return 0, fmt.Errorf("learn: empty evaluation set")
	}
	var c int
	for i, p := range preds {
		pred := 0.0
		if p >= 0.5 {
			pred = 1
		}
		if pred == labels[i] {
			c++
		}
	}
	return float64(c) / float64(len(preds)), nil
}
