package experiment

import (
	"fmt"
	"math"

	"datamarket/internal/dataset"
	"datamarket/internal/feature"
	"datamarket/internal/linalg"
	"datamarket/internal/pricing"
)

// ImpressionConfig parameterizes Application 3 (§V-C): pricing ad
// impressions by click-through rate under the logistic model over an
// Avazu-style click log.
type ImpressionConfig struct {
	// HashDim is the one-hot hashing dimension (128 or 1024 in Fig. 5(c)).
	HashDim int
	// T is the number of priced impressions.
	T int
	// FitRounds is the number of impressions used for the FTRL refit that
	// produces θ*; 0 means 40,000.
	FitRounds int
	// Dense prices over only the coordinates with nonzero learned weight
	// (the paper's "dense case"); otherwise the full hashed vector is
	// used (the "sparse case").
	Dense bool
	// Threshold overrides the exploration threshold ε in score space; the
	// Theorem 1 schedule n²/T is vacuous at n = 1024, so Fig. 5(c) runs
	// use a practical default of 0.05 when this is 0.
	Threshold float64
	// Seed drives everything.
	Seed uint64
	// Checkpoints are the sampling rounds (empty = log-spaced default).
	Checkpoints []int
}

// ImpressionResult extends Series with the offline fit statistics.
type ImpressionResult struct {
	Series
	// FitLogLoss is the FTRL training loss (paper: 0.420/0.406).
	FitLogLoss float64
	// NonzeroWeights is the learned sparsity (paper: 21/23).
	NonzeroWeights int
	// PricedDim is the dimension the mechanism actually runs at (HashDim
	// in the sparse case; NonzeroWeights in the dense case).
	PricedDim int
}

// RunImpressionApp reproduces one curve of Fig. 5(c): fit θ* with
// FTRL-Proximal on the stream, then price impressions online with the
// pure (no reserve) mechanism under the logistic model, in the sparse or
// dense representation.
func RunImpressionApp(cfg ImpressionConfig) (*ImpressionResult, error) {
	if cfg.HashDim < 2 {
		return nil, fmt.Errorf("experiment: HashDim must be ≥ 2, got %d", cfg.HashDim)
	}
	if cfg.T < 1 {
		return nil, fmt.Errorf("experiment: T must be ≥ 1, got %d", cfg.T)
	}
	if cfg.Threshold < 0 {
		return nil, fmt.Errorf("experiment: negative Threshold %g", cfg.Threshold)
	}
	actives := 21
	if cfg.HashDim >= 1024 {
		actives = 23
	}
	stream, err := dataset.NewAvazuStream(dataset.AvazuConfig{
		HashDim: cfg.HashDim, ActiveWeights: actives, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	fitRounds := cfg.FitRounds
	if fitRounds == 0 {
		fitRounds = 40000
	}
	// L1 must scale with the √(per-coordinate hit count) growth of FTRL's
	// z accumulators to keep the learned vector at the paper's sparsity
	// (~21–23 nonzeros): each coordinate is hit ≈ fitRounds·|fields|/n
	// times, and the calibration point is 90 at ≈ 4060 hits (n = 128,
	// 40k rounds).
	hits := float64(fitRounds) * float64(len(dataset.AvazuFields)) / float64(cfg.HashDim)
	l1 := 90 * math.Sqrt(hits/4060)
	theta, fitLoss, err := dataset.FitFTRLOnStream(stream, fitRounds, 0.1, l1)
	if err != nil {
		return nil, err
	}
	nz := feature.NonzeroIndices(theta, 0)

	// Build the priced representation.
	pricedDim := cfg.HashDim
	priceTheta := theta
	project := func(x linalg.Vector) (linalg.Vector, error) { return x, nil }
	label := fmt.Sprintf("Sparse (n=%d)", cfg.HashDim)
	if cfg.Dense {
		if len(nz) < 1 {
			return nil, fmt.Errorf("experiment: dense case impossible, no nonzero weights")
		}
		pricedDim = len(nz)
		pt, err := feature.Project(theta, nz)
		if err != nil {
			return nil, err
		}
		priceTheta = pt
		project = func(x linalg.Vector) (linalg.Vector, error) { return feature.Project(x, nz) }
		label = fmt.Sprintf("Dense (n=%d)", cfg.HashDim)
	}

	eps := cfg.Threshold
	if eps == 0 {
		eps = 0.05
	}
	nm, err := pricing.NewFamilyPoster(pricing.FamilySpec{
		Family: pricing.FamilyNonlinear, Dim: pricedDim,
		Radius: float64(priceTheta.Norm2()*1.5) + 1, Threshold: eps,
		Model: pricing.ModelConfig{Link: "logistic"},
	})
	if err != nil {
		return nil, err
	}
	logistic := pricing.LogisticModel()
	s, err := runCurve(label, pricedDim, cfg.T, cfg.Checkpoints, nm,
		func(int) (linalg.Vector, float64, float64, error) {
			_, xFull := stream.Next()
			x, err := project(xFull)
			if err != nil {
				return nil, 0, 0, err
			}
			// The market value of an impression is its CTR under the
			// learned model (§V-C): the adversary prices what the model
			// believes.
			return x, 0, logistic.Value(x, priceTheta), nil
		})
	if err != nil {
		return nil, err
	}
	return &ImpressionResult{
		Series:         *s,
		FitLogLoss:     fitLoss,
		NonzeroWeights: len(nz),
		PricedDim:      pricedDim,
	}, nil
}

// Fig5cCells runs the four Fig. 5(c) curves: n ∈ {128, 1024} × {sparse,
// dense}. T applies to each curve.
func Fig5cCells(T int, seed uint64) ([]*ImpressionResult, error) {
	var out []*ImpressionResult
	for _, n := range []int{128, 1024} {
		for _, dense := range []bool{false, true} {
			r, err := RunImpressionApp(ImpressionConfig{
				HashDim: n, T: T, Dense: dense, Seed: seed,
			})
			if err != nil {
				return nil, fmt.Errorf("experiment: Fig5c n=%d dense=%v: %w", n, dense, err)
			}
			out = append(out, r)
		}
	}
	return out, nil
}
