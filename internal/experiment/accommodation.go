package experiment

import (
	"fmt"
	"math"

	"datamarket/internal/dataset"
	"datamarket/internal/feature"
	"datamarket/internal/learn"
	"datamarket/internal/linalg"
	"datamarket/internal/pricing"
)

// AccommodationConfig parameterizes Application 2 (§V-B): pricing
// accommodation rentals under the log-linear market value model over an
// Airbnb-style listing table.
type AccommodationConfig struct {
	// Listings is the table size (the paper's is 74,111).
	Listings int
	// LogReserveRatio is log(q)/log(v): 0 disables the reserve (pure
	// version); the paper sweeps {0.4, 0.6, 0.8}.
	LogReserveRatio float64
	// RiskAverse replaces the mechanism with the always-post-reserve
	// baseline (requires LogReserveRatio > 0).
	RiskAverse bool
	// Threshold overrides the exploration threshold ε in log-price space;
	// 0 means the Theorem 1 schedule n²/T (appropriate at the paper's
	// T = 74,111, loose at small T).
	Threshold float64
	// Seed drives generation and the stream order.
	Seed uint64
	// Checkpoints are the sampling rounds (empty = log-spaced default).
	Checkpoints []int
}

// AccommodationResult extends Series with the offline fit quality.
type AccommodationResult struct {
	Series
	// TestMSE is the held-out MSE of the OLS refit (paper: 0.226).
	TestMSE float64
	// FeatureDim is the model dimension (55 listing features + bias).
	FeatureDim int
}

// RunAccommodationApp reproduces one curve of Fig. 5(b): generate
// listings, re-learn the hedonic coefficients with OLS exactly as the
// paper does, then price the stream online under the log-linear model.
func RunAccommodationApp(cfg AccommodationConfig) (*AccommodationResult, error) {
	if cfg.Listings < 100 {
		return nil, fmt.Errorf("experiment: need ≥ 100 listings, got %d", cfg.Listings)
	}
	if cfg.LogReserveRatio < 0 || cfg.LogReserveRatio >= 1 {
		return nil, fmt.Errorf("experiment: LogReserveRatio %g out of [0, 1)", cfg.LogReserveRatio)
	}
	if cfg.RiskAverse && cfg.LogReserveRatio == 0 {
		return nil, fmt.Errorf("experiment: risk-averse baseline needs a reserve ratio")
	}
	if cfg.Threshold < 0 {
		return nil, fmt.Errorf("experiment: negative Threshold %g", cfg.Threshold)
	}
	fit, err := FitHedonic(cfg.Listings, cfg.Seed, 1)
	if err != nil {
		return nil, err
	}
	rows, dim, theta := fit.Rows, fit.Dim, fit.Coef

	// Online pricing of the full stream under the log-linear model.
	T := len(rows)
	var mech pricing.FamilyPoster // nil runs the risk-averse baseline
	label := "Pure Version"
	if cfg.RiskAverse {
		label = fmt.Sprintf("Risk-Averse Baseline (ratio %.1f)", cfg.LogReserveRatio)
	} else {
		if cfg.LogReserveRatio > 0 {
			label = fmt.Sprintf("With Reserve Price (ratio %.1f)", cfg.LogReserveRatio)
		}
		mech, err = pricing.NewFamilyPoster(pricing.FamilySpec{
			Family: pricing.FamilyNonlinear, Dim: dim, Radius: theta.Norm2() * 1.5,
			Reserve: cfg.LogReserveRatio > 0, Threshold: cfg.Threshold, Horizon: T,
			Model: pricing.ModelConfig{Link: "exp"},
		})
		if err != nil {
			return nil, err
		}
	}
	s, err := runCurve(label, dim, T, cfg.Checkpoints, mech,
		func(t int) (linalg.Vector, float64, float64, error) {
			x := rows[t-1]
			logV := x.Dot(theta)
			reserve := math.Inf(-1)
			if cfg.LogReserveRatio > 0 {
				reserve = math.Exp(cfg.LogReserveRatio * logV)
			}
			return x, reserve, math.Exp(logV), nil
		})
	if err != nil {
		return nil, err
	}
	return &AccommodationResult{Series: *s, TestMSE: fit.TestMSE, FeatureDim: dim}, nil
}

// HedonicFit is Application 2's offline step: every listing's feature
// row and the hedonic log-price model refit on them.
type HedonicFit struct {
	// Rows holds each listing's standardized features followed by a
	// bias entry of 1, in table order; Dim is their length.
	Rows []linalg.Vector
	Dim  int
	// Coef is the OLS coefficient vector θ over [features, bias].
	Coef linalg.Vector
	// TestMSE is the fit's mean squared error on the held-out fifth.
	TestMSE float64
}

// FitHedonic re-learns the hedonic coefficients with OLS exactly as the
// paper does: generate count listings from seed, featurize them,
// standardize each column (which keeps the norms of the ellipsoid's
// probes moderate), append a bias feature so the intercept is part of
// θ*, and fit on an 80/20 split with a 1e-8 ridge for the collinear
// one-hots. splitPhase chooses the held-out fifth, as
// learn.TrainTestSplit's phase.
func FitHedonic(count int, seed uint64, splitPhase int) (*HedonicFit, error) {
	listings, _, _, err := dataset.GenerateListings(dataset.AirbnbConfig{
		Count: count, Seed: seed, NoiseStd: 0.475,
	})
	if err != nil {
		return nil, err
	}
	raw := make([]linalg.Vector, len(listings))
	y := make(linalg.Vector, len(listings))
	for i := range listings {
		x, err := dataset.FeaturizeListing(&listings[i])
		if err != nil {
			return nil, err
		}
		raw[i] = x
		y[i] = listings[i].LogPrice
	}
	std, err := feature.FitStandardizer(raw)
	if err != nil {
		return nil, err
	}
	dim := dataset.AirbnbFeatureDim + 1
	rows := make([]linalg.Vector, len(raw))
	for i, x := range raw {
		z, err := std.Transform(x)
		if err != nil {
			return nil, err
		}
		row := make(linalg.Vector, dim)
		copy(row, z)
		row[dim-1] = 1
		rows[i] = row
	}
	trainIdx, testIdx, err := learn.TrainTestSplit(len(rows), 5, splitPhase)
	if err != nil {
		return nil, err
	}
	subset := func(idx []int) ([]linalg.Vector, linalg.Vector) {
		xs := make([]linalg.Vector, len(idx))
		ys := make(linalg.Vector, len(idx))
		for k, i := range idx {
			xs[k], ys[k] = rows[i], y[i]
		}
		return xs, ys
	}
	trX, trY := subset(trainIdx)
	model, err := learn.FitLinear(trX, trY, learn.FitOptions{Ridge: 1e-8})
	if err != nil {
		return nil, err
	}
	teX, teY := subset(testIdx)
	mse, err := model.MSE(teX, teY)
	if err != nil {
		return nil, err
	}
	return &HedonicFit{Rows: rows, Dim: dim, Coef: model.Coef, TestMSE: mse}, nil
}

// Fig5bCells runs the Fig. 5(b) sweep: pure version plus reserve ratios
// {0.4, 0.6, 0.8}, each with its risk-averse counterpart.
func Fig5bCells(listings int, seed uint64) ([]*AccommodationResult, error) {
	var out []*AccommodationResult
	run := func(ratio float64, riskAverse bool) error {
		r, err := RunAccommodationApp(AccommodationConfig{
			Listings: listings, LogReserveRatio: ratio, RiskAverse: riskAverse, Seed: seed,
		})
		if err != nil {
			return err
		}
		out = append(out, r)
		return nil
	}
	if err := run(0, false); err != nil {
		return nil, err
	}
	for _, ratio := range []float64{0.4, 0.6, 0.8} {
		if err := run(ratio, false); err != nil {
			return nil, err
		}
		if err := run(ratio, true); err != nil {
			return nil, err
		}
	}
	return out, nil
}
