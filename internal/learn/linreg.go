// Package learn provides the offline learners the paper uses to obtain the
// ground-truth market value models from data:
//
//   - ordinary least squares linear regression (§V-B fits the Airbnb
//     log-price hedonic model with it; the paper reports test MSE 0.226);
//   - FTRL-Proximal logistic regression with per-coordinate learning rates
//     and L1/L2 regularization (§V-C fits the Avazu CTR model with it,
//     following McMahan et al., KDD 2013; the paper reports logistic loss
//     0.420/0.406 and ~21–23 nonzero weights).
package learn

import (
	"fmt"
	"math"

	"datamarket/internal/linalg"
)

// LinearRegression is an OLS (optionally ridge-regularized) model fitted
// via Householder QR, with an optional intercept.
type LinearRegression struct {
	// Coef holds the learned coefficients (without the intercept).
	Coef linalg.Vector
	// Intercept is the learned bias term (0 when fitted without one).
	Intercept    float64
	fitIntercept bool
}

// FitOptions configures the linear regression fit.
type FitOptions struct {
	// Intercept adds a bias column to the design matrix.
	Intercept bool
	// Ridge is the L2 penalty λ ≥ 0 on the coefficients (not the
	// intercept); 0 means plain OLS.
	Ridge float64
}

// FitLinear fits y ≈ X·β (+ b) by least squares. rows holds the feature
// vectors; y the targets.
func FitLinear(rows []linalg.Vector, y linalg.Vector, opt FitOptions) (*LinearRegression, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("learn: no rows to fit")
	}
	if len(rows) != len(y) {
		return nil, fmt.Errorf("learn: %d rows for %d targets", len(rows), len(y))
	}
	if opt.Ridge < 0 {
		return nil, fmt.Errorf("learn: negative ridge penalty %g", opt.Ridge)
	}
	d := len(rows[0])
	cols := d
	if opt.Intercept {
		cols++
	}
	if len(rows) < cols && opt.Ridge == 0 {
		return nil, fmt.Errorf("learn: underdetermined system (%d rows, %d params) needs ridge", len(rows), cols)
	}
	// Assemble the (possibly ridge-augmented) design matrix. The ridge
	// rows penalize only the coefficients, never the intercept.
	extra := 0
	if opt.Ridge > 0 {
		extra = d
	}
	a := linalg.NewMatrix(len(rows)+extra, cols)
	b := make(linalg.Vector, len(rows)+extra)
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("learn: ragged rows (%d vs %d)", len(r), d)
		}
		copy(a.Row(i), r)
		if opt.Intercept {
			a.Set(i, cols-1, 1)
		}
		b[i] = y[i]
	}
	if opt.Ridge > 0 {
		s := math.Sqrt(opt.Ridge)
		for j := 0; j < d; j++ {
			a.Set(len(rows)+j, j, s)
		}
	}
	sol, err := linalg.LeastSquares(a, b)
	if err != nil {
		return nil, fmt.Errorf("learn: least squares: %w", err)
	}
	m := &LinearRegression{fitIntercept: opt.Intercept}
	if opt.Intercept {
		m.Coef = sol[:d].Clone()
		m.Intercept = sol[d]
	} else {
		m.Coef = sol.Clone()
	}
	return m, nil
}

// Predict returns x·β + intercept.
func (m *LinearRegression) Predict(x linalg.Vector) (float64, error) {
	if len(x) != len(m.Coef) {
		return 0, fmt.Errorf("learn: predict dim %d, want %d", len(x), len(m.Coef))
	}
	return x.Dot(m.Coef) + m.Intercept, nil
}

// PredictAll evaluates the model over a batch of rows.
func (m *LinearRegression) PredictAll(rows []linalg.Vector) (linalg.Vector, error) {
	out := make(linalg.Vector, len(rows))
	for i, r := range rows {
		p, err := m.Predict(r)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// MSE returns the mean squared error of the model over a labelled batch —
// the metric the paper reports for the Airbnb fit (0.226 on a 20% holdout).
func (m *LinearRegression) MSE(rows []linalg.Vector, y linalg.Vector) (float64, error) {
	if len(rows) != len(y) {
		return 0, fmt.Errorf("learn: %d rows for %d targets", len(rows), len(y))
	}
	if len(rows) == 0 {
		return 0, fmt.Errorf("learn: empty evaluation set")
	}
	var s float64
	for i, r := range rows {
		p, err := m.Predict(r)
		if err != nil {
			return 0, err
		}
		d := p - y[i]
		s += float64(d * d)
	}
	return s / float64(len(rows)), nil
}

// R2 returns the coefficient of determination over a labelled batch.
func (m *LinearRegression) R2(rows []linalg.Vector, y linalg.Vector) (float64, error) {
	mse, err := m.MSE(rows, y)
	if err != nil {
		return 0, err
	}
	var mean float64
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	var tss float64
	for _, v := range y {
		d := v - mean
		tss += float64(d * d)
	}
	if tss == 0 {
		return 0, fmt.Errorf("learn: targets are constant, R² undefined")
	}
	return 1 - mse*float64(len(y))/tss, nil
}

// TrainTestSplit partitions indices [0, n) deterministically: every k-th
// element (offset phase) goes to the test set, yielding a ~1/k holdout.
// The paper holds out 20% of the Airbnb data, i.e. k = 5.
func TrainTestSplit(n, k, phase int) (train, test []int, err error) {
	if n <= 0 || k <= 1 {
		return nil, nil, fmt.Errorf("learn: bad split parameters n=%d k=%d", n, k)
	}
	if phase < 0 {
		phase = 0
	}
	for i := 0; i < n; i++ {
		if (i+phase)%k == 0 {
			test = append(test, i)
		} else {
			train = append(train, i)
		}
	}
	return train, test, nil
}
