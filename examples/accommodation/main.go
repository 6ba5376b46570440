// Accommodation rental pricing (Application 2, §V-B): a booking platform
// re-learns a hedonic log-linear price model from historical listings with
// OLS, then prices incoming listings online. Hosts set reserve prices;
// the platform's regret is compared against the risk-averse strategy of
// always posting the host's reserve.
package main

import (
	"fmt"
	"math"

	"datamarket"
	"datamarket/internal/dataset"
	"datamarket/internal/feature"
	"datamarket/internal/learn"
	"datamarket/internal/linalg"
)

func main() {
	const (
		listings = 74111 // the paper's table size
		ratio    = 0.6   // log(reserve)/log(value), as in Fig. 5(b)
		seed     = 13
	)

	// 1. Historical listings and the offline hedonic fit.
	ls, _, _, err := dataset.GenerateListings(dataset.AirbnbConfig{
		Count: listings, Seed: seed, NoiseStd: 0.475,
	})
	if err != nil {
		panic(err)
	}
	raw := make([]linalg.Vector, len(ls))
	y := make(linalg.Vector, len(ls))
	for i := range ls {
		x, err := dataset.FeaturizeListing(&ls[i])
		if err != nil {
			panic(err)
		}
		raw[i] = x
		y[i] = ls[i].LogPrice
	}
	std, err := feature.FitStandardizer(raw)
	if err != nil {
		panic(err)
	}
	dim := dataset.AirbnbFeatureDim + 1
	rows := make([]linalg.Vector, len(raw))
	for i, x := range raw {
		z, err := std.Transform(x)
		if err != nil {
			panic(err)
		}
		row := make(linalg.Vector, dim)
		copy(row, z)
		row[dim-1] = 1
		rows[i] = row
	}
	trainIdx, testIdx, err := learn.TrainTestSplit(len(rows), 5, 0)
	if err != nil {
		panic(err)
	}
	trX, trY := subset(rows, y, trainIdx)
	model, err := learn.FitLinear(trX, trY, learn.FitOptions{Ridge: 1e-8})
	if err != nil {
		panic(err)
	}
	teX, teY := subset(rows, y, testIdx)
	mse, err := model.MSE(teX, teY)
	if err != nil {
		panic(err)
	}
	fmt.Printf("hedonic OLS fit over %d features: test MSE %.3f (paper: 0.226)\n", dim, mse)

	// 2. Online pricing under the log-linear model vs the baseline.
	theta := model.Coef
	mech, err := datamarket.NewNonlinearMechanism(datamarket.LogLinearModel(), dim,
		theta.Norm2()*1.5,
		datamarket.WithReserve(), datamarket.WithThreshold(0.1))
	if err != nil {
		panic(err)
	}
	baseline := datamarket.NewRiskAverse()

	trMech := datamarket.NewTracker()
	trBase := datamarket.NewTracker()
	for _, x := range rows {
		logV := x.Dot(theta)
		v := math.Exp(logV)
		reserve := math.Exp(ratio * logV)

		if _, _, err := datamarket.PriceRound(mech, trMech, x, reserve, v); err != nil {
			panic(err)
		}
		if _, _, err := datamarket.PriceRound(baseline, trBase, x, reserve, v); err != nil {
			panic(err)
		}
	}

	fmt.Printf("\nonline pricing of %d rentals (reserve ratio %.1f):\n", listings, ratio)
	fmt.Printf("  ellipsoid mechanism: regret ratio %6.2f%%, revenue %12.0f\n",
		100*trMech.RegretRatio(), trMech.CumulativeRevenue())
	fmt.Printf("  risk-averse host:    regret ratio %6.2f%%, revenue %12.0f\n",
		100*trBase.RegretRatio(), trBase.CumulativeRevenue())
	fmt.Println("\nthe learning platform leaves far less of the market value on the table.")
}

func subset(rows []linalg.Vector, y linalg.Vector, idx []int) ([]linalg.Vector, linalg.Vector) {
	xs := make([]linalg.Vector, len(idx))
	ys := make(linalg.Vector, len(idx))
	for k, i := range idx {
		xs[k] = rows[i]
		ys[k] = y[i]
	}
	return xs, ys
}
