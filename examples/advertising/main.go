// Impression pricing (Application 3, §V-C): a web publisher sells ad
// impressions at posted prices instead of auctions. CTR is learned with
// FTRL-Proximal over hashed one-hot features; the pure ellipsoid
// mechanism then prices impressions under the logistic market value
// model, in the "dense" representation (only coordinates with nonzero
// learned weight), which is the configuration that converges fastest in
// the paper's Fig. 5(c).
package main

import (
	"fmt"

	"datamarket"
	"datamarket/internal/dataset"
	"datamarket/internal/feature"
	"datamarket/internal/linalg"
)

func main() {
	const (
		hashDim   = 128
		fitRounds = 40000
		T         = 20000
		seed      = 17
	)

	// 1. Click log and the offline CTR fit.
	stream, err := dataset.NewAvazuStream(dataset.AvazuConfig{
		HashDim: hashDim, ActiveWeights: 21, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	weights, loss, err := dataset.FitFTRLOnStream(stream, fitRounds, 0.1, 90)
	if err != nil {
		panic(err)
	}
	nz := feature.NonzeroIndices(weights, 0)
	fmt.Printf("FTRL-Proximal fit: logistic loss %.3f, %d/%d nonzero weights (paper: 0.420, ~21)\n",
		loss, len(nz), hashDim)

	// 2. Dense representation: price only the informative coordinates.
	theta, err := feature.Project(weights, nz)
	if err != nil {
		panic(err)
	}
	mech, err := datamarket.NewNonlinearMechanism(datamarket.LogisticModel(), len(nz),
		theta.Norm2()*1.5+1,
		datamarket.WithThreshold(0.05))
	if err != nil {
		panic(err)
	}
	logistic := datamarket.LogisticModel()

	tracker := datamarket.NewTracker()
	var sold int
	for t := 1; t <= T; t++ {
		_, xFull := stream.Next()
		x, err := feature.Project(xFull, nz)
		if err != nil {
			panic(err)
		}
		ctr := logistic.Value(linalg.Vector(x), theta) // the impression's market value
		_, accepted, err := datamarket.PriceRound(mech, tracker, x, 0, ctr)
		if err != nil {
			panic(err)
		}
		if accepted {
			sold++
		}
		if t == 1000 || t == 5000 || t == T {
			fmt.Printf("after %6d impressions: regret ratio %6.2f%%\n", t, 100*tracker.RegretRatio())
		}
	}
	fmt.Printf("\nsold %d/%d impressions; revenue %.1f CTR-units; mean CTR %.3f\n",
		sold, T, tracker.CumulativeRevenue(), tracker.CumulativeValue()/float64(T))
}
