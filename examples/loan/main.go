// Loan application pricing (§IV-B): a financial institution quotes
// interest rates for loan applications. The borrower's acceptable rate is
// a hidden log-log function of her credit features; funding costs impose
// a floor (reserve) on the quoted rate. The institution learns the
// market's rate curve online with the reserve-constrained mechanism.
package main

import (
	"fmt"
	"math"

	"datamarket"
	"datamarket/internal/randx"
)

func main() {
	const (
		n    = 6 // credit features: score, income, debt ratio, history, ...
		T    = 15000
		seed = 19
	)

	// Hidden elasticity vector of the log-log rate model:
	// log(rate) = Σ log(xᵢ)·θᵢ*. Negative weights mean better credit
	// commands lower acceptable rates.
	rng := randx.New(seed)
	theta := datamarket.Vector{-0.45, -0.3, 0.4, -0.2, 0.15, 0.1}

	mech, err := datamarket.NewNonlinearMechanism(datamarket.LogLogModel(), n,
		theta.Norm2()*2,
		datamarket.WithReserve(),
		datamarket.WithThreshold(0.01))
	if err != nil {
		panic(err)
	}
	model := datamarket.LogLogModel()

	tracker := datamarket.NewTracker()
	var funded, declinedByBank int
	for t := 1; t <= T; t++ {
		// Application features, all positive (required by the log map):
		// normalized credit score, income, debt ratio, history length,
		// loan size, term.
		x := datamarket.Vector{
			rng.Uniform(0.4, 1.0), // credit score
			rng.Uniform(0.3, 2.0), // income multiple
			rng.Uniform(0.1, 0.9), // debt-to-income
			rng.Uniform(0.2, 1.5), // credit history years (scaled)
			rng.Uniform(0.5, 2.0), // loan size multiple
			rng.Uniform(0.5, 1.5), // term multiple
		}
		// The borrower's maximum acceptable rate (the "market value" of
		// the loan to the institution).
		maxRate := model.Value(x, theta)
		// The institution's funding-cost floor: a fraction of that rate,
		// unknown to be below or above it in any given application.
		floor := 0.6 * maxRate * rng.Uniform(0.8, 1.4)

		q, accepted, err := datamarket.PriceRound(mech, tracker, x, floor, maxRate)
		if err != nil {
			panic(err)
		}
		switch {
		case q.Decision == datamarket.DecisionSkip:
			// Funding cost exceeds any acceptable rate: decline upfront.
			declinedByBank++
		case accepted:
			funded++
		}

		if t == 100 || t == 1000 || t == T {
			fmt.Printf("after %6d applications: regret ratio %6.2f%%\n",
				t, 100*tracker.RegretRatio())
		}
	}

	fmt.Printf("\nfunded %d loans, declined %d at the funding-cost floor (of %d)\n",
		funded, declinedByBank, T)
	fmt.Printf("interest income (rate-units): %.1f\n", tracker.CumulativeRevenue())
	fmt.Printf("regret vs a clairvoyant rate desk: %.1f (%.2f%%)\n",
		tracker.CumulativeRegret(), 100*tracker.RegretRatio())
	// The learned elasticities can be read back from the knowledge set.
	phi, err := model.Map.Map(datamarket.Vector{0.7, 1, 0.4, 0.8, 1, 1})
	if err != nil {
		panic(err)
	}
	lo, hi := mech.Inner().ValueBounds(phi)
	fmt.Printf("typical application's log-rate bracket: [%.3f, %.3f] (truth %.3f)\n",
		lo, hi, math.Log(model.Value(datamarket.Vector{0.7, 1, 0.4, 0.8, 1, 1}, theta)))
}
