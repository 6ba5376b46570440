// Personal data market (Application 1, §V-A): a broker holds MovieLens-
// style user data, consumers issue noisy linear queries, privacy leakage
// is quantified with differential privacy, owners are compensated through
// tanh contracts, and the total compensation becomes each query's reserve
// price. The broker prices the stream with the ellipsoid mechanism.
package main

import (
	"fmt"
	"math"

	"datamarket"
	"datamarket/internal/dataset"
	"datamarket/internal/linalg"
	"datamarket/internal/market"
	"datamarket/internal/privacy"
	"datamarket/internal/randx"
)

func main() {
	const (
		ownerCount = 300
		n          = 20 // compensation aggregation dimension
		T          = 8000
		seed       = 11
	)

	// 1. Data owners: synthetic MovieLens users; the owner's value is her
	// mean rating, the sensitivity is the rating scale span.
	ratings, err := dataset.GenerateRatings(dataset.MovieLensConfig{
		Users: ownerCount, Movies: 1000, RatingsPerUser: 25, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	profiles := dataset.UserProfiles(ratings)
	values, ranges := dataset.OwnerValues(profiles)
	contract, err := privacy.NewTanhContract(1, 1)
	if err != nil {
		panic(err)
	}
	owners := make([]datamarket.Owner, len(profiles))
	for i := range owners {
		owners[i] = datamarket.Owner{
			ID: int(profiles[i].UserID), Value: values[i], Range: ranges[i], Contract: contract,
		}
	}
	fmt.Printf("market with %d data owners (mean rating %.2f)\n", len(owners), linalg.Vector(values).Sum()/float64(len(values)))

	// 2. The broker's pricing mechanism: Algorithm 1 (with reserve).
	mech, err := datamarket.NewMechanism(n, 2*math.Sqrt(float64(n)),
		datamarket.WithReserve(),
		datamarket.WithThreshold(datamarket.DefaultThreshold(n, T, 0)))
	if err != nil {
		panic(err)
	}
	broker, err := datamarket.NewBroker(datamarket.BrokerConfig{
		Owners: owners, Mechanism: datamarket.NewSyncPoster(mech), FeatureDim: n, Seed: seed,
	})
	if err != nil {
		panic(err)
	}

	// 3. The consumer stream: customized noisy linear queries whose
	// hidden valuations follow the linear market value model.
	setup := randx.NewStream(seed, 5)
	theta := setup.NormalVector(n, 1)
	for i := range theta {
		theta[i] = math.Abs(theta[i])
	}
	theta.Normalize()
	theta.Scale(math.Sqrt(2 * float64(n)))
	consumers, err := market.NewConsumerModel(market.ConsumerConfig{
		Owners: brokerOwners(owners), FeatureDim: n, Theta: theta,
	})
	if err != nil {
		panic(err)
	}

	// 4. Trade.
	rng := randx.NewStream(seed, 6)
	for t := 1; t <= T; t++ {
		q, err := consumers.NextQuery(rng)
		if err != nil {
			panic(err)
		}
		tx, err := broker.Trade(q)
		if err != nil {
			panic(err)
		}
		if t <= 3 {
			fmt.Printf("round %d: posted %.3f against reserve %.3f (%s, sold=%v)\n",
				t, tx.Posted, tx.Reserve, tx.Decision, tx.Sold)
		}
	}

	stats := broker.Stats()
	fmt.Printf("\nafter %d rounds:\n", T)
	fmt.Printf("  revenue   %10.2f\n", broker.TotalRevenue())
	fmt.Printf("  profit    %10.2f (never negative: the reserve covers compensation)\n", broker.TotalProfit())
	fmt.Printf("  regret    %10.2f (ratio %.2f%%)\n", stats.CumulativeRegret, 100*stats.RegretRatio)
	payout, err := broker.OwnerPayout(0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("  owner %d has been compensated %.4f in total\n", owners[0].ID, payout)
}

// brokerOwners adapts the facade owner type to the market package type
// (they are aliases; this keeps the example explicit about it).
func brokerOwners(o []datamarket.Owner) []market.Owner { return o }
