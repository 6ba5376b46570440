// Command marketsim runs an end-to-end personal data market simulation
// (Fig. 2 of the paper): synthetic MovieLens-style data owners, a broker
// pricing noisy linear queries with the reserve-constrained ellipsoid
// mechanism, and a stream of data consumers. It prints the market summary
// and a transaction sample.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"datamarket/internal/dataset"
	"datamarket/internal/histo"
	"datamarket/internal/linalg"
	"datamarket/internal/market"
	"datamarket/internal/pricing"
	"datamarket/internal/privacy"
	"datamarket/internal/randx"
)

func main() {
	var (
		owners  = flag.Int("owners", 200, "number of data owners")
		dim     = flag.Int("dim", 20, "feature dimension n")
		rounds  = flag.Int("rounds", 5000, "number of query rounds")
		seed    = flag.Uint64("seed", 1, "simulation seed")
		verbose = flag.Bool("v", false, "print every 500th transaction")
	)
	flag.Parse()
	if err := run(*owners, *dim, *rounds, *seed, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "marketsim:", err)
		os.Exit(1)
	}
}

func run(ownerCount, n, rounds int, seed uint64, verbose bool) error {
	// Data owners from a synthetic MovieLens-style rating corpus.
	ratings, err := dataset.GenerateRatings(dataset.MovieLensConfig{
		Users: ownerCount, Movies: 500, RatingsPerUser: 20, Seed: seed,
	})
	if err != nil {
		return err
	}
	profiles := dataset.UserProfiles(ratings)
	values, ranges := dataset.OwnerValues(profiles)
	contract, err := privacy.NewTanhContract(1, 1)
	if err != nil {
		return err
	}
	owners := make([]market.Owner, len(profiles))
	for i := range owners {
		owners[i] = market.Owner{
			ID: int(profiles[i].UserID), Value: values[i], Range: ranges[i], Contract: contract,
		}
	}

	mech, err := pricing.New(n, 2*math.Sqrt(float64(n)),
		pricing.WithReserve(),
		pricing.WithThreshold(pricing.DefaultThreshold(n, rounds, 0)))
	if err != nil {
		return err
	}
	broker, err := market.NewBroker(market.Config{
		Owners: owners, Mechanism: pricing.NewSync(mech), FeatureDim: n, Seed: seed,
	})
	if err != nil {
		return err
	}

	// Hidden market value model for the consumer stream.
	setup := randx.NewStream(seed, 99)
	theta := setup.NormalVector(n, 1)
	for i := range theta {
		theta[i] = math.Abs(theta[i])
	}
	theta.Normalize()
	theta.Scale(math.Sqrt(2 * float64(n)))
	consumers, err := market.NewConsumerModel(market.ConsumerConfig{
		Owners: owners, FeatureDim: n, Theta: linalg.Vector(theta),
	})
	if err != nil {
		return err
	}

	rng := randx.NewStream(seed, 7)
	lats := histo.New()
	var sold, skipped int
	for t := 0; t < rounds; t++ {
		q, err := consumers.NextQuery(rng)
		if err != nil {
			return err
		}
		t0 := time.Now()
		tx, err := broker.Trade(q)
		if err != nil {
			return err
		}
		lats.RecordDuration(time.Since(t0))
		if tx.Sold {
			sold++
		}
		if tx.Decision == pricing.DecisionSkip {
			skipped++
		}
		if verbose && t%500 == 0 {
			fmt.Printf("round %5d: %-12s posted %6.3f reserve %6.3f value %6.3f sold=%v\n",
				tx.Round, tx.Decision, tx.Posted, tx.Reserve, tx.MarketValue, tx.Sold)
		}
	}

	stats := broker.Stats()
	fmt.Println("=== personal data market summary ===")
	fmt.Printf("owners:              %d\n", broker.Owners())
	fmt.Printf("feature dimension:   %d\n", broker.FeatureDim())
	fmt.Printf("rounds:              %d (sold %d, skipped %d)\n", rounds, sold, skipped)
	fmt.Printf("total revenue:       %.2f\n", broker.TotalRevenue())
	fmt.Printf("total broker profit: %.2f\n", broker.TotalProfit())
	fmt.Printf("cumulative regret:   %.2f\n", stats.CumulativeRegret)
	fmt.Printf("regret ratio:        %.2f%%\n", 100*stats.RegretRatio)
	c := mech.Counters()
	fmt.Printf("mechanism counters:  exploratory %d, conservative %d, cuts %d\n",
		c.Exploratory, c.Conservative, c.CutsApplied)
	ls := lats.Summarize(1e3)
	fmt.Printf("trade latency:       p50 %.1fµs  p99 %.1fµs  max %.1fµs\n",
		ls.P50, ls.P99, ls.Max)
	// Top-compensated owners.
	fmt.Println("sample owner payouts:")
	for i := 0; i < 5 && i < broker.Owners(); i++ {
		p, err := broker.OwnerPayout(i)
		if err != nil {
			return err
		}
		fmt.Printf("  owner %4d: %.4f\n", owners[i].ID, p)
	}
	return nil
}
