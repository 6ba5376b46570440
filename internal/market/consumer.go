package market

import (
	"fmt"
	"math"

	"datamarket/internal/feature"
	"datamarket/internal/linalg"
	"datamarket/internal/privacy"
	"datamarket/internal/randx"
)

// ConsumerModel generates the online stream of data consumers of §V-A:
// each round a consumer customizes a noisy linear query (weights from
// N(0, I) or U[−1, 1], noise variance from {10^k : |k| ≤ 4}) and values
// the answer according to the hidden linear market value model
// v = xᵀθ* (+ δ), where x is the broker's compensation feature vector.
type ConsumerModel struct {
	owners     int
	featureDim int
	theta      linalg.Vector
	noise      *randx.SubGaussianNoise
	uniform    bool // query weights from U[−1,1] instead of N(0,1)

	ranges    linalg.Vector
	contracts []privacy.Contract
}

// ConsumerConfig configures NewConsumerModel.
type ConsumerConfig struct {
	// Owners is the data owner population the queries range over; the
	// consumer model needs their ranges and contracts to anticipate the
	// feature vector the broker will derive (the market value is a
	// function of those features).
	Owners []Owner
	// FeatureDim is the broker's aggregation dimension n.
	FeatureDim int
	// Theta is the hidden weight vector θ* of the market value model,
	// of length FeatureDim.
	Theta linalg.Vector
	// Noise is the optional market value uncertainty δ_t (nil for none).
	Noise *randx.SubGaussianNoise
	// UniformWeights draws query weights from U[−1,1] instead of N(0,1).
	UniformWeights bool
}

// NewConsumerModel validates and builds the stream generator.
func NewConsumerModel(cfg ConsumerConfig) (*ConsumerModel, error) {
	if len(cfg.Owners) == 0 {
		return nil, fmt.Errorf("market: consumer model needs owners")
	}
	if cfg.FeatureDim < 1 || cfg.FeatureDim > len(cfg.Owners) {
		return nil, fmt.Errorf("market: feature dimension %d out of range", cfg.FeatureDim)
	}
	if len(cfg.Theta) != cfg.FeatureDim {
		return nil, fmt.Errorf("market: theta length %d, want %d", len(cfg.Theta), cfg.FeatureDim)
	}
	cm := &ConsumerModel{
		owners:     len(cfg.Owners),
		featureDim: cfg.FeatureDim,
		theta:      cfg.Theta.Clone(),
		noise:      cfg.Noise,
		uniform:    cfg.UniformWeights,
		ranges:     make(linalg.Vector, len(cfg.Owners)),
		contracts:  make([]privacy.Contract, len(cfg.Owners)),
	}
	for i, o := range cfg.Owners {
		cm.ranges[i] = o.Range
		cm.contracts[i] = o.Contract
	}
	// Leakages no longer validates ranges per call (the check is hoisted
	// to construction time); this constructor is the construction time.
	if err := privacy.ValidateRanges(cm.ranges); err != nil {
		return nil, fmt.Errorf("market: %w", err)
	}
	return cm, nil
}

// Theta returns a copy of the hidden weight vector.
func (cm *ConsumerModel) Theta() linalg.Vector { return cm.theta.Clone() }

// NextQuery draws the next consumer's query and valuation. The valuation
// is computed through the same §II-B pipeline the broker uses, so broker
// and consumer agree on the feature representation.
func (cm *ConsumerModel) NextQuery(rng *randx.RNG) (Query, error) {
	q, _, _, err := cm.NextRound(rng)
	return q, err
}

// NextRound draws the next consumer's query and valuation, as NextQuery
// does, and also returns the feature vector x and the reserve price that
// the §II-B pipeline derives from the query's compensations.
func (cm *ConsumerModel) NextRound(rng *randx.RNG) (q Query, x linalg.Vector, reserve float64, err error) {
	weights := make(linalg.Vector, cm.owners)
	if cm.uniform {
		for i := range weights {
			weights[i] = rng.Uniform(-1, 1)
		}
	} else {
		for i := range weights {
			weights[i] = rng.StdNormal()
		}
	}
	// Noise variance 10^k with k uniform in {−4, …, 4}.
	k := rng.Intn(9) - 4
	variance := math.Pow(10, float64(k))
	lq, err := privacy.NewLinearQuery(weights, variance)
	if err != nil {
		return Query{}, nil, 0, err
	}
	leak, err := lq.Leakages(cm.ranges)
	if err != nil {
		return Query{}, nil, 0, err
	}
	comps, err := privacy.Compensations(leak, cm.contracts)
	if err != nil {
		return Query{}, nil, 0, err
	}
	x, _, reserve, err = feature.CompensationFeatures(comps, cm.featureDim)
	if err != nil {
		return Query{}, nil, 0, err
	}
	v := x.Dot(cm.theta)
	if cm.noise != nil {
		v += cm.noise.Sample(rng)
	}
	return Query{Q: lq, Valuation: v}, x, reserve, nil
}
