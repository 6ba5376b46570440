package pricing

import (
	"fmt"
	"math"
	"sort"

	"datamarket/internal/kernel"
	"datamarket/internal/linalg"
)

// Family identifies one of the hosted pricing families. A serving stack
// (brokerd, the market broker, experiment harnesses) treats a stream as a
// family plus a model config instead of a concrete mechanism type, so every
// family the paper evaluates — the linear ellipsoid (Algorithms 1/2), the
// nonlinear g∘φ extensions of §IV-A, and the SGD comparator of §VI-B — can
// live behind the same create/price/snapshot/restore surface.
type Family string

const (
	// FamilyLinear is the ellipsoid mechanism over raw features (*Mechanism).
	FamilyLinear Family = "linear"
	// FamilyNonlinear is the generalized model v = g(φ(x)ᵀθ*)
	// (*NonlinearMechanism): links, feature maps, and landmark kernels.
	FamilyNonlinear Family = "nonlinear"
	// FamilySGD is the gradient-descent comparator (*SGDPoster).
	FamilySGD Family = "sgd"
)

// KernelConfig is the serializable description of a Mercer kernel for the
// landmark feature map. Type selects among the kernel package's kernels.
type KernelConfig struct {
	// Type is "linear", "poly", or "rbf".
	Type string `json:"type"`
	// Degree and Offset parameterize the polynomial kernel (xᵀy + c)^d.
	Degree int     `json:"degree,omitempty"`
	Offset float64 `json:"offset,omitempty"`
	// Gamma parameterizes the RBF kernel exp(−γ‖x−y‖²).
	Gamma float64 `json:"gamma,omitempty"`
}

// build instantiates the configured kernel.
func (c KernelConfig) build() (Kernel, error) {
	switch c.Type {
	case "linear":
		return kernel.Linear{}, nil
	case "poly":
		return kernel.NewPolynomial(c.Degree, c.Offset)
	case "rbf":
		return kernel.NewRBF(c.Gamma)
	default:
		return nil, fmt.Errorf("pricing: unknown kernel type %q (want linear, poly, or rbf)", c.Type)
	}
}

// configOfKernel reverse-maps a kernel onto its config; only the kernel
// package's types are serializable.
func configOfKernel(k Kernel) (*KernelConfig, error) {
	switch kk := k.(type) {
	case kernel.Linear:
		return &KernelConfig{Type: "linear"}, nil
	case kernel.Polynomial:
		return &KernelConfig{Type: "poly", Degree: kk.Degree, Offset: kk.Offset}, nil
	case kernel.RBF:
		return &KernelConfig{Type: "rbf", Gamma: kk.Gamma}, nil
	default:
		return nil, fmt.Errorf("pricing: kernel %T is not serializable (use the kernel package's types)", k)
	}
}

// ModelConfig is the serializable model description of a family. The
// nonlinear family reads Link, Map, Kernel, and Landmarks; the sgd family
// reads Eta0 and Margin; the linear family takes no model config at all.
type ModelConfig struct {
	// Link is the outer function g: "identity" (default), "exp", "logistic".
	Link string `json:"link,omitempty"`
	// Map is the inner transformation φ: "identity" (default), "log",
	// "landmark".
	Map string `json:"map,omitempty"`
	// Kernel and Landmarks configure the landmark map φ(x) = (K(x, lⱼ))ⱼ.
	Kernel    *KernelConfig `json:"kernel,omitempty"`
	Landmarks [][]float64   `json:"landmarks,omitempty"`
	// Eta0 is the sgd initial learning rate (0 picks the default 0.5).
	Eta0 float64 `json:"eta0,omitempty"`
	// Margin scales the sgd downward exploration offset t^{-1/3}.
	Margin float64 `json:"margin,omitempty"`
}

// isZero reports whether no model field is set.
func (c ModelConfig) isZero() bool {
	return c.Link == "" && c.Map == "" && c.Kernel == nil &&
		len(c.Landmarks) == 0 && c.Eta0 == 0 && c.Margin == 0
}

// BuildModel instantiates the nonlinear family's link and feature map.
func BuildModel(c ModelConfig) (Model, error) {
	if c.Eta0 != 0 || c.Margin != 0 {
		return Model{}, fmt.Errorf("pricing: eta0/margin belong to the sgd family, not a nonlinear model")
	}
	var link Link
	switch c.Link {
	case "", "identity":
		link = IdentityLink{}
	case "exp":
		link = ExpLink{}
	case "logistic":
		link = LogisticLink{}
	default:
		return Model{}, fmt.Errorf("pricing: unknown link %q (want identity, exp, or logistic)", c.Link)
	}
	var fm FeatureMap
	switch c.Map {
	case "", "identity", "log":
		if c.Kernel != nil || len(c.Landmarks) > 0 {
			return Model{}, fmt.Errorf("pricing: kernel/landmarks are only valid with the landmark map")
		}
		if c.Map == "log" {
			fm = LogMap{}
		} else {
			fm = IdentityMap{}
		}
	case "landmark":
		if c.Kernel == nil {
			return Model{}, fmt.Errorf("pricing: landmark map needs a kernel")
		}
		k, err := c.Kernel.build()
		if err != nil {
			return Model{}, err
		}
		lms := make([]linalg.Vector, len(c.Landmarks))
		for i := range c.Landmarks {
			lms[i] = linalg.Vector(c.Landmarks[i])
		}
		lm, err := NewLandmarkMap(k, lms)
		if err != nil {
			return Model{}, err
		}
		fm = lm
	default:
		return Model{}, fmt.Errorf("pricing: unknown feature map %q (want identity, log, or landmark)", c.Map)
	}
	return Model{Link: link, Map: fm}, nil
}

// ConfigOfModel reverse-maps a Model onto its serializable config. It fails
// for links, maps, or kernels outside the named set — such models cannot be
// snapshotted into a family envelope.
func ConfigOfModel(m Model) (ModelConfig, error) {
	var c ModelConfig
	switch m.Link.(type) {
	case IdentityLink:
		c.Link = "identity"
	case ExpLink:
		c.Link = "exp"
	case LogisticLink:
		c.Link = "logistic"
	default:
		return ModelConfig{}, fmt.Errorf("pricing: link %T is not serializable", m.Link)
	}
	switch mp := m.Map.(type) {
	case IdentityMap:
		c.Map = "identity"
	case LogMap:
		c.Map = "log"
	case *LandmarkMap:
		c.Map = "landmark"
		kc, err := configOfKernel(mp.kernel)
		if err != nil {
			return ModelConfig{}, err
		}
		c.Kernel = kc
		c.Landmarks = make([][]float64, len(mp.landmarks))
		for i, l := range mp.landmarks {
			c.Landmarks[i] = l.Clone()
		}
	default:
		return ModelConfig{}, fmt.Errorf("pricing: feature map %T is not serializable", m.Map)
	}
	return c, nil
}

// FamilySpec is the factory input: everything needed to stand up a pricing
// stream of any family. The zero Family means linear, preserving the
// pre-family create surface.
type FamilySpec struct {
	Family Family `json:"family"`
	// Dim is the input feature dimension n (what callers pass to PostPrice).
	Dim int `json:"dim"`
	// Radius bounds ‖θ*‖ over the (mapped) features for the ellipsoid
	// families; 0 defaults to 2√(mapped dim).
	Radius float64 `json:"radius,omitempty"`
	// Reserve enables the reserve price constraint (all families).
	Reserve bool `json:"reserve,omitempty"`
	// Delta is the uncertainty buffer δ ≥ 0 (ellipsoid families).
	Delta float64 `json:"delta,omitempty"`
	// Threshold overrides the exploration threshold ε; with Threshold 0 and
	// Horizon > 0 the DefaultThreshold schedule over the mapped dimension is
	// used (ellipsoid families).
	Threshold float64 `json:"threshold,omitempty"`
	Horizon   int     `json:"horizon,omitempty"`
	// Model carries the family-specific model config.
	Model ModelConfig `json:"model,omitempty"`
}

// FamilyPoster is the capability bundle every hosted family implements:
// two-phase posting, pending introspection, bookkeeping, and a
// family-tagged snapshot envelope. SyncPoster wraps a FamilyPoster and
// forwards every capability, so the serving stack works uniformly.
type FamilyPoster interface {
	Poster
	// Counters returns the per-round bookkeeping.
	Counters() Counters
	// Pending reports whether a posted price is awaiting Observe.
	Pending() bool
	// Dim returns the input feature dimension.
	Dim() int
	// Family identifies the poster's family.
	Family() Family
	// SnapshotEnvelope captures the full state in a family-tagged envelope.
	SnapshotEnvelope() (*Envelope, error)
}

// familyEntry couples a family's factory with its snapshot restorer.
type familyEntry struct {
	build   func(FamilySpec) (FamilyPoster, error)
	restore func(*Envelope) (FamilyPoster, error)
}

// familyRegistry maps family names to their builders. Registration is
// static: the three families are fixed by the paper's evaluation.
var familyRegistry = map[Family]familyEntry{
	FamilyLinear:    {build: buildLinearFamily, restore: restoreLinearFamily},
	FamilyNonlinear: {build: buildNonlinearFamily, restore: restoreNonlinearFamily},
	FamilySGD:       {build: buildSGDFamily, restore: restoreSGDFamily},
}

// Families lists the hosted family names, sorted.
func Families() []Family {
	out := make([]Family, 0, len(familyRegistry))
	for f := range familyRegistry {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NewFamilyPoster builds a poster of the requested family. An empty family
// selects linear.
func NewFamilyPoster(spec FamilySpec) (FamilyPoster, error) {
	fam := spec.Family
	if fam == "" {
		fam = FamilyLinear
	}
	entry, ok := familyRegistry[fam]
	if !ok {
		return nil, fmt.Errorf("pricing: unknown family %q (have %v)", spec.Family, Families())
	}
	if spec.Dim < 1 {
		return nil, fmt.Errorf("pricing: dimension %d invalid, want ≥ 1", spec.Dim)
	}
	return entry.build(spec)
}

// ellipsoidOptions assembles the shared ellipsoid-family options and the
// defaulted radius. effDim is the mapped (score-space) dimension, which
// drives both the radius default and the DefaultThreshold schedule.
func (spec FamilySpec) ellipsoidOptions(effDim int) ([]Option, float64, error) {
	if spec.Horizon < 0 {
		return nil, 0, fmt.Errorf("pricing: horizon %d invalid, want ≥ 0", spec.Horizon)
	}
	if !isFinite(spec.Delta) || spec.Delta < 0 {
		return nil, 0, fmt.Errorf("pricing: delta %g invalid", spec.Delta)
	}
	if !isFinite(spec.Threshold) || spec.Threshold < 0 {
		return nil, 0, fmt.Errorf("pricing: threshold %g invalid", spec.Threshold)
	}
	radius := spec.Radius
	if radius == 0 && effDim > 0 {
		radius = 2 * math.Sqrt(float64(effDim))
	}
	if !isFinite(radius) || radius <= 0 {
		return nil, 0, fmt.Errorf("pricing: radius %g invalid", spec.Radius)
	}
	opts := []Option{WithUncertainty(spec.Delta)}
	if spec.Reserve {
		opts = append(opts, WithReserve())
	}
	switch {
	case spec.Threshold > 0:
		opts = append(opts, WithThreshold(spec.Threshold))
	case spec.Horizon > 0:
		opts = append(opts, WithThreshold(DefaultThreshold(effDim, spec.Horizon, spec.Delta)))
	}
	return opts, radius, nil
}

func buildLinearFamily(spec FamilySpec) (FamilyPoster, error) {
	if !spec.Model.isZero() {
		return nil, fmt.Errorf("pricing: family %q takes no model config", FamilyLinear)
	}
	opts, radius, err := spec.ellipsoidOptions(spec.Dim)
	if err != nil {
		return nil, err
	}
	return New(spec.Dim, radius, opts...)
}

func buildNonlinearFamily(spec FamilySpec) (FamilyPoster, error) {
	model, err := BuildModel(spec.Model)
	if err != nil {
		return nil, err
	}
	if lm, ok := model.Map.(*LandmarkMap); ok && lm.InDim() != spec.Dim {
		return nil, fmt.Errorf("pricing: landmarks have dimension %d, stream dimension is %d",
			lm.InDim(), spec.Dim)
	}
	opts, radius, err := spec.ellipsoidOptions(model.Map.OutDim(spec.Dim))
	if err != nil {
		return nil, err
	}
	return NewNonlinear(model, spec.Dim, radius, opts...)
}

func buildSGDFamily(spec FamilySpec) (FamilyPoster, error) {
	c := spec.Model
	if c.Link != "" || c.Map != "" || c.Kernel != nil || len(c.Landmarks) > 0 {
		return nil, fmt.Errorf("pricing: family %q only takes eta0/margin model config", FamilySGD)
	}
	if spec.Radius != 0 || spec.Delta != 0 || spec.Threshold != 0 || spec.Horizon != 0 {
		return nil, fmt.Errorf("pricing: family %q does not use radius/delta/threshold/horizon", FamilySGD)
	}
	if !isFinite(c.Eta0) || !isFinite(c.Margin) {
		return nil, fmt.Errorf("pricing: sgd eta0/margin must be finite, got %g, %g", c.Eta0, c.Margin)
	}
	eta0 := c.Eta0
	if eta0 == 0 {
		eta0 = 0.5 // the sweep experiments' canonical step size
	}
	return NewSGD(spec.Dim, eta0, c.Margin, spec.Reserve)
}

// Every hosted family satisfies the full capability bundle.
var (
	_ FamilyPoster = (*Mechanism)(nil)
	_ FamilyPoster = (*NonlinearMechanism)(nil)
	_ FamilyPoster = (*SGDPoster)(nil)
)
