package pricing

import (
	"fmt"
	"math"

	"datamarket/internal/linalg"
)

// Link is the outer function g of the generalized market value model
// v = g(φ(x)ᵀθ*) from §IV-A. It must be non-decreasing and continuous;
// every Link here is additionally strictly increasing so that prices can
// be mapped between value space and score space via the inverse.
type Link interface {
	// Apply evaluates g(z).
	Apply(z float64) float64
	// Inverse evaluates g⁻¹(v); callers must keep v inside the range of g.
	Inverse(v float64) float64
	// Name identifies the link for reports.
	Name() string
}

// IdentityLink is g(z) = z: the plain linear model and the kernelized model.
type IdentityLink struct{}

// Apply returns z.
func (IdentityLink) Apply(z float64) float64 { return z }

// Inverse returns v.
func (IdentityLink) Inverse(v float64) float64 { return v }

// Name returns "identity".
func (IdentityLink) Name() string { return "identity" }

// ExpLink is g(z) = eᶻ: the log-linear and log-log hedonic models, where
// log v = φ(x)ᵀθ*.
type ExpLink struct{}

// Apply returns eᶻ.
func (ExpLink) Apply(z float64) float64 { return math.Exp(z) }

// Inverse returns log v.
func (ExpLink) Inverse(v float64) float64 { return math.Log(v) }

// Name returns "exp".
func (ExpLink) Name() string { return "exp" }

// LogisticLink is g(z) = 1/(1+e^{−z}), the CTR model of online advertising.
//
// The paper writes v = 1/(1+exp(xᵀθ*)), which is *decreasing* in the score
// and contradicts its own requirement that g be non-decreasing (§IV-A);
// we use the standard increasing sigmoid, which only flips the sign of θ*.
type LogisticLink struct{}

// Apply returns the sigmoid of z.
func (LogisticLink) Apply(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// Inverse returns the logit of v ∈ (0, 1).
func (LogisticLink) Inverse(v float64) float64 { return math.Log(v / (1 - v)) }

// Name returns "logistic".
func (LogisticLink) Name() string { return "logistic" }

// FeatureMap is the inner transformation φ of the generalized model. It is
// public knowledge; only the weight vector over φ(x) is learned.
type FeatureMap interface {
	// Map evaluates φ(x). It rejects inputs outside the map's domain
	// (wrong dimension, non-finite or out-of-domain entries) so malformed
	// features cannot poison the score-space knowledge set.
	Map(x linalg.Vector) (linalg.Vector, error)
	// OutDim returns the dimension of φ(x) for inputs of dimension inDim.
	OutDim(inDim int) int
	// Name identifies the map for reports.
	Name() string
}

// IdentityMap is φ(x) = x (linear, log-linear, and logistic models).
type IdentityMap struct{}

// Map returns x unchanged.
func (IdentityMap) Map(x linalg.Vector) (linalg.Vector, error) { return x, nil }

// OutDim returns inDim.
func (IdentityMap) OutDim(inDim int) int { return inDim }

// Name returns "identity".
func (IdentityMap) Name() string { return "identity" }

// LogMap applies the natural logarithm elementwise: the log-log hedonic
// model log v = Σ log(xᵢ)·θᵢ*. Inputs must be strictly positive and finite.
type LogMap struct{}

// Map returns (log x₁, …, log xₙ).
func (LogMap) Map(x linalg.Vector) (linalg.Vector, error) {
	out := make(linalg.Vector, len(x))
	for i, v := range x {
		if !isFinite(v) || v <= 0 {
			return nil, fmt.Errorf("pricing: log map input %d is %g, want positive finite", i, v)
		}
		out[i] = math.Log(v)
	}
	return out, nil
}

// OutDim returns inDim.
func (LogMap) OutDim(inDim int) int { return inDim }

// Name returns "log".
func (LogMap) Name() string { return "log" }

// Kernel is a Mercer kernel K(x, y), the similarity primitive of the
// kernelized market value model.
type Kernel interface {
	Eval(x, y linalg.Vector) float64
	Name() string
}

// LandmarkMap realizes the paper's kernelized model with a fixed budget:
// φ(x) = (K(x, l₁), …, K(x, l_m)) over m pre-registered landmark points.
// The paper's formulation lets m grow as t−1, which is incompatible with a
// fixed-dimension ellipsoid; pinning a landmark set is the standard
// finite-budget realization of the same model class.
type LandmarkMap struct {
	kernel    Kernel
	landmarks []linalg.Vector
}

// NewLandmarkMap builds a landmark feature map; landmarks must be non-empty
// and share a dimension.
func NewLandmarkMap(k Kernel, landmarks []linalg.Vector) (*LandmarkMap, error) {
	if k == nil {
		return nil, fmt.Errorf("pricing: nil kernel")
	}
	if len(landmarks) == 0 {
		return nil, fmt.Errorf("pricing: landmark set is empty")
	}
	d := len(landmarks[0])
	copied := make([]linalg.Vector, len(landmarks))
	for i, l := range landmarks {
		if len(l) != d {
			return nil, fmt.Errorf("pricing: landmark %d has dimension %d, want %d", i, len(l), d)
		}
		for j, v := range l {
			if !isFinite(v) {
				return nil, fmt.Errorf("pricing: landmark %d entry %d is %g, want finite", i, j, v)
			}
		}
		copied[i] = l.Clone()
	}
	return &LandmarkMap{kernel: k, landmarks: copied}, nil
}

// Map returns the kernel evaluations against every landmark. Inputs must
// match the landmark dimension and be finite — the same validation the
// ellipsoid serving path performs — so a malformed query cannot feed NaN
// scores into the knowledge set (or panic inside a kernel's dot product).
func (m *LandmarkMap) Map(x linalg.Vector) (linalg.Vector, error) {
	if len(x) != m.InDim() {
		return nil, fmt.Errorf("pricing: landmark map input dimension %d, want %d", len(x), m.InDim())
	}
	for i, v := range x {
		if !isFinite(v) {
			return nil, fmt.Errorf("pricing: landmark map input %d is %g, want finite", i, v)
		}
	}
	out := make(linalg.Vector, len(m.landmarks))
	for i, l := range m.landmarks {
		out[i] = m.kernel.Eval(x, l)
	}
	return out, nil
}

// InDim returns the landmark (input) dimension.
func (m *LandmarkMap) InDim() int { return len(m.landmarks[0]) }

// OutDim returns the number of landmarks.
func (m *LandmarkMap) OutDim(int) int { return len(m.landmarks) }

// Name identifies the map.
func (m *LandmarkMap) Name() string {
	return fmt.Sprintf("landmark(%s, m=%d)", m.kernel.Name(), len(m.landmarks))
}

// Model bundles a link and feature map into one of the §IV-A market value
// families, with helpers to evaluate the ground truth.
type Model struct {
	Link Link
	Map  FeatureMap
}

// LinearModel is v = xᵀθ*.
func LinearModel() Model { return Model{Link: IdentityLink{}, Map: IdentityMap{}} }

// LogLinearModel is log v = xᵀθ*.
func LogLinearModel() Model { return Model{Link: ExpLink{}, Map: IdentityMap{}} }

// LogLogModel is log v = Σ log(xᵢ)θᵢ*.
func LogLogModel() Model { return Model{Link: ExpLink{}, Map: LogMap{}} }

// LogisticModel is v = sigmoid(xᵀθ*).
func LogisticModel() Model { return Model{Link: LogisticLink{}, Map: IdentityMap{}} }

// KernelizedModel is v = φ(x)ᵀθ* over landmark kernel features.
func KernelizedModel(m *LandmarkMap) Model { return Model{Link: IdentityLink{}, Map: m} }

// Value computes the deterministic market value g(φ(x)ᵀθ) for weights θ
// over the mapped features. Inputs outside the map's domain yield NaN.
func (mo Model) Value(x linalg.Vector, theta linalg.Vector) float64 {
	phi, err := mo.Map.Map(x)
	if err != nil {
		return math.NaN()
	}
	return mo.Link.Apply(phi.Dot(theta))
}

// NonlinearMechanism adapts the linear-model Mechanism to the generalized
// model v = g(φ(x)ᵀθ*) per §IV-A: it runs the ellipsoid machinery in score
// space (over φ(x)) and converts posted scores to prices through g.
type NonlinearMechanism struct {
	inner *Mechanism
	model Model
	dim   int // input feature dimension (before φ)
}

// NewNonlinear builds a mechanism for the given model. dim is the *input*
// feature dimension; radius bounds ‖θ*‖ over the mapped features.
func NewNonlinear(model Model, dim int, radius float64, opts ...Option) (*NonlinearMechanism, error) {
	if model.Link == nil || model.Map == nil {
		return nil, fmt.Errorf("pricing: model must have both link and feature map")
	}
	if dim <= 0 {
		return nil, fmt.Errorf("pricing: dimension must be positive, got %d", dim)
	}
	inner, err := New(model.Map.OutDim(dim), radius, opts...)
	if err != nil {
		return nil, err
	}
	return &NonlinearMechanism{inner: inner, model: model, dim: dim}, nil
}

// Inner exposes the underlying linear mechanism (for counters and tests).
func (nm *NonlinearMechanism) Inner() *Mechanism { return nm.inner }

// Model returns the market value model in use.
func (nm *NonlinearMechanism) Model() Model { return nm.model }

// Dim returns the input feature dimension (before the feature map).
func (nm *NonlinearMechanism) Dim() int { return nm.dim }

// Pending reports whether a posted price is awaiting Observe. Wrappers
// such as SyncPoster rely on it for their lock-free pending shadow — and
// through that, servers rely on it for the delete/restore guards.
func (nm *NonlinearMechanism) Pending() bool { return nm.inner.Pending() }

// PostPrice prices a query under the nonlinear model. Both the returned
// price and the bounds are in value space; reserve is also in value space
// and is mapped through g⁻¹ for the score-space comparison. A non-positive
// reserve under a link with positive range (exp, logistic) is treated as
// non-binding.
func (nm *NonlinearMechanism) PostPrice(x linalg.Vector, reserve float64) (Quote, error) {
	if len(x) != nm.dim {
		return Quote{}, fmt.Errorf("pricing: feature dimension %d, want %d", len(x), nm.dim)
	}
	phi, err := nm.model.Map.Map(x)
	if err != nil {
		return Quote{}, err
	}
	innerReserve := math.Inf(-1)
	if nm.inner.cfg.useReserve {
		innerReserve = nm.scoreReserve(reserve)
	}
	q, err := nm.inner.PostPrice(phi, innerReserve)
	if err != nil {
		return Quote{}, err
	}
	// Translate score space back to value space.
	q.Price = nm.model.Link.Apply(q.Price)
	q.Lower = nm.model.Link.Apply(q.Lower)
	q.Upper = nm.model.Link.Apply(q.Upper)
	if q.Decision == DecisionSkip {
		q.Price = 0
	}
	return q, nil
}

// scoreReserve maps a value-space reserve into score space, respecting the
// range of the link.
func (nm *NonlinearMechanism) scoreReserve(reserve float64) float64 {
	switch nm.model.Link.(type) {
	case ExpLink:
		if reserve <= 0 {
			return math.Inf(-1)
		}
	case LogisticLink:
		if reserve <= 0 {
			return math.Inf(-1)
		}
		if reserve >= 1 {
			return math.Inf(1)
		}
	}
	return nm.model.Link.Inverse(reserve)
}

// Observe forwards the buyer feedback to the score-space mechanism.
func (nm *NonlinearMechanism) Observe(accepted bool) error {
	return nm.inner.Observe(accepted)
}

// Counters returns the underlying mechanism's statistics.
func (nm *NonlinearMechanism) Counters() Counters { return nm.inner.Counters() }
