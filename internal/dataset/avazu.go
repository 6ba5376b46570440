package dataset

import (
	"fmt"
	"io"
	"math"

	"datamarket/internal/feature"
	"datamarket/internal/learn"
	"datamarket/internal/linalg"
	"datamarket/internal/randx"
)

// Impression is one Avazu-style ad display sample (§V-C): a click label
// and a set of categorical fields describing the ad slot and the device.
type Impression struct {
	Click  bool
	Fields map[string]string
}

// AvazuFields are the categorical fields we model, a representative subset
// of the 24 columns of the real avazu click log, plus a constant "bias"
// field: one-hot-hashed CTR pipelines carry the intercept as an
// always-present feature, which is what lets L1 drive every genuinely
// uninformative coordinate to exactly zero.
var AvazuFields = []string{
	"bias", "hour", "banner_pos", "site_id", "site_category", "app_id",
	"app_category", "device_model", "device_type", "device_conn_type",
	"C14", "C17", "C20",
}

// avazuCardinalities gives each field's vocabulary size in the generator;
// heavy-tailed fields (site_id, app_id, device_model) get large
// vocabularies like the real log.
var avazuCardinalities = map[string]int{
	"bias": 1, "hour": 24, "banner_pos": 7, "site_id": 2000, "site_category": 26,
	"app_id": 1500, "app_category": 28, "device_model": 4000,
	"device_type": 5, "device_conn_type": 4, "C14": 800, "C17": 300, "C20": 160,
}

// AvazuConfig parameterizes the synthetic impression log.
type AvazuConfig struct {
	// Count is the number of impressions.
	Count int
	// HashDim is the one-hot hashing dimension n (the paper uses 128 and
	// 1024).
	HashDim int
	// ActiveWeights is the number of nonzero coordinates of the hidden
	// CTR model in hashed space (the paper's learned vectors have 21–23).
	ActiveWeights int
	// Seed drives the generator.
	Seed uint64
}

// AvazuStream generates impressions whose click probabilities follow a
// hidden sparse logistic model in the hashed feature space, so that an
// FTRL refit recovers a sparse weight vector exactly as in §V-C.
type AvazuStream struct {
	cfg    AvazuConfig
	hasher *feature.Hasher
	truth  linalg.Vector
	rng    *randx.RNG
	vocab  map[string][]string
}

// NewAvazuStream validates the config and builds the generator.
func NewAvazuStream(cfg AvazuConfig) (*AvazuStream, error) {
	if cfg.Count < 0 {
		return nil, fmt.Errorf("dataset: negative Count %d", cfg.Count)
	}
	if cfg.HashDim <= 0 {
		return nil, fmt.Errorf("dataset: HashDim must be positive, got %d", cfg.HashDim)
	}
	if cfg.ActiveWeights <= 0 || cfg.ActiveWeights > cfg.HashDim-1 {
		return nil, fmt.Errorf("dataset: ActiveWeights %d out of range [1, %d] (one coordinate is reserved for the bias)",
			cfg.ActiveWeights, cfg.HashDim-1)
	}
	h, err := feature.NewHasher(cfg.HashDim)
	if err != nil {
		return nil, err
	}
	r := randx.New(cfg.Seed)
	truth := make(linalg.Vector, cfg.HashDim)
	// The intercept occupies the bias field's hashed coordinate; the
	// remaining active weights are drawn away from it. With the bias
	// coordinate, the nonzero count of the hidden model is
	// ActiveWeights + 1 (paper: 21/23 nonzeros at n = 128/1024).
	biasIdx := h.Index("bias", "bias_0")
	const biasWeight = -1.6 // sigmoid(−1.6) ≈ 17% base CTR
	perm := r.Perm(cfg.HashDim)
	placed := 0
	for _, idx := range perm {
		if placed == cfg.ActiveWeights {
			break
		}
		if idx == biasIdx {
			continue
		}
		truth[idx] = r.Uniform(0.5, 1.5) * r.Rademacher()
		placed++
	}
	truth[biasIdx] = biasWeight
	// Pre-build small vocabularies; large ones are materialized lazily by
	// index to keep memory modest.
	vocab := make(map[string][]string, len(AvazuFields))
	for _, f := range AvazuFields {
		card := avazuCardinalities[f]
		vals := make([]string, card)
		for i := range vals {
			vals[i] = fmt.Sprintf("%s_%x", f, i)
		}
		vocab[f] = vals
	}
	return &AvazuStream{cfg: cfg, hasher: h, truth: truth, rng: r, vocab: vocab}, nil
}

// Truth returns a copy of the hidden weight vector in hashed space.
func (s *AvazuStream) Truth() linalg.Vector { return s.truth.Clone() }

// Hasher returns the one-hot hashing encoder in use.
func (s *AvazuStream) Hasher() *feature.Hasher { return s.hasher }

// Next draws one impression: categorical fields with Zipf-ish skew, then a
// click from the hidden logistic model over the hashed encoding.
func (s *AvazuStream) Next() (Impression, linalg.Vector) {
	fields := make(map[string]string, len(AvazuFields))
	for _, f := range AvazuFields {
		vals := s.vocab[f]
		fields[f] = vals[s.skewedIndex(len(vals))]
	}
	x := s.hasher.Encode(fields)
	p := 1 / (1 + math.Exp(-x.Dot(s.truth)))
	click := s.rng.Float64() < p
	return Impression{Click: click, Fields: fields}, x
}

// skewedIndex draws an index with a heavy head: squaring a uniform pushes
// mass toward 0, approximating the popularity skew of real ad logs.
func (s *AvazuStream) skewedIndex(card int) int {
	u := s.rng.Float64()
	return int(u * u * float64(card))
}

// GenerateAll materializes the full stream; prefer Next for long runs.
func (s *AvazuStream) GenerateAll() ([]Impression, []linalg.Vector) {
	imps := make([]Impression, s.cfg.Count)
	xs := make([]linalg.Vector, s.cfg.Count)
	for i := 0; i < s.cfg.Count; i++ {
		imps[i], xs[i] = s.Next()
	}
	return imps, xs
}

// avazuHeader is the CSV schema: click plus the categorical fields.
var avazuHeader = append([]string{"click"}, AvazuFields...)

// WriteImpressions emits impressions in the CSV schema.
func WriteImpressions(w io.Writer, imps []Impression) error {
	rows := make([][]string, len(imps))
	for i, im := range imps {
		row := make([]string, len(avazuHeader))
		if im.Click {
			row[0] = "1"
		} else {
			row[0] = "0"
		}
		for j, f := range AvazuFields {
			row[j+1] = im.Fields[f]
		}
		rows[i] = row
	}
	return writeCSV(w, avazuHeader, rows)
}

// ParseImpressions reads impressions in the CSV schema WriteImpressions
// writes: a header that names "click" and every field of AvazuFields, in
// any order, with other columns ignored. The real Avazu train file has
// no "bias" column, so it parses only once one is added. Each click must
// be 0 or 1. limit > 0 caps the rows read.
func ParseImpressions(r io.Reader, limit int) ([]Impression, error) {
	t, err := newCSVTable(r)
	if err != nil {
		return nil, err
	}
	cols, err := t.require(avazuHeader...)
	if err != nil {
		return nil, err
	}
	var out []Impression
	line := 1
	for {
		rec, err := t.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: impressions line %d: %w", line+1, err)
		}
		line++
		click, err := parseInt(rec[cols[0]], "click", line)
		if err != nil {
			return nil, err
		}
		if click != 0 && click != 1 {
			return nil, fmt.Errorf("dataset: line %d: click must be 0/1, got %d: %w", line, click, ErrBadRow)
		}
		im := Impression{Click: click == 1, Fields: make(map[string]string, len(AvazuFields))}
		for j, f := range AvazuFields {
			im.Fields[f] = rec[cols[j+1]]
		}
		out = append(out, im)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out, nil
}

// FitFTRLOnStream is a convenience used by experiments: it runs count
// impressions from the stream through an FTRL learner and returns the
// learned weights. The learner is configured per McMahan et al. defaults.
func FitFTRLOnStream(s *AvazuStream, count int, alpha, l1 float64) (linalg.Vector, float64, error) {
	if count <= 0 {
		return nil, 0, fmt.Errorf("dataset: FTRL fit needs positive count")
	}
	learner, err := learn.NewFTRL(learn.FTRLConfig{
		Dim: s.hasher.Dim(), Alpha: alpha, Beta: 1, L1: l1, L2: 1,
	})
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < count; i++ {
		im, x := s.Next()
		y := 0.0
		if im.Click {
			y = 1
		}
		if _, err := learner.Update(x, y); err != nil {
			return nil, 0, err
		}
	}
	return learner.Weights(), learner.AverageLoss(), nil
}
