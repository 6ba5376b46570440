package dataset

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"datamarket/internal/linalg"
	"datamarket/internal/randx"
)

// Listing is one Airbnb-style booking record (§V-B). LogPrice is the
// natural log of the nightly price — the target variable of the hedonic
// regression, exactly as in the Kaggle "Airbnb listings in major US
// cities" table the paper uses.
type Listing struct {
	LogPrice           float64
	City               string
	PropertyType       string
	RoomType           string
	CancellationPolicy string
	InstantBookable    bool
	Accommodates       float64
	Bathrooms          float64
	Bedrooms           float64
	Beds               float64
	HostResponseRate   float64 // 0–1
	ReviewScore        float64 // 0–100
	NumberOfReviews    float64
	OccupancyRate      float64 // 0–1
	CleaningFee        float64
	MinimumNights      float64
	Amenities          []string
}

// Fixed vocabularies of the six-city dataset. Unknown values fall back to
// the zero encoding (no one-hot bit set), mirroring pandas categoricals
// over a fixed category list.
var (
	// AirbnbCities are the six U.S. cities in the dataset.
	AirbnbCities = []string{"NYC", "LA", "SF", "DC", "Chicago", "Boston"}
	// AirbnbPropertyTypes is the coarse property taxonomy.
	AirbnbPropertyTypes = []string{"Apartment", "House", "Condominium", "Other"}
	// AirbnbRoomTypes are the three room categories.
	AirbnbRoomTypes = []string{"Entire home/apt", "Private room", "Shared room"}
	// AirbnbCancellationPolicies are the three policy levels.
	AirbnbCancellationPolicies = []string{"flexible", "moderate", "strict"}
	// AirbnbAmenities are the twelve amenity flags we encode.
	AirbnbAmenities = []string{
		"Wireless Internet", "Kitchen", "Heating", "Air conditioning",
		"Washer", "Dryer", "Free parking", "TV", "Elevator", "Gym",
		"Pool", "Breakfast",
	}
)

// AirbnbFeatureDim is the dimension of the featurized listing: 10 numeric
// fields, 6+4+3+3 one-hot categories, 1 boolean, 12 amenity flags, and 16
// interaction features — n = 55, the dimension the paper reports.
const AirbnbFeatureDim = 55

// airbnbInteractions indexes into the first 39 base features; products of
// these pairs are appended as "interaction features to enhance model
// capacity" (§V-B). Indices 0–9 are the numeric fields in struct order.
var airbnbInteractions = [][2]int{
	{0, 2}, {0, 1}, {0, 3}, {2, 3}, {2, 1}, {6, 5}, {4, 5}, {7, 6},
	{8, 0}, {9, 7}, {0, 0}, {2, 2}, {5, 7}, {6, 9}, {1, 3}, {8, 2},
}

// FeaturizeListing maps a listing to its n = 55 feature vector.
func FeaturizeListing(l *Listing) (linalg.Vector, error) {
	base := make(linalg.Vector, 0, 39)
	base = append(base,
		l.Accommodates, l.Bathrooms, l.Bedrooms, l.Beds,
		l.HostResponseRate, l.ReviewScore/100, l.NumberOfReviews/100,
		l.OccupancyRate, l.CleaningFee/100, l.MinimumNights/10,
	)
	base = append(base, oneHot(l.City, AirbnbCities)...)
	base = append(base, oneHot(l.PropertyType, AirbnbPropertyTypes)...)
	base = append(base, oneHot(l.RoomType, AirbnbRoomTypes)...)
	base = append(base, oneHot(l.CancellationPolicy, AirbnbCancellationPolicies)...)
	if l.InstantBookable {
		base = append(base, 1)
	} else {
		base = append(base, 0)
	}
	amen := make(map[string]bool, len(l.Amenities))
	for _, a := range l.Amenities {
		amen[a] = true
	}
	for _, a := range AirbnbAmenities {
		if amen[a] {
			base = append(base, 1)
		} else {
			base = append(base, 0)
		}
	}
	if len(base) != 39 {
		return nil, fmt.Errorf("dataset: internal error: %d base features, want 39", len(base))
	}
	out := make(linalg.Vector, 0, AirbnbFeatureDim)
	out = append(out, base...)
	for _, p := range airbnbInteractions {
		out = append(out, base[p[0]]*base[p[1]])
	}
	if len(out) != AirbnbFeatureDim {
		return nil, fmt.Errorf("dataset: internal error: %d features, want %d", len(out), AirbnbFeatureDim)
	}
	return out, nil
}

func oneHot(value string, vocab []string) linalg.Vector {
	v := make(linalg.Vector, len(vocab))
	for i, w := range vocab {
		if value == w {
			v[i] = 1
			break
		}
	}
	return v
}

// AirbnbConfig parameterizes the synthetic listing generator.
type AirbnbConfig struct {
	// Count is the number of listings (the paper's table has 74,111).
	Count int
	// Seed drives the generator.
	Seed uint64
	// NoiseStd is the residual std of log price around the hedonic model;
	// the paper's OLS refit reports test MSE 0.226, i.e. std ≈ 0.475.
	NoiseStd float64
	// Segments is the number of listing archetypes. Real listing tables
	// are heavily clustered (the same city/room-type/amenity archetypes
	// recur), which is what makes online contextual pricing converge at
	// the paper's horizon; 0 means the default of 60. Set Segments < 0
	// for fully independent attributes (the isotropic stress case).
	Segments int
	// PerturbProb is the per-field probability of deviating from the
	// segment archetype (default 0.15 when 0).
	PerturbProb float64
}

// airbnbTruth returns the ground-truth hedonic coefficients (over the 55
// features) and intercept used by the generator. The signs follow the
// hedonic pricing literature: capacity, quality, and hot cities raise log
// price; shared rooms lower it.
func airbnbTruth(r *randx.RNG) (coef linalg.Vector, intercept float64) {
	coef = make(linalg.Vector, AirbnbFeatureDim)
	// Numeric block.
	numeric := []float64{0.09, 0.08, 0.12, 0.03, 0.05, 0.25, 0.10, 0.15, 0.20, -0.04}
	copy(coef[0:10], numeric)
	// Cities: NYC, LA, SF, DC, Chicago, Boston.
	copy(coef[10:16], []float64{0.35, 0.20, 0.45, 0.15, 0.05, 0.18})
	// Property types.
	copy(coef[16:20], []float64{0.05, 0.12, 0.10, 0.0})
	// Room types: entire, private, shared.
	copy(coef[20:23], []float64{0.55, 0.0, -0.35})
	// Cancellation policies.
	copy(coef[23:26], []float64{0.0, 0.02, 0.06})
	// Instant bookable.
	coef[26] = 0.03
	// Amenities.
	copy(coef[27:39], []float64{0.04, 0.05, 0.02, 0.08, 0.04, 0.04, 0.06, 0.03, 0.05, 0.06, 0.09, 0.02})
	// Interactions: small effects.
	for i := 39; i < AirbnbFeatureDim; i++ {
		coef[i] = r.Normal(0, 0.01)
	}
	return coef, 3.6 // exp(3.6) ≈ $37 base nightly price
}

// GenerateListings synthesizes listings whose log prices follow a hidden
// hedonic model plus Gaussian noise. It returns the listings and the
// ground-truth (coefficients, intercept) for tests; experiment code
// re-learns them with OLS exactly as the paper does with sklearn.
func GenerateListings(cfg AirbnbConfig) ([]Listing, linalg.Vector, float64, error) {
	if cfg.Count <= 0 {
		return nil, nil, 0, fmt.Errorf("dataset: Airbnb config needs positive Count, got %d", cfg.Count)
	}
	if cfg.NoiseStd < 0 {
		return nil, nil, 0, fmt.Errorf("dataset: negative NoiseStd %g", cfg.NoiseStd)
	}
	r := randx.New(cfg.Seed)
	coef, intercept := airbnbTruth(r)
	segments := cfg.Segments
	if segments == 0 {
		segments = 60
	}
	perturb := cfg.PerturbProb
	if perturb == 0 {
		perturb = 0.15
	}
	var bases []Listing
	for i := 0; i < segments; i++ {
		bases = append(bases, randomListing(r))
	}
	out := make([]Listing, cfg.Count)
	for i := range out {
		var l Listing
		if segments > 0 {
			l = bases[r.Intn(segments)]
			l.Amenities = append([]string(nil), l.Amenities...)
			perturbListing(r, &l, perturb)
		} else {
			l = randomListing(r)
		}
		x, err := FeaturizeListing(&l)
		if err != nil {
			return nil, nil, 0, err
		}
		l.LogPrice = x.Dot(coef) + intercept + r.Normal(0, cfg.NoiseStd)
		out[i] = l
	}
	return out, coef, intercept, nil
}

// randomListing draws a listing with fully independent attributes.
func randomListing(r *randx.RNG) Listing {
	// City mix roughly matching the dataset (NYC and LA dominate).
	l := Listing{
		City:               AirbnbCities[weightedIndex(r, []float64{0.44, 0.30, 0.09, 0.08, 0.05, 0.04})],
		PropertyType:       AirbnbPropertyTypes[weightedIndex(r, []float64{0.65, 0.2, 0.08, 0.07})],
		RoomType:           AirbnbRoomTypes[weightedIndex(r, []float64{0.55, 0.4, 0.05})],
		CancellationPolicy: AirbnbCancellationPolicies[r.Intn(3)],
		InstantBookable:    r.Float64() < 0.25,
		Accommodates:       float64(1 + r.Intn(8)),
		Bathrooms:          0.5 + float64(0.5*float64(r.Intn(5))),
		Bedrooms:           float64(r.Intn(5)),
		Beds:               float64(1 + r.Intn(6)),
		HostResponseRate:   clamp01(r.Uniform(0.5, 1.1)),
		ReviewScore:        clampRange(r.Normal(92, 8), 20, 100),
		NumberOfReviews:    float64(r.Intn(300)),
		OccupancyRate:      clamp01(r.Uniform(0.1, 1.0)),
		CleaningFee:        float64(r.Intn(150)),
		MinimumNights:      float64(1 + r.Intn(7)),
	}
	for _, a := range AirbnbAmenities {
		if r.Float64() < 0.55 {
			l.Amenities = append(l.Amenities, a)
		}
	}
	return l
}

// perturbListing re-randomizes each field independently with probability p,
// producing local variation around a segment archetype.
func perturbListing(r *randx.RNG, l *Listing, p float64) {
	fresh := randomListing(r)
	if r.Float64() < p {
		l.City = fresh.City
	}
	if r.Float64() < p {
		l.PropertyType = fresh.PropertyType
	}
	if r.Float64() < p {
		l.RoomType = fresh.RoomType
	}
	if r.Float64() < p {
		l.CancellationPolicy = fresh.CancellationPolicy
	}
	if r.Float64() < p {
		l.InstantBookable = fresh.InstantBookable
	}
	if r.Float64() < p {
		l.Accommodates = fresh.Accommodates
	}
	if r.Float64() < p {
		l.Bathrooms = fresh.Bathrooms
	}
	if r.Float64() < p {
		l.Bedrooms = fresh.Bedrooms
	}
	if r.Float64() < p {
		l.Beds = fresh.Beds
	}
	if r.Float64() < p {
		l.HostResponseRate = fresh.HostResponseRate
	}
	if r.Float64() < p {
		l.ReviewScore = fresh.ReviewScore
	}
	if r.Float64() < p {
		l.NumberOfReviews = fresh.NumberOfReviews
	}
	if r.Float64() < p {
		l.OccupancyRate = fresh.OccupancyRate
	}
	if r.Float64() < p {
		l.CleaningFee = fresh.CleaningFee
	}
	if r.Float64() < p {
		l.MinimumNights = fresh.MinimumNights
	}
	if r.Float64() < p {
		l.Amenities = fresh.Amenities
	}
}

func weightedIndex(r *randx.RNG, weights []float64) int {
	var total float64
	for _, w := range weights {
		total += w
	}
	u := r.Float64() * total
	for i, w := range weights {
		u -= w
		if u < 0 {
			return i
		}
	}
	return len(weights) - 1
}

func clamp01(x float64) float64 { return clampRange(x, 0, 1) }

func clampRange(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

var airbnbHeader = []string{
	"log_price", "city", "property_type", "room_type", "cancellation_policy",
	"instant_bookable", "accommodates", "bathrooms", "bedrooms", "beds",
	"host_response_rate", "review_scores_rating", "number_of_reviews",
	"occupancy_rate", "cleaning_fee", "minimum_nights", "amenities",
}

// WriteListings emits listings in the CSV schema above (amenities are
// pipe-separated inside one cell, as in the Kaggle export's JSON-ish blob).
func WriteListings(w io.Writer, listings []Listing) error {
	rows := make([][]string, len(listings))
	for i, l := range listings {
		rows[i] = []string{
			strconv.FormatFloat(l.LogPrice, 'g', -1, 64),
			l.City, l.PropertyType, l.RoomType, l.CancellationPolicy,
			strconv.FormatBool(l.InstantBookable),
			strconv.FormatFloat(l.Accommodates, 'g', -1, 64),
			strconv.FormatFloat(l.Bathrooms, 'g', -1, 64),
			strconv.FormatFloat(l.Bedrooms, 'g', -1, 64),
			strconv.FormatFloat(l.Beds, 'g', -1, 64),
			strconv.FormatFloat(l.HostResponseRate, 'g', -1, 64),
			strconv.FormatFloat(l.ReviewScore, 'g', -1, 64),
			strconv.FormatFloat(l.NumberOfReviews, 'g', -1, 64),
			strconv.FormatFloat(l.OccupancyRate, 'g', -1, 64),
			strconv.FormatFloat(l.CleaningFee, 'g', -1, 64),
			strconv.FormatFloat(l.MinimumNights, 'g', -1, 64),
			strings.Join(l.Amenities, "|"),
		}
	}
	return writeCSV(w, airbnbHeader, rows)
}

// ParseListings reads the CSV schema written by WriteListings. limit > 0
// caps the number of rows.
func ParseListings(r io.Reader, limit int) ([]Listing, error) {
	t, err := newCSVTable(r)
	if err != nil {
		return nil, err
	}
	cols, err := t.require(airbnbHeader...)
	if err != nil {
		return nil, err
	}
	var out []Listing
	line := 1
	for {
		rec, err := t.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: listings line %d: %w", line+1, err)
		}
		line++
		var l Listing
		if l.LogPrice, err = parseFloat(rec[cols[0]], "log_price", line); err != nil {
			return nil, err
		}
		l.City = rec[cols[1]]
		l.PropertyType = rec[cols[2]]
		l.RoomType = rec[cols[3]]
		l.CancellationPolicy = rec[cols[4]]
		l.InstantBookable = rec[cols[5]] == "true"
		nums := []*float64{
			&l.Accommodates, &l.Bathrooms, &l.Bedrooms, &l.Beds,
			&l.HostResponseRate, &l.ReviewScore, &l.NumberOfReviews,
			&l.OccupancyRate, &l.CleaningFee, &l.MinimumNights,
		}
		for k, dst := range nums {
			v, err := parseFloat(rec[cols[6+k]], airbnbHeader[6+k], line)
			if err != nil {
				return nil, err
			}
			*dst = v
		}
		if cell := rec[cols[16]]; cell != "" {
			l.Amenities = strings.Split(cell, "|")
		}
		out = append(out, l)
		if limit > 0 && len(out) >= limit {
			break
		}
	}
	return out, nil
}
