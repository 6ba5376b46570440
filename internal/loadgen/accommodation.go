package loadgen

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"

	"datamarket/api"
	"datamarket/client"
	"datamarket/internal/dataset"
	"datamarket/internal/randx"
)

// Accommodation is the Airbnb scenario (§V-B): listings are grouped
// into city × room-type segments, each segment hosted as one pricing
// stream with the reserve constraint on; workers price listings through
// the SDK Flusher, so the wire sees coalesced multi-stream batches —
// the shape a real pricing front-end produces. Valuations are the
// listings' log prices, so the streams genuinely learn the hedonic
// model under load and the end-of-run regret summary is meaningful.
type Accommodation struct {
	cfg     Config
	c       *client.Client
	flusher *client.Flusher
	streams []string
	ops     []accOp
}

// accOp is one pre-featurized pricing opportunity.
type accOp struct {
	stream    string
	features  []float64
	reserve   float64
	valuation float64
}

// NewAccommodation builds the scenario; Setup does the provisioning.
func NewAccommodation(cfg Config) *Accommodation {
	return &Accommodation{cfg: cfg.withDefaults("accommodation")}
}

func (a *Accommodation) Name() string { return "accommodation" }

// roomCode collapses the dataset's room-type labels into id-safe slugs.
func roomCode(roomType string) string {
	switch roomType {
	case "Entire home/apt":
		return "entire"
	case "Private room":
		return "private"
	case "Shared room":
		return "shared"
	}
	return "other"
}

func (a *Accommodation) listings() ([]dataset.Listing, error) {
	if a.cfg.AirbnbCSV != "" {
		f, err := os.Open(a.cfg.AirbnbCSV)
		if err != nil {
			return nil, fmt.Errorf("loadgen: opening Airbnb CSV: %w", err)
		}
		defer f.Close()
		return dataset.ParseListings(f, a.cfg.Listings)
	}
	ls, _, _, err := dataset.GenerateListings(dataset.AirbnbConfig{
		Count: a.cfg.Listings, Seed: a.cfg.Seed, NoiseStd: 0.475,
	})
	return ls, err
}

func (a *Accommodation) Setup(ctx context.Context, c *client.Client) error {
	a.c = c
	ls, err := a.listings()
	if err != nil {
		return err
	}
	segments := make(map[string]bool)
	a.ops = make([]accOp, 0, len(ls))
	for i := range ls {
		l := &ls[i]
		x, err := dataset.FeaturizeListing(l)
		if err != nil {
			return err
		}
		id := fmt.Sprintf("%s-%s-%s", a.cfg.Prefix,
			strings.ToLower(l.City), roomCode(l.RoomType))
		segments[id] = true
		a.ops = append(a.ops, accOp{
			stream:   id,
			features: x,
			// The broker never sells below half the listing's value; the
			// valuation is the log price the hedonic model explains.
			reserve:   0.5 * l.LogPrice,
			valuation: l.LogPrice,
		})
	}
	a.streams = make([]string, 0, len(segments))
	for id := range segments {
		a.streams = append(a.streams, id)
	}
	sort.Strings(a.streams)
	for _, id := range a.streams {
		err := ensureStream(ctx, c, api.CreateStreamRequest{
			ID: id, Family: "linear", Dim: dataset.AirbnbFeatureDim,
			Reserve: true, Horizon: scenarioHorizon,
		})
		if err != nil {
			return err
		}
	}
	a.flusher = client.NewFlusher(c, client.FlusherConfig{})
	return nil
}

func (a *Accommodation) NewWorker(id int) (Worker, error) {
	rng := randx.NewStream(a.cfg.Seed+0xacc0, uint64(id))
	return &accWorker{wl: a, pick: NewChooser(len(a.ops), 0, rng)}, nil
}

// Close waits for coalesced rounds still in flight.
func (a *Accommodation) Close() error {
	if a.flusher != nil {
		a.flusher.Close()
	}
	return nil
}

func (a *Accommodation) Summary(ctx context.Context) (*ScenarioSummary, error) {
	return streamsSummary(ctx, a.c, a.streams)
}

type accWorker struct {
	wl   *Accommodation
	pick *Chooser
}

func (w *accWorker) Issue(ctx context.Context) (int, error) {
	op := &w.wl.ops[w.pick.Next()]
	_, err := w.wl.flusher.Price(ctx, op.stream, op.features, op.reserve, op.valuation)
	if err != nil {
		return 0, err
	}
	return 1, nil
}
