package loadgen

import (
	"context"
	"io"
	"net/http/httptest"
	"testing"
	"time"

	"datamarket/client"
	"datamarket/internal/server"
)

// smokeConfig is a tiny synthetic configuration every scenario can run
// in well under a second.
func smokeConfig() Config {
	return Config{
		Seed: 11, Batch: 8, Listings: 60, Streams: 4, PoolSize: 256,
		Users: 40, Movies: 80, Support: 4,
	}
}

func newSDKClient(t *testing.T) *client.Client {
	t.Helper()
	ts := httptest.NewServer(server.NewServer(nil).Handler())
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestScenariosEndToEnd(t *testing.T) {
	for _, name := range ScenarioNames {
		t.Run(name, func(t *testing.T) {
			c := newSDKClient(t)
			wl, err := ByName(name, smokeConfig())
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if err := wl.Setup(ctx, c); err != nil {
				t.Fatalf("setup: %v", err)
			}
			out, err := ClosedLoop(ctx, wl, ClosedLoopConfig{
				Concurrency: 4, Duration: 150 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("closed loop: %v", err)
			}
			if cl, ok := wl.(io.Closer); ok {
				if err := cl.Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
			}
			if out.ErrorTotal() != 0 {
				t.Fatalf("errors: %v", out.Errors)
			}
			if out.Issued == 0 || out.Units == 0 {
				t.Fatalf("no work done: issued %d units %d", out.Issued, out.Units)
			}
			if out.Latency.Count() == 0 {
				t.Fatalf("no latencies recorded")
			}
			sum, err := wl.Summary(ctx)
			if err != nil {
				t.Fatalf("summary: %v", err)
			}
			if sum == nil {
				t.Fatal("nil summary")
			}
			// The server must have priced exactly the units the client
			// counted: the closed loop lets in-flight ops finish instead
			// of abandoning rounds the server already priced. A ratings
			// unit is a trade; mixed sums a market's regret rounds and
			// trades, so only a lower bound holds there.
			served := int64(sum.Rounds)
			switch name {
			case "ratings":
				served = int64(sum.Trades)
			case "mixed":
				served = int64(sum.Rounds + sum.Trades)
			}
			if served == 0 {
				t.Fatalf("summary shows no server-side work: %+v", sum)
			}
			mismatch := served != out.Units
			if name == "mixed" {
				mismatch = served < out.Units
			}
			if mismatch {
				t.Errorf("server-side %d, client units %d", served, out.Units)
			}
		})
	}
}

func TestScenarioOpenLoopEndToEnd(t *testing.T) {
	c := newSDKClient(t)
	wl := NewImpression(smokeConfig())
	ctx := context.Background()
	if err := wl.Setup(ctx, c); err != nil {
		t.Fatal(err)
	}
	out, err := OpenLoop(ctx, wl, OpenLoopConfig{
		Rate: 200, Duration: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.ErrorTotal() != 0 {
		t.Fatalf("errors: %v", out.Errors)
	}
	if out.Issued+out.Dropped != 40 {
		t.Errorf("issued %d + dropped %d != scheduled 40", out.Issued, out.Dropped)
	}
	if out.Units < out.Issued*8 {
		t.Errorf("units %d < issued %d × batch 8", out.Units, out.Issued)
	}
}

func TestResultOfRendersOutcome(t *testing.T) {
	wl := &fakeWorkload{latency: time.Millisecond}
	out, err := ClosedLoop(context.Background(), wl, ClosedLoopConfig{
		Concurrency: 2, Duration: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	r := ResultOf(out)
	if r.Mode != "closed" || r.Concurrency != 2 {
		t.Errorf("mode/concurrency: %+v", r)
	}
	if r.Issued != out.Issued || r.Units != out.Units {
		t.Errorf("counts: %+v vs %+v", r, out)
	}
	if r.UnitsPerSec <= 0 || r.LatencyMicros.Count != out.Latency.Count() {
		t.Errorf("derived fields: %+v", r)
	}
}
