package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"math"

	"datamarket/client"
)

// sizes are a workload's population and batch sizes.
type sizes struct {
	listings int // accommodation: listing table size
	streams  int // impression: stream count
	hashDim  int // impression: hashed CTR vector dimension
	pool     int // impression: impression pool size
	owners   int // ratings: market owners (MovieLens raters)
	movies   int // ratings: catalogue size of the rating corpus
	queries  int // ratings: distinct queries in the Zipf-popular pool
	support  int // ratings: owners a query weights
	batch    int // rounds or trades per PriceBatch/TradeBatch call
}

// paperSizes are the benchmark's sizes. The ratings query pool is larger
// than the broker's 256-entry quote cache, so its hit and miss paths
// both run.
var paperSizes = sizes{
	listings: 4000,
	streams:  32, hashDim: 128, pool: 4096,
	owners: 4000, movies: 2000, queries: 1024, support: 32,
	batch: 64,
}

// shape is a workload's traffic: fixed open-loop rates chosen from the
// measured capacity of the seed commit, never derived at run time.
type shape struct {
	lightRate  float64 // ops/s of the light phase: the broker mostly idle
	loadedRate float64 // ops/s of the loaded phase
	warmup     int     // ops of the warm-up, part of set-up
	warmCalls  int     // concurrent callers during warm-up
	maxOut     int     // open-loop in-flight bound; an op past it waits
	ring       int     // closed-loop ops are drawn from a ring this long
}

// opResult is the outcome of one SDK call.
type opResult struct {
	units  int    // rounds or trades the broker priced
	failed bool   // SDK error, per-item error or failed answer check
	why    string // the first failure, for the report
}

func failure(units int, format string, args ...any) opResult {
	return opResult{units: units, failed: true, why: fmt.Sprintf(format, args...)}
}

// session is one SDK client onto the broker, traced or not.
type session struct {
	c       *client.Client
	flusher *client.Flusher // accommodation prices through it
	tr      *tracer         // nil: untraced
}

// caller issues ops through one session. Callers hold reusable request
// buffers, so one caller serves one op at a time.
type caller interface {
	issue(ctx context.Context, op int) opResult
}

// books is what the broker's own stats endpoints report after a phase.
type books struct {
	rounds   int // rounds (or trades) the broker counted
	regret   float64
	value    float64
	cuts     int
	skips    int
	mechRuns int // mechanism rounds behind the cut and skip counters
}

// workload is one paper-shaped traffic mix. Op indices address the
// pre-generated inputs: the first fixed ops are the warm-up and the two
// open-loop phases, the closed loop walks a ring after them.
type workload interface {
	name() string
	unit() string // what one op's items are: rounds or trades
	shape() shape
	// generate builds every input from the seed. Nothing after it draws
	// random numbers.
	generate(seed uint64, sz sizes, ops int) error
	// digest hashes every generated input.
	digest(h hash.Hash64)
	binary() bool
	// provision creates the workload's streams or market through the SDK.
	provision(ctx context.Context, s *session) error
	newCaller(s *session) caller
	// books reads the broker's stats and checks the books that must
	// balance whatever the traffic.
	books(ctx context.Context, c *client.Client) (books, error)
	replayer
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "accommodation":
		return &accommodation{}, nil
	case "impression":
		return &impression{}, nil
	case "ratings":
		return &ratings{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want accommodation, impression or ratings)", name)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// reserveSlack absorbs the rounding of a reserve that a non-identity link
// maps into score space and back (exp(log q) need not equal q).
const reserveSlack = 1e-9

// checkRound checks one priced round: a finite price, never below the
// reserve when the reserve is on and the round was not skipped, and an
// acceptance that agrees with the valuation.
func checkRound(price float64, decision string, accepted *bool, reserve, valuation float64, reserveOn bool) string {
	if !finite(price) {
		return fmt.Sprintf("price %v is not finite", price)
	}
	if decision == "skip" {
		if !reserveOn {
			return "skip decision on a stream without a reserve"
		}
		if accepted != nil {
			return "skipped round reports an acceptance"
		}
		return ""
	}
	if reserveOn && price < reserve*(1-reserveSlack) {
		return fmt.Sprintf("price %v below reserve %v", price, reserve)
	}
	if accepted == nil || *accepted != (price <= valuation) {
		return fmt.Sprintf("acceptance disagrees with price %v and valuation %v", price, valuation)
	}
	return ""
}

// Digest helpers: every value is hashed by its exact bits.

func hashInt(h hash.Hash64, v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	h.Write(b[:])
}

func hashFloats(h hash.Hash64, vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
}

func hashString(h hash.Hash64, s string) {
	hashInt(h, len(s))
	h.Write([]byte(s))
}
