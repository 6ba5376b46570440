package client

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"datamarket/api"
)

// Flusher defaults.
const (
	DefaultFlusherMaxBatch = 256
	DefaultFlushTimeout    = 30 * time.Second
)

// ErrFlusherClosed: Price was called after Close.
var ErrFlusherClosed = errors.New("client: flusher is closed")

// FlusherConfig tunes the batches a Flusher sends.
type FlusherConfig struct {
	// MaxBatch caps the rounds in one batch (default 256); a buffer that
	// reaches it is sent at once. Values above api.MaxBatchRounds are
	// clamped to it — the server rejects larger batches whole, which
	// would fail every coalesced caller at once.
	MaxBatch int
	// FlushTimeout bounds one flush's HTTP exchange (default 30s). A
	// batch aggregates many callers, so it cannot ride any single
	// caller's context.
	FlushTimeout time.Duration
}

// Flusher coalesces concurrent Price calls into multi-stream batch
// requests. Callers use it exactly like Client.Price — one call, one
// result — while the wire sees /v1/price/batch requests carrying up to
// MaxBatch rounds: the per-request JSON/dispatch overhead that
// dominates per-round HTTP serving is amortized transparently.
//
// Batching follows the group-commit rule of the journal's committer: a
// call that finds no batch in flight sends its round at once, so a lone
// caller pays one round trip and no wait. Calls that arrive while a
// batch is in flight form the next batch, which goes the moment an
// in-flight batch returns; a buffer that reaches MaxBatch goes at once.
// Rounds for the same stream keep their submission order within a
// batch (the server prices a stream's rounds in request order).
//
// A Flusher holds no goroutine while idle: each batch is sent from a
// goroutine that lives until nothing is left to send.
type Flusher struct {
	c   *Client
	cfg FlusherConfig

	mu       sync.Mutex
	buf      []*flushCall
	inflight int // batches sent and not yet returned
	closed   bool
	senders  sync.WaitGroup // goroutines sending batches; Close waits on them
}

// flushCall is one caller's round: its wire form plus the channel the
// caller blocks on.
type flushCall struct {
	round api.MultiBatchRound
	done  chan struct{}
	res   api.BatchRoundResult
	err   error
}

// NewFlusher builds a Flusher over the client. Close it when done to
// wait for rounds still in flight.
func NewFlusher(c *Client, cfg FlusherConfig) *Flusher {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultFlusherMaxBatch
	}
	if cfg.MaxBatch > api.MaxBatchRounds {
		cfg.MaxBatch = api.MaxBatchRounds
	}
	if cfg.FlushTimeout <= 0 {
		cfg.FlushTimeout = DefaultFlushTimeout
	}
	return &Flusher{c: c, cfg: cfg}
}

// Price prices one full round on the stream, riding whatever batch is
// forming. It blocks until the round's batch has returned (the rest of
// a batch already in flight, if any, plus one HTTP exchange) or ctx is
// done.
//
// A ctx that is already done fails before the round is enqueued, as
// Client.Price fails before sending. A ctx expiry after that abandons
// only the wait: the round is already committed to its batch and will
// still price on the server — like any pricing call that times out
// mid-flight, the mechanism may consume the round.
func (f *Flusher) Price(ctx context.Context, streamID string, features []float64, reserve, valuation float64) (api.PriceResponse, error) {
	if err := ctx.Err(); err != nil {
		return api.PriceResponse{}, err
	}
	call := &flushCall{
		round: api.MultiBatchRound{
			StreamID:  streamID,
			Features:  features,
			Reserve:   reserve,
			Valuation: &valuation,
		},
		done: make(chan struct{}),
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return api.PriceResponse{}, ErrFlusherClosed
	}
	f.buf = append(f.buf, call)
	if f.inflight == 0 || len(f.buf) >= f.cfg.MaxBatch {
		f.inflight++
		f.senders.Add(1)
		go f.send(f.take())
	}
	f.mu.Unlock()

	select {
	case <-call.done:
	case <-ctx.Done():
		return api.PriceResponse{}, ctx.Err()
	}
	if call.err != nil {
		return api.PriceResponse{}, call.err
	}
	if call.res.Error != "" {
		return api.PriceResponse{}, fmt.Errorf("client: round failed: %s", call.res.Error)
	}
	return call.res.PriceResponse, nil
}

// take detaches the current buffer. Callers hold f.mu.
func (f *Flusher) take() []*flushCall {
	batch := f.buf
	f.buf = nil
	return batch
}

// send flushes batch, then whatever buffered while it was in flight,
// until a batch returns to an empty buffer.
func (f *Flusher) send(batch []*flushCall) {
	defer f.senders.Done()
	for len(batch) > 0 {
		f.flush(batch)
		f.mu.Lock()
		if batch = f.take(); len(batch) == 0 {
			f.inflight--
		}
		f.mu.Unlock()
	}
}

// flush sends one batch and routes each result (or the batch-wide
// error) to its caller.
func (f *Flusher) flush(batch []*flushCall) {
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.FlushTimeout)
	defer cancel()
	rounds := make([]api.MultiBatchRound, len(batch))
	for i, call := range batch {
		rounds[i] = call.round
	}
	results, err := f.c.PriceMulti(ctx, rounds)
	for i, call := range batch {
		switch {
		case err != nil:
			call.err = err
		case i < len(results):
			call.res = results[i]
		default:
			call.err = fmt.Errorf("client: batch response has %d results for %d rounds",
				len(results), len(batch))
		}
		close(call.done)
	}
}

// Close rejects future Price calls and waits until every round already
// enqueued has been sent and answered.
func (f *Flusher) Close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.senders.Wait()
}
