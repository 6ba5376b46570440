// Package client is the official Go SDK for brokerd, the posted-price
// data-market broker. It speaks the public wire contract of package
// datamarket/api over HTTP with a pooled transport, verifies API
// compatibility against the server on first use, retries idempotent
// calls with exponential backoff, and layers two protocol helpers on
// top of the raw endpoints:
//
//   - Flusher coalesces concurrent Price calls into multi-stream batch
//     requests (/v1/price/batch): a lone caller pays one round trip and
//     no wait, while callers that arrive during a request in flight
//     share the next one, turning per-round HTTP overhead into per-batch
//     overhead transparently;
//   - QuoteSession drives the two-phase quote → observe protocol and
//     enforces its one-pending-round-per-stream rule client-side, so a
//     protocol violation fails fast in the caller instead of as a 409
//     on the wire.
//
// A minimal pricing loop:
//
//	c, _ := client.New("http://localhost:8080")
//	c.CreateStream(ctx, api.CreateStreamRequest{ID: "segment-a", Dim: 5, Reserve: true})
//	resp, _ := c.Price(ctx, "segment-a", features, reserve, valuation)
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datamarket/api"
	"datamarket/api/binary"
)

// Default retry/backoff configuration.
const (
	DefaultRetries     = 2
	DefaultBackoffBase = 50 * time.Millisecond
	DefaultBackoffMax  = 2 * time.Second
)

// userAgent is the User-Agent header of every request.
const userAgent = "datamarket-client/" + api.APIVersion

// ErrIncompatibleAPI reports that the server speaks a different wire
// contract version than this SDK. Every call fails with it until the
// server (or the SDK) is upgraded.
var ErrIncompatibleAPI = errors.New("client: server API version is incompatible")

// APIError is a non-2xx server response: the HTTP status plus the
// machine-readable code and message from the error envelope. Branch on
// Code (stable), not Message (informational).
type APIError struct {
	Status  int
	Code    api.ErrorCode
	Message string
}

// Error renders the status, code, and message.
func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d (%s): %s", e.Status, e.Code, e.Message)
}

// ErrorCode extracts the stable wire code from an error returned by this
// package ("" when err is not an APIError).
func ErrorCode(err error) api.ErrorCode {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// IsNotFound reports whether err is a 404 from the server (stream or
// market not found).
func IsNotFound(err error) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Status == http.StatusNotFound
}

// Client is a brokerd API client. It is safe for concurrent use; one
// Client per server is the intended shape (it owns the connection pool
// and the client-side two-phase round bookkeeping).
type Client struct {
	base      string
	http      *http.Client
	retries   int
	backoff   time.Duration
	backoffUp time.Duration

	// useBinary is set by WithBinary; binarySeen latches once any
	// response carried the X-Binary-Protocol capability header naming
	// this SDK's codec version. Both must hold before a hot call switches
	// off JSON, which is what makes the codec safe against servers that
	// predate it or speak another version of it.
	useBinary  bool
	binarySeen atomic.Bool

	// verMu guards the one-time compatibility probe. A transient probe
	// failure is not latched — the next call retries it; success and a
	// definitive version mismatch are.
	verMu      sync.Mutex
	verDone    bool
	verErr     error
	serverInfo api.VersionResponse

	// pendingMu guards the per-stream open QuoteSession table.
	pendingMu sync.Mutex
	pending   map[string]*QuoteSession
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the default pooled HTTP client (e.g. to set a
// global timeout or a custom transport).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithRetries sets how many times an idempotent call is retried after a
// transport error or a 5xx (0 disables retries).
func WithRetries(n int) Option { return func(c *Client) { c.retries = n } }

// WithBackoff sets the exponential backoff schedule between retries:
// the first retry waits base, each further retry doubles it, capped at
// max.
func WithBackoff(base, max time.Duration) Option {
	return func(c *Client) { c.backoff, c.backoffUp = base, max }
}

// New builds a client for the server at baseURL (scheme + host, e.g.
// "http://localhost:8080").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: parsing base URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q needs a scheme and host", baseURL)
	}
	c := &Client{
		base:      strings.TrimRight(baseURL, "/"),
		retries:   DefaultRetries,
		backoff:   DefaultBackoffBase,
		backoffUp: DefaultBackoffMax,
		pending:   make(map[string]*QuoteSession),
	}
	for _, opt := range opts {
		opt(c)
	}
	if c.http == nil {
		// A dedicated pooled transport: brokerd clients are typically
		// high-request-rate against one host, so allow a deep idle pool
		// to that host instead of net/http's default of 2.
		c.http = &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        64,
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	return c, nil
}

// ServerVersion returns the server build reported by the compatibility
// probe, running the probe now if it has not happened yet.
func (c *Client) ServerVersion(ctx context.Context) (api.VersionResponse, error) {
	if err := c.ensureCompatible(ctx); err != nil {
		return api.VersionResponse{}, err
	}
	c.verMu.Lock()
	defer c.verMu.Unlock()
	return c.serverInfo, nil
}

// Health probes liveness. (GET /healthz)
func (c *Client) Health(ctx context.Context) (api.HealthResponse, error) {
	var resp api.HealthResponse
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &resp, true)
	return resp, err
}

// ensureCompatible runs the one-time version probe: the first call on
// this client fetches /v1/version and verifies the server speaks this
// SDK's api.APIVersion. A mismatch is latched — every subsequent call
// fails fast with ErrIncompatibleAPI; transient probe failures are not.
func (c *Client) ensureCompatible(ctx context.Context) error {
	c.verMu.Lock()
	defer c.verMu.Unlock()
	if c.verDone {
		return c.verErr
	}
	var resp api.VersionResponse
	if err := c.roundTrip(ctx, http.MethodGet, "/v1/version", nil, &resp, true); err != nil {
		return fmt.Errorf("client: probing server version: %w", err)
	}
	c.verDone = true
	if resp.API != api.APIVersion {
		c.verErr = fmt.Errorf("%w: server speaks %q, this SDK speaks %q",
			ErrIncompatibleAPI, resp.API, api.APIVersion)
	}
	c.serverInfo = resp
	return c.verErr
}

// do is the entry point for every endpoint call: compatibility check,
// then the retrying round trip.
func (c *Client) do(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	if err := c.ensureCompatible(ctx); err != nil {
		return err
	}
	return c.roundTrip(ctx, method, path, in, out, idempotent)
}

// roundTrip marshals in as JSON and sends it via roundTripBytes.
func (c *Client) roundTrip(ctx context.Context, method, path string, in, out any, idempotent bool) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	return c.roundTripBytes(ctx, method, path, body, contentTypeJSON, out, idempotent)
}

// roundTripBytes sends one pre-encoded API request, retrying idempotent
// calls on transport errors and 5xx responses with exponential backoff.
// The body is replayed from memory on each attempt.
func (c *Client) roundTripBytes(ctx context.Context, method, path string, body []byte, contentType string, out any, idempotent bool) error {
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := c.send(ctx, method, path, body, contentType, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !idempotent || attempt >= c.retries || !retryable(err) {
			return lastErr
		}
		if err := c.sleep(ctx, attempt); err != nil {
			return errors.Join(lastErr, err)
		}
	}
}

// retryable reports whether an attempt's failure may be transient: any
// transport error, or a 5xx from the server. 4xx responses are
// definitive and never retried.
func retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status >= 500
	}
	// Not an API response at all — connection refused, reset, EOF…
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// sleep waits out the backoff for the given attempt (base·2^attempt,
// capped), honoring ctx cancellation.
func (c *Client) sleep(ctx context.Context, attempt int) error {
	d := c.backoff << attempt
	if d > c.backoffUp || d <= 0 {
		d = c.backoffUp
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

const contentTypeJSON = "application/json"

// bufPool holds the response-read buffers shared by the success path,
// the error path, and the version probe, so steady-state calls stop
// paying an io.ReadAll allocation per exchange. Buffers that ballooned
// (snapshot bodies) are dropped rather than pooled.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const bufPoolMax = 1 << 20

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b.Cap() <= bufPoolMax {
		b.Reset()
		bufPool.Put(b)
	}
}

// isBinaryBody reports whether a response's Content-Type names the
// binary codec.
func isBinaryBody(resp *http.Response) bool {
	ct, _, _ := strings.Cut(resp.Header.Get("Content-Type"), ";")
	return strings.TrimSpace(ct) == binary.ContentType
}

// send performs exactly one HTTP exchange. A binary content type also
// asks for a binary response via Accept; the response body is decoded by
// its own Content-Type, so a JSON answer from a server that ignores
// Accept still decodes fine.
func (c *Client) send(ctx context.Context, method, path string, body []byte, contentType string, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	if contentType == binary.ContentType {
		req.Header.Set("Accept", binary.ContentType)
	}
	req.Header.Set("User-Agent", userAgent)
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.Header.Get(binary.ProtoHeader) == protoVersion {
		c.binarySeen.Store(true)
	}
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil || resp.StatusCode == http.StatusNoContent {
		return nil
	}
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return fmt.Errorf("client: reading %s %s response: %w", method, path, err)
	}
	if isBinaryBody(resp) {
		err = binary.Decode(buf.Bytes(), out)
	} else {
		err = json.Unmarshal(buf.Bytes(), out)
	}
	if err != nil {
		return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// decodeError turns a non-2xx response into an *APIError, surviving
// bodies that are not the standard envelope. Error bodies are always the
// JSON envelope regardless of codec negotiation, and are read through
// the shared buffer pool rather than a per-call io.ReadAll.
func decodeError(resp *http.Response) error {
	ae := &APIError{Status: resp.StatusCode, Code: api.CodeInternal}
	buf := getBuf()
	defer putBuf(buf)
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, 1<<20)); err != nil {
		ae.Message = "unreadable error body: " + err.Error()
		return ae
	}
	raw := buf.Bytes()
	var envelope api.ErrorResponse
	if err := json.Unmarshal(raw, &envelope); err == nil && envelope.Error.Code != "" {
		ae.Code = envelope.Error.Code
		ae.Message = envelope.Error.Message
		return ae
	}
	ae.Message = strings.TrimSpace(string(raw))
	return ae
}

// escape path-escapes one identifier for use in a route.
func escape(id string) string { return url.PathEscape(id) }
