package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Default retry policy, matching what loadgen historically hand-rolled.
const (
	defaultRetryAttempts = 5
	defaultRetryBase     = 50 * time.Millisecond
	defaultRetryCap      = 2 * time.Second
)

// maxResponseBytes bounds how much of a response body the client will
// buffer; mirrors the server's own request cap.
const maxResponseBytes = 64 << 20

// ErrRetriesExhausted wraps the last failure once the retry budget is
// spent; test with errors.Is.  errors.As against *APIError still
// recovers the final server error.
var ErrRetriesExhausted = errors.New("retries exhausted")

// APIError is a non-2xx response, decoded from the v1 error envelope
// when the server sent one (plain bodies from proxies or pre-envelope
// servers degrade to Code "" and the raw text as Message).
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable classification (the Code* constants),
	// or "" when the response carried no envelope.
	Code string
	// Message is the human-readable error text.
	Message string
	// RetryAfter is the server's requested backoff (from the
	// Retry-After header or the envelope), 0 if absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("server: %s (%s, HTTP %d)", e.Message, e.Code, e.Status)
	}
	return fmt.Sprintf("server: %s (HTTP %d)", e.Message, e.Status)
}

// Temporary reports whether retrying the same request can succeed.  It
// switches on the error code first — backlog shedding, quarantined
// shards/nodes, a read-only latch and timeouts are transient; malformed
// requests, unknown trajectories, retired generations, ingest-disabled
// and not-leader are not, whatever their status.  Without a code it
// falls back to the status-class heuristic (429 or 5xx).
func (e *APIError) Temporary() bool {
	switch e.Code {
	case CodeBacklog, CodeShardQuarantined, CodeNodeQuarantined, CodeReadOnly, CodeTimeout, CodeInternal:
		return true
	case CodeBadRequest, CodeUnknownTrajectory, CodeTooLarge, CodeGenRetired, CodeGenUnknown,
		CodeIngestDisabled, CodeNotLeader, CodeWALTruncated, CodeUnsupported, CodeNotFound:
		return false
	}
	return e.Status == http.StatusTooManyRequests || e.Status >= 500
}

// CodeNotFound: the named resource does not exist (e.g. a replication
// artifact already garbage-collected).  Declared here with the other
// codes' semantics; kept separate so types.go lists only the
// query-plane vocabulary first.
const CodeNotFound = "not_found"

// Options configures a Client.  The zero value is usable.
type Options struct {
	// HTTPClient is the underlying transport; defaults to a client
	// without a global timeout (per-call contexts govern deadlines —
	// watch long-polls legitimately run for minutes).
	HTTPClient *http.Client
	// RetryAttempts is the total number of tries (default 5).
	// 1 disables retry.
	RetryAttempts int
	// RetryBase and RetryCap bound the exponential backoff between
	// tries (defaults 50ms and 2s).  The delay for attempt k is
	// min(RetryBase<<k, RetryCap) halved plus jitter; a longer
	// server-sent Retry-After wins.
	RetryBase time.Duration
	RetryCap  time.Duration
	// OnRetry, when set, observes each scheduled retry.
	OnRetry func(attempt int, err error, delay time.Duration)
}

// Client talks to one utcqd base URL, a node or a router.  It is safe for
// concurrent use.
type Client struct {
	base string
	hc   *http.Client
	opts Options
}

// New builds a Client for baseURL (e.g. "http://127.0.0.1:8723").
func New(baseURL string, opts Options) *Client {
	if opts.HTTPClient == nil {
		opts.HTTPClient = &http.Client{}
	}
	if opts.RetryAttempts <= 0 {
		opts.RetryAttempts = defaultRetryAttempts
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = defaultRetryBase
	}
	if opts.RetryCap <= 0 {
		opts.RetryCap = defaultRetryCap
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), hc: opts.HTTPClient, opts: opts}
}

// BaseURL returns the base URL the client was built with.
func (c *Client) BaseURL() string { return c.base }

// Where runs a probabilistic where-query (paper Def. 10).
func (c *Client) Where(ctx context.Context, req WhereRequest) ([]WhereResult, error) {
	var resp struct {
		Results []WhereResult `json:"results"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/where", genQuery(req.Gen), req, &resp, true); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// When runs a probabilistic when-query (paper Def. 11).
func (c *Client) When(ctx context.Context, req WhenRequest) ([]WhenResult, error) {
	var resp struct {
		Results []WhenResult `json:"results"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/when", genQuery(req.Gen), req, &resp, true); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Range runs a probabilistic range-query (paper Def. 12).  Check
// Degraded before treating the answer as complete.
func (c *Client) Range(ctx context.Context, req RangeRequest) (RangeResult, error) {
	var resp RangeResult
	err := c.do(ctx, http.MethodPost, "/v1/range", genQuery(req.Gen), req, &resp, true)
	return resp, err
}

// Batch runs a mixed batch; results come back in request order with
// per-query errors in-band.
func (c *Client) Batch(ctx context.Context, req BatchRequest) ([]BatchResult, error) {
	var resp struct {
		Results []BatchResult `json:"results"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/batch", genQuery(req.Gen), req, &resp, true); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// Ingest submits raw trajectories.  The call is NOT idempotent:
// transport failures are returned immediately (the batch may or may not
// have been acknowledged server-side) and only a backlog rejection —
// which acknowledges nothing — is retried.
func (c *Client) Ingest(ctx context.Context, trajs []RawTrajectory, flush bool) (IngestResponse, error) {
	var resp IngestResponse
	err := c.do(ctx, http.MethodPost, "/v1/ingest", nil, IngestRequest{Trajectories: trajs, Flush: flush}, &resp, false)
	return resp, err
}

// Compact asks the server to fold delta shards into their base shards.
func (c *Client) Compact(ctx context.Context) (CompactResponse, error) {
	var resp CompactResponse
	err := c.do(ctx, http.MethodPost, "/v1/compact", nil, nil, &resp, true)
	return resp, err
}

// Stats fetches /v1/stats.
func (c *Client) Stats(ctx context.Context) (StatsResponse, error) {
	var resp StatsResponse
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, nil, &resp, true)
	return resp, err
}

// Health fetches /healthz.  Both "ok" and "degraded" are HTTP 200, so a
// degraded report is a nil-error return with Status "degraded".
func (c *Client) Health(ctx context.Context) (Health, error) {
	var resp Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, nil, &resp, true)
	return resp, err
}

func genQuery(gen uint64) url.Values {
	if gen == 0 {
		return nil
	}
	return url.Values{"gen": []string{strconv.FormatUint(gen, 10)}}
}

// do runs one logical API call with the retry policy.  A non-idempotent
// call (ingest) returns transport errors immediately — the request may
// have been applied — and status-retries only CodeBacklog, which
// guarantees nothing was acknowledged.
func (c *Client) do(ctx context.Context, method, path string, q url.Values, in, out any, idempotent bool) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("marshal request: %w", err)
		}
	}
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}

	var lastErr error
	for attempt := 0; ; attempt++ {
		var retryAfter time.Duration
		err := c.once(ctx, method, u, body, out)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = err
		var ae *APIError
		if errors.As(err, &ae) {
			retryAfter = ae.RetryAfter
			if !ae.Temporary() {
				return err
			}
			if !idempotent && ae.Code != CodeBacklog {
				return err
			}
		} else if !idempotent {
			// Transport error on a non-idempotent call: the server may
			// have processed the request; resending could duplicate it.
			return err
		}
		if attempt+1 >= c.opts.RetryAttempts {
			return fmt.Errorf("%w: giving up after %d attempts: %w", ErrRetriesExhausted, c.opts.RetryAttempts, lastErr)
		}
		delay := c.backoff(attempt, retryAfter)
		if c.opts.OnRetry != nil {
			c.opts.OnRetry(attempt+1, lastErr, delay)
		}
		t := time.NewTimer(delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}

// once performs a single HTTP exchange.
func (c *Client) once(ctx context.Context, method, u string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeAPIError(resp)
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxResponseBytes))
		return nil
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxResponseBytes)).Decode(out); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}
	return nil
}

// decodeAPIError reads a non-2xx response into an APIError, preferring
// the v1 envelope and falling back to the raw body text.
func decodeAPIError(resp *http.Response) *APIError {
	ae := &APIError{Status: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var env ErrorResponse
	if json.Unmarshal(raw, &env) == nil && env.Error != "" {
		ae.Code, ae.Message = env.Code, env.Error
		if ae.RetryAfter == 0 && env.RetryAfter > 0 {
			ae.RetryAfter = time.Duration(env.RetryAfter) * time.Second
		}
		return ae
	}
	ae.Message = strings.TrimSpace(string(raw))
	if ae.Message == "" {
		ae.Message = http.StatusText(resp.StatusCode)
	}
	return ae
}

// backoff computes the sleep before retry #attempt+1: exponential with
// a cap, halved with jitter to decorrelate clients, and never shorter
// than a server-sent Retry-After.
func (c *Client) backoff(attempt int, retryAfter time.Duration) time.Duration {
	delay := c.opts.RetryBase << attempt
	if delay > c.opts.RetryCap || delay <= 0 {
		delay = c.opts.RetryCap
	}
	half := delay / 2
	delay = half + time.Duration(rand.Int64N(int64(half)+1))
	if retryAfter > delay {
		delay = retryAfter
	}
	return delay
}
