package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"insitubits/internal/iosim"
)

// Client talks to an insitu-serve instance with the retry discipline the
// server's admission control assumes: a 429 (shed) or a transport error is
// retried with exponential backoff and full jitter (the iosim.Backoff
// shape), floored by the server's Retry-After hint so a fleet of clients
// never thunders back in lockstep. Anything else — 400s, 500s, and
// successes — returns immediately: a panic-500 or a bad request will not
// get better by retrying.
type Client struct {
	// Base is the server address, e.g. "http://localhost:8689".
	Base string
	// Backoff paces retries. The zero value retries 4 times from 1ms; load
	// tests and bitmapctl widen it.
	Backoff iosim.Backoff

	// Retries counts retried attempts (shed or transport), for reports.
	Retries int
}

// StatusError is a non-200, non-retryable (or retries-exhausted) server
// answer.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: server answered %d: %s", e.Code, e.Msg)
}

// httpClient bounds each attempt at 35s, past the server's maximum request
// deadline.
var httpClient = &http.Client{Timeout: 35 * time.Second}

// Query executes one request, retrying sheds and transport errors under
// the client's backoff. The context bounds the whole retry loop.
func (c *Client) Query(ctx context.Context, req *QueryRequest) (*QueryResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	b := c.Backoff
	if b.Tries <= 0 {
		b.Tries = 4
	}
	if b.Base <= 0 {
		b.Base = time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 100 * time.Millisecond
	}
	if b.Seed == 0 {
		b.Seed = 1
	}
	rng := rand.New(rand.NewSource(b.Seed))
	delay := b.Base
	var lastErr error
	for attempt := 1; ; attempt++ {
		resp, hint, err := c.once(ctx, body)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if se, ok := err.(*StatusError); ok && se.Code != http.StatusTooManyRequests {
			return nil, err // definitive answer: do not retry
		}
		if attempt >= b.Tries {
			return nil, fmt.Errorf("serve: giving up after %d attempts: %w", attempt, lastErr)
		}
		c.Retries++
		if b.OnRetry != nil {
			b.OnRetry(attempt, err)
		}
		// Full jitter over the current ceiling, floored by the server's
		// Retry-After hint: jitter decorrelates the fleet, the floor keeps
		// everyone off the server for as long as it asked.
		sleep := time.Duration(rng.Int63n(int64(delay) + 1))
		if hint > 0 && sleep < hint {
			sleep = hint
		}
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return nil, fmt.Errorf("serve: retry wait: %w", ctx.Err())
		}
		if delay *= 2; delay > b.Max {
			delay = b.Max
		}
	}
}

// once is a single attempt; hint is the server's Retry-After on a shed.
func (c *Client) once(ctx context.Context, body []byte) (_ *QueryResponse, hint time.Duration, _ error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/v1/query", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := httpClient.Do(hreq)
	if err != nil {
		return nil, 0, err // transport error: retryable
	}
	defer hresp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hresp.Body, maxBody))
	if err != nil {
		return nil, 0, err
	}
	if hresp.StatusCode != http.StatusOK {
		var e ErrorResponse
		_ = json.Unmarshal(data, &e)
		if e.Error == "" {
			e.Error = string(data)
		}
		return nil, retryAfterHint(hresp, e), &StatusError{Code: hresp.StatusCode, Msg: e.Error}
	}
	var resp QueryResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, 0, fmt.Errorf("serve: bad response body: %w", err)
	}
	return &resp, 0, nil
}

// retryAfterHint reads the shed backoff hint, preferring the millisecond
// header over the coarse integer-seconds standard one.
func retryAfterHint(hresp *http.Response, e ErrorResponse) time.Duration {
	if ms, err := strconv.ParseInt(hresp.Header.Get("X-Retry-After-Ms"), 10, 64); err == nil && ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	if e.RetryAfterMs > 0 {
		return time.Duration(e.RetryAfterMs) * time.Millisecond
	}
	if sec, err := strconv.ParseInt(hresp.Header.Get("Retry-After"), 10, 64); err == nil && sec > 0 {
		return time.Duration(sec) * time.Second
	}
	return 0
}

// Vars fetches the served catalog listing.
func (c *Client) Vars(ctx context.Context) (map[string]any, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/v1/vars", nil)
	if err != nil {
		return nil, err
	}
	hresp, err := httpClient.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(hresp.Body, maxBody))
	if err != nil {
		return nil, err
	}
	if hresp.StatusCode != http.StatusOK {
		return nil, &StatusError{Code: hresp.StatusCode, Msg: string(data)}
	}
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, err
	}
	return out, nil
}
