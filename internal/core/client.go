package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"neesgrid/internal/ogsi"
	"neesgrid/internal/telemetry"
	"neesgrid/internal/trace"
)

// RetryPolicy controls the client side of NTCP fault tolerance: how many
// times a request is re-sent across transient failures. Because the server
// deduplicates by transaction name, retries are safe — the same action is
// never executed twice.
type RetryPolicy struct {
	// Attempts is the total number of tries per request (1 = no retry).
	Attempts int
	// Backoff is the delay before the first retry; it doubles per retry.
	Backoff time.Duration
	// MaxBackoff caps the growing delay.
	MaxBackoff time.Duration
}

// DefaultRetry is the fault-tolerant profile used by MOST-class
// coordinators.
var DefaultRetry = RetryPolicy{Attempts: 5, Backoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second}

// NoRetry disables retries — the configuration the public MOST run's
// coordinator effectively had ("the simulation coordinator had not been
// coded to take advantage of all the fault-tolerance features"), which is
// why a final network error ended the experiment at step 1493.
var NoRetry = RetryPolicy{Attempts: 1}

func (r RetryPolicy) attempts() int {
	if r.Attempts < 1 {
		return 1
	}
	return r.Attempts
}

// defaultMaxBackoff caps exponential growth when a policy sets no
// MaxBackoff. Without a cap, repeated doubling overflows time.Duration to a
// negative value around retry 38, and time.After(negative) fires
// immediately — turning backoff into a hot retry loop.
const defaultMaxBackoff = 30 * time.Second

func (r RetryPolicy) delay(retry int) time.Duration {
	d := r.Backoff
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	max := r.MaxBackoff
	if max <= 0 {
		max = defaultMaxBackoff
	}
	// Stop doubling at the cap: the loop exits before d can overflow.
	for i := 0; i < retry && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}

// ClientStats counts client activity, including how many transient failures
// the retry loop recovered from — the number §3.4 reports qualitatively
// ("several transient network failures").
type ClientStats struct {
	Calls     int
	Retries   int
	Recovered int // calls that ultimately succeeded after ≥1 retry
}

// Client drives a remote NTCP server. Safe for concurrent use. Counters and
// the round-trip histogram live in a telemetry registry (shared with the
// coordinator when wired, private otherwise); Stats reads them back, so the
// pre-telemetry API is unchanged.
type Client struct {
	og *ogsi.Client
	// ServiceName defaults to "ntcp".
	ServiceName string
	Retry       RetryPolicy

	tel       *telemetry.Registry
	calls     *telemetry.Counter
	retries   *telemetry.Counter
	recovered *telemetry.Counter
	rtt       *telemetry.Histogram
	failedRTT *telemetry.Histogram
	siteRTT   *telemetry.Histogram // per-site split, set by LabelSite
}

// NewClient wraps an OGSI client as an NTCP client with a private telemetry
// registry.
func NewClient(og *ogsi.Client, retry RetryPolicy) *Client {
	return NewClientWithTelemetry(og, retry, nil)
}

// NewClientWithTelemetry wraps an OGSI client as an NTCP client recording
// into reg (nil allocates a private registry). Metric names: ntcp.client.*.
func NewClientWithTelemetry(og *ogsi.Client, retry RetryPolicy, reg *telemetry.Registry) *Client {
	reg = telemetry.OrNew(reg)
	og.UseTelemetry(reg)
	return &Client{
		og:          og,
		ServiceName: "ntcp",
		Retry:       retry,
		tel:         reg,
		calls:       reg.Counter("ntcp.client.calls"),
		retries:     reg.Counter("ntcp.client.retries"),
		recovered:   reg.Counter("ntcp.client.recovered"),
		rtt:         reg.Histogram("ntcp.client.rtt.seconds"),
		failedRTT:   reg.Histogram("ntcp.client.failed_rtt.seconds"),
	}
}

// Telemetry exposes the client's metrics registry.
func (c *Client) Telemetry() *telemetry.Registry { return c.tel }

// LabelSite additionally records successful round trips into a per-site
// histogram ntcp.client.<site>.rtt.seconds. The MOST coordinator shares
// one registry across all its site clients; the label is what lets the
// obs aggregator and `mostctl top` show each site's RTT quantiles
// separately while the unlabeled histogram keeps the experiment-wide
// distribution. Returns c for chaining.
func (c *Client) LabelSite(site string) *Client {
	if site != "" {
		c.siteRTT = c.tel.Histogram("ntcp.client." + site + ".rtt.seconds")
	}
	return c
}

// observeRTT records one successful round trip into the shared (and, when
// labeled, per-site) histogram, attaching the calling step's trace ID as
// the exemplar so a slow p99 resolves to a `mostctl trace` timeline.
func (c *Client) observeRTT(ctx context.Context, d time.Duration) {
	traceID := trace.SpanContextFromContext(ctx).TraceID
	c.rtt.ObserveDurationExemplar(d, traceID)
	if c.siteRTT != nil {
		c.siteRTT.ObserveDurationExemplar(d, traceID)
	}
}

// Stats returns a snapshot of client counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Calls:     int(c.calls.Value()),
		Retries:   int(c.retries.Value()),
		Recovered: int(c.recovered.Value()),
	}
}

// transient reports whether an error is worth retrying: transport failures
// and "still executing" backpressure are; service faults (policy
// rejections, conflicts, unknown names) are not.
func transient(err error) bool {
	if err == nil {
		return false
	}
	var re *ogsi.RemoteError
	if errors.As(err, &re) {
		return re.Code == ogsi.CodeUnavailable
	}
	return true // transport-level failure
}

// call performs one operation under the retry policy.
func (c *Client) call(ctx context.Context, op string, params any) (*Record, error) {
	var lastErr error
	attempts := c.Retry.attempts()
	for try := 0; try < attempts; try++ {
		if try > 0 {
			c.retries.Inc()
			select {
			case <-time.After(c.Retry.delay(try - 1)):
			case <-ctx.Done():
				return nil, fmt.Errorf("ntcp: %s: %w (last error: %v)", op, ctx.Err(), lastErr)
			}
		}
		c.calls.Inc()
		var rec Record
		start := time.Now()
		err := c.og.Call(ctx, c.ServiceName, op, params, &rec)
		if err == nil {
			// The round-trip histogram is success-only: a retry storm's
			// instantly-failing attempts would otherwise drag p99 for the
			// round trips that actually completed.
			c.observeRTT(ctx, time.Since(start))
			if try > 0 {
				c.recovered.Inc()
				c.tel.Event("ntcp-client", "recovered", map[string]any{"op": op, "attempt": try + 1})
			}
			return &rec, nil
		}
		c.failedRTT.ObserveDuration(time.Since(start))
		lastErr = err
		if !transient(err) || ctx.Err() != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("ntcp: %s failed after %d attempts: %w", op, attempts, lastErr)
}

// Propose submits a proposal and returns the resulting record (accepted or
// rejected).
func (c *Client) Propose(ctx context.Context, p *Proposal) (*Record, error) {
	return c.call(ctx, "propose", p)
}

// Execute runs an accepted transaction and returns the record with results
// (state executed) or the failure record (state failed).
func (c *Client) Execute(ctx context.Context, name string) (*Record, error) {
	return c.call(ctx, "execute", nameParams{Name: name})
}

// Cancel aborts an accepted transaction.
func (c *Client) Cancel(ctx context.Context, name string) (*Record, error) {
	return c.call(ctx, "cancel", nameParams{Name: name})
}

// Get fetches a transaction record without side effects.
func (c *Client) Get(ctx context.Context, name string) (*Record, error) {
	return c.call(ctx, "get", nameParams{Name: name})
}

// ErrRejected is returned by Run when the proposal is rejected.
var ErrRejected = errors.New("ntcp: proposal rejected")

// ErrFailed is returned by Run when execution fails.
var ErrFailed = errors.New("ntcp: execution failed")

// Run is the full propose→execute cycle one MS-PSDS step performs against
// one site. On rejection it returns the record joined with ErrRejected so
// the coordinator can cancel sibling transactions at other sites.
func (c *Client) Run(ctx context.Context, p *Proposal) (*Record, error) {
	rec, err := c.Propose(ctx, p)
	if err != nil {
		return nil, err
	}
	switch rec.State {
	case StateRejected:
		return rec, fmt.Errorf("%w: %s", ErrRejected, rec.Error)
	case StateAccepted:
	case StateExecuted:
		return rec, nil // deduplicated replay of a finished transaction
	case StateFailed:
		return rec, fmt.Errorf("%w: %s", ErrFailed, rec.Error)
	default:
		// Executing or another transient state: fall through to Execute,
		// which waits for the outcome.
	}
	rec, err = c.Execute(ctx, p.Name)
	if err != nil {
		return rec, err
	}
	if rec.State == StateFailed {
		return rec, fmt.Errorf("%w: %s", ErrFailed, rec.Error)
	}
	return rec, nil
}
