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

// send delivers ops to the site in one signed envelope — a plain call for a
// single op, the batch frame for several, so the wire carries what it always
// has — and decodes op i's record into recs[i]. It owns the client's only
// retry loop: the whole envelope is re-sent under the retry policy on
// transport failures and on "unavailable" backpressure from any op.
// Name-based dedupe makes the replay safe — an op that already finished
// replays its terminal record, one that never arrived runs fresh.
//
// Per-op service faults of a multi-op envelope come back in faults (nil when
// every op succeeded); a lone op's fault is the envelope's error, as
// ogsi.Client.Call reports it.
func (c *Client) send(ctx context.Context, ops []ogsi.BatchOp, recs []Record) (faults []error, err error) {
	wireOp := ops[0].Op
	if len(ops) > 1 {
		wireOp = "batch"
	}
	var lastErr error
	attempts := c.Retry.attempts()
	for try := 0; try < attempts; try++ {
		if try > 0 {
			c.retries.Inc()
			select {
			case <-time.After(c.Retry.delay(try - 1)):
			case <-ctx.Done():
				return nil, fmt.Errorf("ntcp: %s: %w (last error: %v)", wireOp, ctx.Err(), lastErr)
			}
			clear(recs) // nothing of a failed attempt's reply may show through the next one
		}
		c.calls.Inc()
		start := time.Now()
		faults, err = c.roundTrip(ctx, ops, recs)
		if err != nil {
			c.failedRTT.ObserveDuration(time.Since(start))
			lastErr = err
			if !transient(err) || ctx.Err() != nil {
				return nil, err
			}
			continue
		}
		// The round-trip histogram is success-only: a retry storm's
		// instantly-failing attempts would otherwise drag p99 for the
		// round trips that actually completed.
		c.observeRTT(ctx, time.Since(start))
		if lastErr = firstTransient(faults); lastErr != nil {
			continue
		}
		if try > 0 {
			c.recovered.Inc()
			c.tel.Event("ntcp-client", "recovered", map[string]any{"op": wireOp, "attempt": try + 1})
		}
		return faults, nil
	}
	return nil, fmt.Errorf("ntcp: %s failed after %d attempts: %w", wireOp, attempts, lastErr)
}

// roundTrip is one attempt of send.
func (c *Client) roundTrip(ctx context.Context, ops []ogsi.BatchOp, recs []Record) ([]error, error) {
	if len(ops) == 1 {
		return nil, c.og.Call(ctx, c.ServiceName, ops[0].Op, ops[0].Params, &recs[0])
	}
	for i := range ops {
		ops[i].Out = &recs[i]
	}
	return c.og.CallBatch(ctx, c.ServiceName, ops)
}

// firstTransient returns the first fault worth retrying the envelope for.
func firstTransient(faults []error) error {
	for _, f := range faults {
		if transient(f) {
			return f
		}
	}
	return nil
}

// call sends one operation and returns its record.
func (c *Client) call(ctx context.Context, op string, params any) (*Record, error) {
	recs := make([]Record, 1)
	if _, err := c.send(ctx, []ogsi.BatchOp{{Op: op, Params: params}}, recs); err != nil {
		return nil, err
	}
	return &recs[0], nil
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

// outcome pairs a record with the error Run and RunFast report for it: a
// rejection or an execution failure is an outcome the caller must see, not a
// transport error.
func outcome(rec *Record) (*Record, error) {
	switch rec.State {
	case StateRejected:
		return rec, &RejectionError{Record: rec}
	case StateFailed:
		return rec, &ExecutionError{Record: rec}
	}
	return rec, nil
}

// Run is the full propose→execute cycle one MS-PSDS step performs against
// one site. On rejection it returns the record with an error matching
// ErrRejected so the coordinator can cancel sibling transactions at other
// sites.
func (c *Client) Run(ctx context.Context, p *Proposal) (*Record, error) {
	rec, err := c.Propose(ctx, p)
	if err != nil {
		return nil, err
	}
	switch rec.State {
	case StateRejected, StateExecuted, StateFailed:
		// Decided already (Executed/Failed: a deduplicated replay of a
		// finished transaction).
		return outcome(rec)
	}
	// Accepted, or still in flight: Execute waits for the outcome.
	rec, err = c.Execute(ctx, p.Name)
	if err != nil {
		return rec, err
	}
	return outcome(rec)
}
