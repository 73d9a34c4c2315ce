// Package nsds implements the NEESgrid Streaming Data Service (paper §2.2,
// [13]): a best-effort stream of real-time data from the data acquisition
// system to remote observers. Best-effort is the load-bearing property —
// "earthquake engineering experiments often produce more data than can be
// streamed reliably in real-time" — so a slow subscriber loses samples
// rather than stalling the experiment; the complete record lands in the
// repository instead.
//
// The package is a multi-tier fan-out system (DESIGN.md §5g) with one
// stream shape: every subscriber, in-process or remote, receives whole
// published batches as shared immutable *Batch values. A Hub shards its
// subscribers across per-core lock domains so publish cost stops scaling
// with the subscriber count on one mutex; a Relay subscribes to an
// upstream server over a single connection (a LocalRelay to an in-process
// hub) and re-fans out through its own hub, both through one forward loop,
// so hubs fan out to hubs in a tree; the TCP Server speaks one wire, a
// length-prefixed binary frame that encodes each batch once and writes the
// same bytes to every connection; and the Gateway renders the stream as
// JSON over HTTP Server-Sent Events for browser-class viewers. Every tier
// keeps the same drop semantics: a slow consumer loses data, the tier
// above it never blocks.
package nsds

import (
	"sync"
)

// Sample is one measurement frame.
type Sample struct {
	// Channel is the sensor/channel name (e.g. "uiuc.lvdt1").
	Channel string `json:"channel"`
	// Seq is the monotonically increasing sequence number assigned by the
	// hub at publication.
	Seq uint64 `json:"seq"`
	// T is the experiment time (s).
	T float64 `json:"t"`
	// Value is the reading in channel units.
	Value float64 `json:"value"`
}

// Batch is an immutable group of samples published together (one DAQ scan)
// and delivered to subscribers as a single unit: one channel operation per
// subscriber per batch instead of one per sample. Its wire
// frame is encoded lazily and exactly once, then shared by every
// connection that writes it (encode-once/write-many).
type Batch struct {
	// Samples is in publication (sequence) order. Shared between every
	// subscriber of the batch — callers must not mutate it.
	Samples []Sample

	frameOnce sync.Once
	frame     []byte
}

// newBatch copies samples into an immutable batch. The copy is what makes
// sharing safe: PublishBatch callers may reuse their slice after it
// returns.
func newBatch(samples []Sample) *Batch {
	return &Batch{Samples: append(make([]Sample, 0, len(samples)), samples...)}
}

// filterTo derives the sub-batch a channel filter selects, or nil when the
// filter matches nothing. The derived batch has its own wire frame.
func (b *Batch) filterTo(filter map[string]bool) *Batch {
	n := 0
	for i := range b.Samples {
		if filter[b.Samples[i].Channel] {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	if n == len(b.Samples) {
		return b
	}
	out := make([]Sample, 0, n)
	for i := range b.Samples {
		if filter[b.Samples[i].Channel] {
			out = append(out, b.Samples[i])
		}
	}
	return &Batch{Samples: out}
}

func sortBySeq(ss []Sample) {
	// Insertion sort: history sets are small (retention × channels).
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].Seq < ss[j-1].Seq; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}
