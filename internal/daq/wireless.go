package daq

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// The §5 UCLA field test: "field testing of a four-story office building …
// gathering acceleration, strain, and displacement data using wireless
// sensor arrays (802.11 wireless telemetry) … Data and video streams will
// be recorded and archived at a mobile command center before transmission
// to the laboratory using satellite telemetry." This file models the three
// pieces that differ from a wired lab DAQ: lossy wireless telemetry, the
// buffering command center, and a high-latency, batch-limited satellite
// uplink.

// WirelessNode is one battery-powered sensor node.
type WirelessNode struct {
	Channel Channel
	// LinkQuality ∈ (0,1]: the per-scan delivery probability of the
	// node's 802.11 link.
	LinkQuality float64
}

// WirelessArray samples nodes over lossy links. Deterministic under a seed.
type WirelessArray struct {
	Site string

	mu    sync.Mutex
	nodes []WirelessNode
	rng   *rand.Rand
	sent  int
	lost  int
}

// NewWirelessArray builds an array; seed fixes loss and noise.
func NewWirelessArray(site string, seed int64) *WirelessArray {
	return &WirelessArray{Site: site, rng: rand.New(rand.NewSource(seed))}
}

// AddNode registers a sensor node.
func (w *WirelessArray) AddNode(n WirelessNode) error {
	if n.Channel.Name == "" || n.Channel.Read == nil {
		return fmt.Errorf("daq: wireless node needs a named channel with a source")
	}
	if n.LinkQuality <= 0 || n.LinkQuality > 1 {
		return fmt.Errorf("daq: node %q link quality %g outside (0,1]", n.Channel.Name, n.LinkQuality)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.nodes = append(w.nodes, n)
	return nil
}

// Scan samples every node; readings whose packets are lost in the air are
// simply absent from the result (the telemetry is unacknowledged).
func (w *WirelessArray) Scan(step int, t float64) []Reading {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]Reading, 0, len(w.nodes))
	for _, n := range w.nodes {
		w.sent++
		if w.rng.Float64() > n.LinkQuality {
			w.lost++
			continue
		}
		gain := n.Channel.Gain
		if gain == 0 {
			gain = 1
		}
		v := n.Channel.Read()*gain + w.rng.NormFloat64()*n.Channel.NoiseStd
		out = append(out, Reading{
			Channel: n.Channel.Name, Kind: string(n.Channel.Kind), Units: n.Channel.Units,
			Step: step, T: t, Value: v,
		})
	}
	return out
}

// Stats returns (packets sent, packets lost).
func (w *WirelessArray) Stats() (sent, lost int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sent, w.lost
}

// CommandCenter is the mobile archive: every received reading is retained
// locally (the authoritative record) and queued for uplink.
type CommandCenter struct {
	mu      sync.Mutex
	archive []Reading
	queue   []Reading
}

// NewCommandCenter returns an empty command center.
func NewCommandCenter() *CommandCenter { return &CommandCenter{} }

// Receive archives readings and queues them for transmission.
func (c *CommandCenter) Receive(rs []Reading) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.archive = append(c.archive, rs...)
	c.queue = append(c.queue, rs...)
}

// Archived returns the local record length.
func (c *CommandCenter) Archived() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.archive)
}

// takeBatch pops up to n queued readings.
func (c *CommandCenter) takeBatch(n int) []Reading {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n > len(c.queue) {
		n = len(c.queue)
	}
	batch := append([]Reading(nil), c.queue[:n]...)
	c.queue = c.queue[n:]
	return batch
}

// requeue returns an unsent batch to the front of the queue.
func (c *CommandCenter) requeue(batch []Reading) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queue = append(batch, c.queue...)
}

// SatelliteLink models the telemetry back to the laboratory: per-batch
// latency and a bounded batch size. Deliver is the lab-side sink (e.g. a
// repository ingest).
type SatelliteLink struct {
	// Latency is the per-batch transmission delay.
	Latency time.Duration
	// BatchLimit bounds the readings per transmission; ≤0 means 256.
	BatchLimit int
	// Deliver receives each batch at the laboratory.
	Deliver func(batch []Reading) error
}

func (l *SatelliteLink) batchLimit() int {
	if l.BatchLimit > 0 {
		return l.BatchLimit
	}
	return 256
}

// Uplink transmits the command center's queue over the link, one batch per
// latency window, stopping at the first delivery failure (the batch is
// requeued). It returns the number of readings delivered.
func (c *CommandCenter) Uplink(link *SatelliteLink) (int, error) {
	if link.Deliver == nil {
		return 0, fmt.Errorf("daq: satellite link has no delivery sink")
	}
	delivered := 0
	for {
		batch := c.takeBatch(link.batchLimit())
		if len(batch) == 0 {
			return delivered, nil
		}
		if link.Latency > 0 {
			time.Sleep(link.Latency)
		}
		if err := link.Deliver(batch); err != nil {
			c.requeue(batch)
			return delivered, fmt.Errorf("daq: satellite uplink: %w", err)
		}
		delivered += len(batch)
	}
}
