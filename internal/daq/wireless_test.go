package daq

import (
	"fmt"
	"testing"
	"time"
)

func testArray(t *testing.T, quality float64, nodes int) *WirelessArray {
	t.Helper()
	w := NewWirelessArray("ucla", 42)
	for i := 0; i < nodes; i++ {
		err := w.AddNode(WirelessNode{
			Channel:     Channel{Name: fmt.Sprintf("ucla.acc%d", i), Kind: Accelerometer, Units: "m/s2", Read: func() float64 { return 1 }},
			LinkQuality: quality,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestWirelessArrayLosesPackets(t *testing.T) {
	w := testArray(t, 0.8, 10)
	total := 0
	for step := 0; step < 100; step++ {
		total += len(w.Scan(step, float64(step)*0.01))
	}
	sent, lost := w.Stats()
	if sent != 1000 {
		t.Fatalf("sent = %d", sent)
	}
	if lost == 0 {
		t.Fatal("no packets lost at 80% link quality")
	}
	if total+lost != sent {
		t.Fatalf("accounting: %d delivered + %d lost != %d sent", total, lost, sent)
	}
	// Loss rate in a plausible band around 20%.
	if lost < 100 || lost > 320 {
		t.Fatalf("lost %d of 1000 at quality 0.8", lost)
	}
}

func TestWirelessArrayPerfectLink(t *testing.T) {
	w := testArray(t, 1.0, 5)
	got := w.Scan(0, 0)
	if len(got) != 5 {
		t.Fatalf("delivered %d of 5 at perfect quality", len(got))
	}
}

func TestWirelessArrayDeterministic(t *testing.T) {
	run := func() int {
		w := NewWirelessArray("ucla", 7)
		_ = w.AddNode(WirelessNode{
			Channel:     Channel{Name: "c", Read: func() float64 { return 0 }},
			LinkQuality: 0.5,
		})
		n := 0
		for i := 0; i < 200; i++ {
			n += len(w.Scan(i, 0))
		}
		return n
	}
	if run() != run() {
		t.Fatal("loss pattern not deterministic under a fixed seed")
	}
}

func TestWirelessNodeValidation(t *testing.T) {
	w := NewWirelessArray("ucla", 1)
	if err := w.AddNode(WirelessNode{LinkQuality: 0.9}); err == nil {
		t.Fatal("nameless node accepted")
	}
	if err := w.AddNode(WirelessNode{
		Channel:     Channel{Name: "c", Read: func() float64 { return 0 }},
		LinkQuality: 1.5,
	}); err == nil {
		t.Fatal("quality > 1 accepted")
	}
	if err := w.AddNode(WirelessNode{
		Channel:     Channel{Name: "c", Read: func() float64 { return 0 }},
		LinkQuality: 0,
	}); err == nil {
		t.Fatal("quality 0 accepted")
	}
}

func TestCommandCenterArchivesEverythingReceived(t *testing.T) {
	w := testArray(t, 0.7, 8)
	cc := NewCommandCenter()
	for step := 0; step < 50; step++ {
		cc.Receive(w.Scan(step, float64(step)*0.01))
	}
	if cc.Archived() == 0 || cc.Archived() != cc.Pending() {
		t.Fatalf("archived %d, pending %d", cc.Archived(), cc.Pending())
	}
}

func TestSatelliteUplinkBatches(t *testing.T) {
	cc := NewCommandCenter()
	rs := make([]Reading, 25)
	for i := range rs {
		rs[i] = Reading{Channel: "c", Step: i}
	}
	cc.Receive(rs)

	var batches [][]Reading
	link := &SatelliteLink{BatchLimit: 10, Deliver: func(b []Reading) error {
		batches = append(batches, b)
		return nil
	}}
	n, err := cc.Uplink(link)
	if err != nil {
		t.Fatal(err)
	}
	if n != 25 || cc.Pending() != 0 {
		t.Fatalf("delivered %d, pending %d", n, cc.Pending())
	}
	if len(batches) != 3 || len(batches[0]) != 10 || len(batches[2]) != 5 {
		t.Fatalf("batch shape: %d batches", len(batches))
	}
	// The local archive is untouched by transmission.
	if cc.Archived() != 25 {
		t.Fatal("archive lost readings")
	}
}

func TestSatelliteUplinkFailureRequeues(t *testing.T) {
	cc := NewCommandCenter()
	rs := make([]Reading, 30)
	for i := range rs {
		rs[i] = Reading{Channel: "c", Step: i}
	}
	cc.Receive(rs)
	calls := 0
	link := &SatelliteLink{BatchLimit: 10, Deliver: func(b []Reading) error {
		calls++
		if calls == 2 {
			return fmt.Errorf("satellite window closed")
		}
		return nil
	}}
	n, err := cc.Uplink(link)
	if err == nil {
		t.Fatal("expected uplink failure")
	}
	if n != 10 {
		t.Fatalf("delivered %d before failure, want 10", n)
	}
	if cc.Pending() != 20 {
		t.Fatalf("pending %d after requeue, want 20", cc.Pending())
	}
	// A later pass delivers the remainder in order.
	var first Reading
	link2 := &SatelliteLink{BatchLimit: 100, Deliver: func(b []Reading) error {
		first = b[0]
		return nil
	}}
	if _, err := cc.Uplink(link2); err != nil {
		t.Fatal(err)
	}
	if first.Step != 10 {
		t.Fatalf("resumed at step %d, want 10", first.Step)
	}
}

func TestSatelliteUplinkLatencyAndValidation(t *testing.T) {
	cc := NewCommandCenter()
	cc.Receive([]Reading{{Channel: "c"}})
	if _, err := cc.Uplink(&SatelliteLink{}); err == nil {
		t.Fatal("link without sink accepted")
	}
	start := time.Now()
	link := &SatelliteLink{Latency: 20 * time.Millisecond, Deliver: func([]Reading) error { return nil }}
	if _, err := cc.Uplink(link); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("latency not applied")
	}
}

// Pending returns the readings awaiting uplink.
func (c *CommandCenter) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}
