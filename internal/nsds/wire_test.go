package nsds

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
	"unsafe"
)

func TestWireFrameRoundTrip(t *testing.T) {
	in := []Sample{
		{Channel: "uiuc.disp", Seq: 1, T: 0.01, Value: 1.5e-3},
		{Channel: "uiuc.force", Seq: 2, T: 0.01, Value: -7.7e3},
		{Channel: "", Seq: 3, T: math.Inf(1), Value: math.SmallestNonzeroFloat64},
		{Channel: "uiuc.disp", Seq: 4, T: -0.5, Value: 0},
	}
	frame := appendFrame(nil, in)
	if len(frame) != frameSize(in) {
		t.Fatalf("frame size = %d, frameSize() = %d", len(frame), frameSize(in))
	}
	dec := newFrameDecoder(bytes.NewReader(frame))
	out, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestWireDecoderInternsChannelNames(t *testing.T) {
	in := []Sample{{Channel: "a.disp", Seq: 1}, {Channel: "a.disp", Seq: 2}}
	var buf bytes.Buffer
	buf.Write(appendFrame(nil, in))
	buf.Write(appendFrame(nil, in))
	dec := newFrameDecoder(&buf)
	first, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	second, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	// Interning means the decoder hands out one canonical string across
	// frames instead of allocating per sample.
	if unsafe.StringData(first[0].Channel) != unsafe.StringData(second[1].Channel) {
		t.Fatal("channel names not interned across frames")
	}
}

func TestWireDecoderRejectsCorruptFrames(t *testing.T) {
	good := appendFrame(nil, []Sample{{Channel: "a", Seq: 1}})
	cases := map[string][]byte{
		"bad version":    append(append([]byte{}, good[:4]...), append([]byte{99}, good[5:]...)...),
		"oversize len":   {0xff, 0xff, 0xff, 0xff, wireVersion},
		"truncated body": good[:len(good)-3],
	}
	for name, frame := range cases {
		dec := newFrameDecoder(bytes.NewReader(frame))
		if _, err := dec.Next(); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestBatchFrameEncodedOnceAndShared(t *testing.T) {
	b := newBatch([]Sample{{Channel: "a", Seq: 1}, {Channel: "b", Seq: 2}})
	f1 := b.Frame()
	f2 := b.Frame()
	if &f1[0] != &f2[0] {
		t.Fatal("Frame() re-encoded instead of returning the shared buffer")
	}
	dec := newFrameDecoder(bytes.NewReader(f1))
	out, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, b.Samples) {
		t.Fatalf("decoded %+v, want %+v", out, b.Samples)
	}
}

func TestBatchFilterTo(t *testing.T) {
	b := newBatch([]Sample{{Channel: "a", Seq: 1}, {Channel: "b", Seq: 2}, {Channel: "a", Seq: 3}})
	sub := b.filterTo(map[string]bool{"a": true})
	if len(sub.Samples) != 2 || sub.Samples[0].Seq != 1 || sub.Samples[1].Seq != 3 {
		t.Fatalf("filtered batch = %+v", sub.Samples)
	}
	if b.filterTo(map[string]bool{"zzz": true}) != nil {
		t.Fatal("empty filter result should be nil")
	}
	if all := b.filterTo(map[string]bool{"a": true, "b": true}); all != b {
		t.Fatal("full-coverage filter should reuse the original batch (shared frame)")
	}
}

// A peer that streams ever-new channel names cannot grow the decoder's
// intern table past maxInterned; names beyond it still decode.
func TestWireDecoderInternTableBounded(t *testing.T) {
	in := make([]Sample, maxInterned+100)
	for i := range in {
		in[i] = Sample{Channel: fmt.Sprintf("ch%05d", i), Seq: uint64(i + 1)}
	}
	dec := newFrameDecoder(bytes.NewReader(appendFrame(nil, in)))
	out, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatal("names past the intern bound decoded wrong")
	}
	if len(dec.names) != maxInterned {
		t.Fatalf("intern table holds %d names, want the bound %d", len(dec.names), maxInterned)
	}
}

// FuzzFrameDecoder feeds arbitrary bytes to the decoder as one stream — the
// only TCP wire, read by every relay from an upstream it does not control.
// Whatever they are: no panic; every frame Next accepts re-encodes through
// appendFrame to exactly the bytes it was read from, so the format has one
// encoding per batch; the stream ends with io.EOF exactly when the input
// ends on a frame boundary and with another error otherwise; the intern
// table stays within its bound; and the decoder never allocates out of
// proportion to the bytes it was given (a header may claim a 16 MiB
// payload, but only bytes that arrive are paid for).
func FuzzFrameDecoder(f *testing.F) {
	f.Add(appendFrame(nil, []Sample{{Channel: "uiuc.disp", Seq: 1, T: 0.01, Value: 1.5e-3}}))
	f.Add(appendFrame(appendFrame(nil, []Sample{{Channel: "a", Seq: 1}, {Channel: "b", Seq: 2}}),
		[]Sample{{Channel: "a", Seq: 3, T: math.NaN(), Value: math.Inf(-1)}}))
	f.Add(appendFrame(nil, nil))
	f.Add([]byte{0xff, 0xff, 0xff, 0x00, wireVersion})
	f.Fuzz(func(t *testing.T, in []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		dec := newFrameDecoder(bytes.NewReader(in))
		off := 0
		var err error
		for {
			var samples []Sample
			if samples, err = dec.Next(); err != nil {
				break
			}
			n := 4 + int(binary.LittleEndian.Uint32(in[off:]))
			if re := appendFrame(nil, samples); !bytes.Equal(re, in[off:off+n]) {
				t.Fatalf("frame at %d re-encodes to %x, read from %x", off, re, in[off:off+n])
			}
			off += n
		}
		runtime.ReadMemStats(&after)
		if (err == io.EOF) != (off == len(in)) {
			t.Fatalf("stream ended with %v after %d of %d bytes", err, off, len(in))
		}
		if len(dec.names) > maxInterned {
			t.Fatalf("intern table holds %d names", len(dec.names))
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256<<10+8*uint64(len(in)) {
			t.Fatalf("decoding %d bytes allocated %d", len(in), alloc)
		}
	})
}
