package nsds

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Binary wire format (little-endian, length-prefixed):
//
//	uint32  payload length (bytes after this field)
//	uint8   frame version (wireVersion)
//	uint32  sample count
//	count × sample:
//	    uint16  channel-name length
//	    bytes   channel name
//	    uint64  seq
//	    uint64  float64 bits of T
//	    uint64  float64 bits of Value
//
// One frame carries one published batch. The hub encodes a batch's frame
// exactly once (Batch.Frame, guarded by sync.Once) and every subscriber
// connection writes the same byte slice — encode-once/write-many. It is
// the only TCP stream encoding; JSON survives only as the SSE gateway's
// rendering.

const (
	wireVersion = 1
	// maxFramePayload bounds a decoded frame; anything larger is a corrupt
	// stream, not a batch.
	maxFramePayload = 16 << 20
	// sampleFixedWire is the per-sample wire size excluding the channel
	// name: 2 (name length) + 8 (seq) + 8 (T) + 8 (Value).
	sampleFixedWire = 26
	frameHeaderSize = 4 + 1 + 4
	// maxInterned bounds a decoder's channel-name table: past it, new
	// names are allocated per sample instead of interned, so a peer that
	// streams ever-new names cannot grow the table for the life of the
	// connection.
	maxInterned = 1024
	// readChunk is the most a decoder allocates ahead of the bytes that
	// actually arrive: a header claiming a 16 MiB payload costs 16 MiB
	// only once 16 MiB has been sent.
	readChunk = 64 << 10
)

// frameSize returns the exact encoded size of a frame for samples.
func frameSize(samples []Sample) int {
	n := frameHeaderSize
	for i := range samples {
		n += sampleFixedWire + len(samples[i].Channel)
	}
	return n
}

// appendFrame encodes samples as one wire frame appended to dst.
func appendFrame(dst []byte, samples []Sample) []byte {
	payload := frameSize(samples) - 4
	dst = binary.LittleEndian.AppendUint32(dst, uint32(payload))
	dst = append(dst, wireVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(samples)))
	for i := range samples {
		s := &samples[i]
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s.Channel)))
		dst = append(dst, s.Channel...)
		dst = binary.LittleEndian.AppendUint64(dst, s.Seq)
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.T))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Value))
	}
	return dst
}

// Frame returns the batch's binary wire frame, encoding it on first use
// and returning the same shared bytes to every caller afterwards. Callers
// must treat the slice as immutable.
func (b *Batch) Frame() []byte {
	b.frameOnce.Do(func() {
		b.frame = appendFrame(make([]byte, 0, frameSize(b.Samples)), b.Samples)
	})
	return b.frame
}

// frameDecoder reads wire frames off a connection, reusing its payload
// buffer across frames and interning channel names (up to maxInterned) so
// a million-sample stream allocates a handful of strings, not one per
// sample.
type frameDecoder struct {
	r     *bufio.Reader
	buf   []byte
	names map[string]string
}

func newFrameDecoder(r io.Reader) *frameDecoder {
	return &frameDecoder{r: bufio.NewReaderSize(r, 64<<10), names: make(map[string]string)}
}

// intern returns the canonical string for a channel-name byte run.
func (d *frameDecoder) intern(b []byte) string {
	if s, ok := d.names[string(b)]; ok { // no-alloc map lookup
		return s
	}
	s := string(b)
	if len(d.names) < maxInterned {
		d.names[s] = s
	}
	return s
}

// Next decodes one frame into a freshly allocated sample slice (the caller
// keeps it; the scratch buffer is reused).
func (d *frameDecoder) Next() ([]Sample, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(d.r, hdr[:]); err != nil {
		return nil, err
	}
	payload := binary.LittleEndian.Uint32(hdr[:])
	if payload < 5 || payload > maxFramePayload {
		return nil, fmt.Errorf("nsds: frame payload %d out of range", payload)
	}
	// Grow the reused buffer only as the payload arrives, one chunk at a
	// time.
	buf := d.buf[:0]
	for len(buf) < int(payload) {
		n := min(int(payload)-len(buf), readChunk)
		buf = slices.Grow(buf, n)
		if _, err := io.ReadFull(d.r, buf[len(buf):len(buf)+n]); err != nil {
			return nil, fmt.Errorf("nsds: short frame: %w", err)
		}
		buf = buf[:len(buf)+n]
	}
	d.buf = buf
	if buf[0] != wireVersion {
		return nil, fmt.Errorf("nsds: unknown frame version %d", buf[0])
	}
	count := binary.LittleEndian.Uint32(buf[1:5])
	if int(count) > int(payload)/sampleFixedWire+1 {
		return nil, fmt.Errorf("nsds: frame count %d exceeds payload", count)
	}
	samples := make([]Sample, 0, count)
	p := buf[5:]
	for i := uint32(0); i < count; i++ {
		if len(p) < 2 {
			return nil, fmt.Errorf("nsds: truncated sample header")
		}
		nameLen := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < nameLen+24 {
			return nil, fmt.Errorf("nsds: truncated sample body")
		}
		name := d.intern(p[:nameLen])
		p = p[nameLen:]
		samples = append(samples, Sample{
			Channel: name,
			Seq:     binary.LittleEndian.Uint64(p),
			T:       math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
			Value:   math.Float64frombits(binary.LittleEndian.Uint64(p[16:])),
		})
		p = p[24:]
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("nsds: %d trailing bytes in frame", len(p))
	}
	return samples, nil
}
