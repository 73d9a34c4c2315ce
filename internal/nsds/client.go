package nsds

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"

	"neesgrid/internal/runtime"
)

// Client consumes a remote NSDS stream: the server's batch frames are
// decoded into *Batch values delivered on Batches().
type Client struct {
	conn      net.Conn
	batches   chan *Batch
	done      chan struct{}
	closeOnce sync.Once
}

// Dial connects and subscribes to channels (empty = all) with the binary
// wire format. buffer is the receive depth in batches (< 1 picks 64). With
// catchUp the server sends its retained history for the channels first,
// then the live stream — a viewer joining mid-experiment sees history
// immediately.
func Dial(addr string, buffer int, catchUp bool, channels []string) (*Client, error) {
	conn, err := runtime.Dial(context.TODO(), addr)
	if err != nil {
		return nil, fmt.Errorf("nsds: dial %s: %w", addr, err)
	}
	msg := subscribeMsg{Channels: channels, Buffer: buffer, CatchUp: catchUp, Format: "binary"}
	if err := json.NewEncoder(conn).Encode(msg); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("nsds: subscribe: %w", err)
	}
	c := &Client{conn: conn, batches: make(chan *Batch, bufferDepth(buffer)), done: make(chan struct{})}
	go c.decode()
	return c, nil
}

// decode feeds Batches() until the connection ends or Close is called: a
// consumer that has stopped reading cannot strand it on a full channel.
func (c *Client) decode() {
	defer close(c.batches)
	dec := newFrameDecoder(c.conn)
	for {
		samples, err := dec.Next()
		if err != nil {
			return
		}
		select {
		case c.batches <- &Batch{Samples: samples}:
		case <-c.done:
			return
		}
	}
}

// Batches returns the received batch stream; closed on disconnect.
func (c *Client) Batches() <-chan *Batch { return c.batches }

// Close disconnects and stops the decoder.
func (c *Client) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return c.conn.Close()
}
