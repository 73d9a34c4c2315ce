package runtime

import (
	"context"
	"net"
	"time"
)

// Env is the world a component runs in: the clock it reads and the network
// it listens and dials on. The zero Env is the real one, wall time and the
// kernel's TCP; a test swaps either half, and everything built on one Env
// reads the same clock and reaches the same network.
type Env struct {
	Clock Clock
	Net   Net
}

// Clock is a source of the current time.
type Clock interface {
	Now() time.Time
}

// Net is where listeners bind and dials connect. Addresses are host:port.
type Net interface {
	Listen(addr string) (net.Listener, error)
	Dial(ctx context.Context, addr string) (net.Conn, error)
}

// Now reads e's clock.
func (e Env) Now() time.Time {
	if e.Clock == nil {
		return time.Now()
	}
	return e.Clock.Now()
}

// Listen binds addr on e's network.
func (e Env) Listen(addr string) (net.Listener, error) {
	if e.Net == nil {
		return net.Listen("tcp", addr)
	}
	return e.Net.Listen(addr)
}

// Dial connects to addr on e's network.
func (e Env) Dial(ctx context.Context, addr string) (net.Conn, error) {
	if e.Net == nil {
		return Dial(ctx, addr)
	}
	return e.Net.Dial(ctx, addr)
}
