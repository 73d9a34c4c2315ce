package plugin

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"

	"neesgrid/internal/control"
	"neesgrid/internal/core"
	"neesgrid/internal/runtime"
)

// Mini-MOST integration (§3.5): "the main software change was a new NTCP
// plugin to communicate with LabVIEW. The control code is developed in
// LabVIEW, with a daemon program for NTCP communications." LabViewDaemon
// emulates that daemon — a JSON-lines TCP front end over the stepper rig —
// and LabViewPlugin is the NTCP plugin that speaks to it.

// lvRequest is one JSON-line command to the daemon.
type lvRequest struct {
	Cmd string  `json:"cmd"` // "move", "read", "reset"
	Pos float64 `json:"pos,omitempty"`
}

// lvResponse is the daemon's JSON-line reply.
type lvResponse struct {
	OK     bool    `json:"ok"`
	Error  string  `json:"error,omitempty"`
	Pos    float64 `json:"pos"`
	Force  float64 `json:"force"`
	Strain float64 `json:"strain"`
}

// LabViewDaemon serves the daemon protocol over a StepperBeam rig.
type LabViewDaemon struct {
	rig *control.StepperBeam
	tcp *runtime.ConnServer
}

// NewLabViewDaemon wraps the tabletop rig.
func NewLabViewDaemon(rig *control.StepperBeam) *LabViewDaemon {
	d := &LabViewDaemon{rig: rig}
	d.tcp = runtime.NewConnServer("labview", d.serve)
	return d
}

// Start listens and serves until Close; returns the bound address.
func (d *LabViewDaemon) Start(addr string) (string, error) { return d.tcp.Start(addr) }

// Close stops the listener, severs every open connection and waits for
// their handlers: once Close returns, no command moves the rig.
func (d *LabViewDaemon) Close() error { return d.tcp.Close() }

func (d *LabViewDaemon) serve(_ context.Context, conn net.Conn) {
	sc := bufio.NewScanner(conn)
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		var req lvRequest
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			if encErr := enc.Encode(lvResponse{OK: false, Error: "bad request: " + err.Error()}); encErr != nil {
				return
			}
			continue
		}
		if err := enc.Encode(d.handle(&req)); err != nil {
			return
		}
	}
}

func (d *LabViewDaemon) handle(req *lvRequest) lvResponse {
	switch req.Cmd {
	case "move":
		forces, err := d.rig.Apply([]float64{req.Pos})
		if err != nil {
			return lvResponse{OK: false, Error: err.Error()}
		}
		return lvResponse{OK: true, Pos: d.rig.Position(), Force: forces[0], Strain: d.rig.Strain()}
	case "read":
		return lvResponse{OK: true, Pos: d.rig.Position(), Strain: d.rig.Strain()}
	case "reset":
		_ = d.rig.Reset()
		return lvResponse{OK: true}
	default:
		return lvResponse{OK: false, Error: fmt.Sprintf("unknown command %q", req.Cmd)}
	}
}

// LabViewPlugin is the Mini-MOST NTCP plugin: one JSON-line round trip per
// action against the LabVIEW daemon, on one connection dialed when first
// needed and redialed after a failure.
type LabViewPlugin struct {
	Point string
	Addr  string

	once  sync.Once
	conns *runtime.ConnPool[*daemonConn] // made by the first use
}

// daemonConn is the connection to the daemon and its line codec.
type daemonConn struct {
	net.Conn
	sc  *bufio.Scanner
	enc *json.Encoder
}

// Validate vetoes unknown points, wrong DOF counts and non-finite
// displacements.
func (p *LabViewPlugin) Validate(_ context.Context, actions []core.Action) error {
	return validateChannel("labview", p.Point, 0, actions)
}

func (p *LabViewPlugin) pool() *runtime.ConnPool[*daemonConn] {
	p.once.Do(func() {
		p.conns = runtime.NewConnPool("labview", 1, 0, 0, func(conn net.Conn, _ string) (*daemonConn, error) {
			return &daemonConn{Conn: conn, sc: bufio.NewScanner(conn), enc: json.NewEncoder(conn)}, nil
		})
	})
	return p.conns
}

// Close severs the daemon connection, failing an exchange in flight, and
// refuses later executions.
func (p *LabViewPlugin) Close() error { return p.pool().Close() }

// roundTrip sends one request and reads its reply, bounded by ctx.
func (p *LabViewPlugin) roundTrip(ctx context.Context, req *lvRequest) (*lvResponse, error) {
	pool := p.pool()
	conn, _, err := pool.Get(ctx, p.Addr)
	if err != nil {
		return nil, err
	}
	if err := conn.enc.Encode(req); err != nil {
		return nil, pool.Drop(conn, fmt.Errorf("labview: send: %w", err))
	}
	if !conn.sc.Scan() {
		err := conn.sc.Err()
		if err == nil {
			err = io.EOF
		}
		return nil, pool.Drop(conn, fmt.Errorf("labview: connection lost: %w", err))
	}
	var resp lvResponse
	if err := json.Unmarshal(conn.sc.Bytes(), &resp); err != nil {
		return nil, pool.Drop(conn, fmt.Errorf("labview: bad response: %w", err))
	}
	pool.Put(conn)
	if !resp.OK {
		return nil, fmt.Errorf("labview: daemon: %s", resp.Error)
	}
	return &resp, nil
}

// Execute performs one move per action against the daemon.
func (p *LabViewPlugin) Execute(ctx context.Context, actions []core.Action) ([]core.Result, error) {
	results := make([]core.Result, len(actions))
	for i, a := range actions {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		resp, err := p.roundTrip(ctx, &lvRequest{Cmd: "move", Pos: a.Displacements[0]})
		if err != nil {
			return nil, err
		}
		results[i] = core.Result{
			ControlPoint:  a.ControlPoint,
			Displacements: []float64{resp.Pos},
			Forces:        []float64{resp.Force},
		}
	}
	return results, nil
}

var _ core.Plugin = (*LabViewPlugin)(nil)
