// Package nfms implements the NEESgrid File Management Service (paper
// §2.3): logical file naming and transport neutrality. "Applications
// negotiate file transfers with NFMS, which resolves a transfer request for
// a logical file to a protocol request for a physical resource. NFMS uses
// GridFTP to provide transport and has a plug-in API that allows other
// transport protocols to be used if desired."
package nfms

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"neesgrid/internal/gridftp"
	"neesgrid/internal/ogsi"
	"neesgrid/internal/telemetry"
)

// Replica is one physical copy of a logical file.
type Replica struct {
	// Transport names the protocol ("gridftp", "local", ...).
	Transport string `json:"transport"`
	// Addr is the endpoint (host:port for gridftp; empty for local).
	Addr string `json:"addr,omitempty"`
	// Path is the transport-specific path.
	Path string `json:"path"`
}

// Entry is the catalog record of one logical file.
type Entry struct {
	Logical   string    `json:"logical"`
	Size      int64     `json:"size"`
	Replicas  []Replica `json:"replicas"`
	Owner     string    `json:"owner"`
	CreatedAt time.Time `json:"created_at"`
}

// Transport is the plug-in API: a protocol able to move files.
type Transport interface {
	// Fetch downloads the replica into localPath.
	Fetch(r Replica, localPath string) error
	// Store uploads localPath to the replica location.
	Store(localPath string, r Replica) error
}

// GridFTPTransport moves files with the gridftp client. It holds one client
// per replica address, so successive transfers to a server share its sessions.
type GridFTPTransport struct {
	// Streams is the stripe count per transfer (default 2).
	Streams int

	mu      sync.Mutex
	clients map[string]*gridftp.Client
	tel     *telemetry.Registry
}

func (g *GridFTPTransport) streams() int {
	if g.Streams > 0 {
		return g.Streams
	}
	return 2
}

// UseTelemetry makes every client of the transport, present and future,
// count its dials and session reuses into reg (gridftp.Client.UseTelemetry).
func (g *GridFTPTransport) UseTelemetry(reg *telemetry.Registry) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tel = reg
	for _, cl := range g.clients {
		cl.UseTelemetry(reg)
	}
	// Register the series at zero now: the first client is made by the first
	// transfer, and "no dials yet" should not read as "not wired".
	new(gridftp.Client).UseTelemetry(reg)
}

// client returns the transport's client for a replica address.
func (g *GridFTPTransport) client(addr string) *gridftp.Client {
	g.mu.Lock()
	defer g.mu.Unlock()
	cl := g.clients[addr]
	if cl == nil {
		cl = &gridftp.Client{Addr: addr}
		cl.UseTelemetry(g.tel)
		if g.clients == nil {
			g.clients = make(map[string]*gridftp.Client)
		}
		g.clients[addr] = cl
	}
	return cl
}

// Fetch downloads via gridftp.
func (g *GridFTPTransport) Fetch(r Replica, localPath string) error {
	return g.client(r.Addr).Get(r.Path, localPath, g.streams())
}

// Store uploads via gridftp.
func (g *GridFTPTransport) Store(localPath string, r Replica) error {
	return g.client(r.Addr).Put(localPath, r.Path, g.streams())
}

// LocalTransport copies files on the local filesystem (the degenerate
// transport used for co-located repositories and tests).
type LocalTransport struct{}

// Fetch copies the replica path to localPath.
func (LocalTransport) Fetch(r Replica, localPath string) error {
	return copyFile(r.Path, localPath)
}

// Store copies localPath to the replica path.
func (LocalTransport) Store(localPath string, r Replica) error {
	return copyFile(localPath, r.Path)
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		_ = out.Close()
		return err
	}
	return out.Close()
}

// Service is the file management service: a logical-name catalog plus
// registered transports.
type Service struct {
	mu         sync.Mutex
	entries    map[string]*Entry
	transports map[string]Transport
}

// New returns a service with the gridftp and local transports registered.
func New() *Service {
	s := &Service{
		entries:    make(map[string]*Entry),
		transports: make(map[string]Transport),
	}
	s.RegisterTransport("gridftp", &GridFTPTransport{})
	s.RegisterTransport("local", LocalTransport{})
	return s
}

// RegisterTransport adds (or replaces) a transport plug-in.
func (s *Service) RegisterTransport(name string, t Transport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.transports[name] = t
}

// Register catalogs a logical file with its replicas.
func (s *Service) Register(owner, logical string, size int64, replicas ...Replica) (*Entry, error) {
	if logical == "" || len(replicas) == 0 {
		return nil, fmt.Errorf("nfms: logical name and at least one replica required")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.entries[logical]; dup {
		return nil, fmt.Errorf("nfms: logical file %q already registered", logical)
	}
	for _, r := range replicas {
		if _, ok := s.transports[r.Transport]; !ok {
			return nil, fmt.Errorf("nfms: unknown transport %q", r.Transport)
		}
	}
	e := &Entry{Logical: logical, Size: size, Owner: owner,
		Replicas: append([]Replica(nil), replicas...), CreatedAt: time.Now()}
	s.entries[logical] = e
	return cloneEntry(e), nil
}

// Resolve returns the catalog entry for a logical name.
func (s *Service) Resolve(logical string) (*Entry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[logical]
	if !ok {
		return nil, fmt.Errorf("nfms: no logical file %q", logical)
	}
	return cloneEntry(e), nil
}

// List returns all entries sorted by logical name.
func (s *Service) List() []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, cloneEntry(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Logical < out[j].Logical })
	return out
}

// Delete removes an entry; only the owner may delete.
func (s *Service) Delete(identity, logical string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[logical]
	if !ok {
		return fmt.Errorf("nfms: no logical file %q", logical)
	}
	if e.Owner != identity {
		return fmt.Errorf("nfms: %q may not delete %q", identity, logical)
	}
	delete(s.entries, logical)
	return nil
}

// Negotiate picks the replica to use for a transfer, honouring the caller's
// transport preference order (empty = any, catalog order).
func (s *Service) Negotiate(logical string, preferred ...string) (Replica, Transport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[logical]
	if !ok {
		return Replica{}, nil, fmt.Errorf("nfms: no logical file %q", logical)
	}
	if len(preferred) == 0 {
		r := e.Replicas[0]
		return r, s.transports[r.Transport], nil
	}
	for _, want := range preferred {
		for _, r := range e.Replicas {
			if r.Transport == want {
				return r, s.transports[r.Transport], nil
			}
		}
	}
	return Replica{}, nil, fmt.Errorf("nfms: no replica of %q matches transports %v", logical, preferred)
}

// Download resolves a logical file and fetches it into localPath.
func (s *Service) Download(logical, localPath string, preferred ...string) error {
	r, tr, err := s.Negotiate(logical, preferred...)
	if err != nil {
		return err
	}
	if err := tr.Fetch(r, localPath); err != nil {
		return fmt.Errorf("nfms: fetch %q via %s: %w", logical, r.Transport, err)
	}
	return nil
}

// Upload stores localPath at the replica location and registers the
// logical name. A name already registered is refused before any byte moves,
// so the replica it names is not overwritten; Register after the store stays
// the authority when two uploads of one new name race.
func (s *Service) Upload(owner, logical, localPath string, r Replica) (*Entry, error) {
	s.mu.Lock()
	tr, ok := s.transports[r.Transport]
	_, taken := s.entries[logical]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("nfms: unknown transport %q", r.Transport)
	}
	if taken {
		return nil, fmt.Errorf("nfms: logical file %q already registered", logical)
	}
	info, err := os.Stat(localPath)
	if err != nil {
		return nil, fmt.Errorf("nfms: stat %s: %w", localPath, err)
	}
	if err := tr.Store(localPath, r); err != nil {
		return nil, fmt.Errorf("nfms: store %q via %s: %w", logical, r.Transport, err)
	}
	return s.Register(owner, logical, info.Size(), r)
}

func cloneEntry(e *Entry) *Entry {
	c := *e
	c.Replicas = append([]Replica(nil), e.Replicas...)
	return &c
}

// ---------------------------------------------------------------------------
// OGSI service wrapper (catalog operations only; bulk data moves over the
// transport protocols, exactly as in NEESgrid)
// ---------------------------------------------------------------------------

type registerParams struct {
	Logical  string    `json:"logical"`
	Size     int64     `json:"size"`
	Replicas []Replica `json:"replicas"`
}

type logicalParams struct {
	Logical   string   `json:"logical"`
	Preferred []string `json:"preferred,omitempty"`
}

// NewService exposes the catalog as the "nfms" OGSI service.
func NewService(s *Service) *ogsi.Service {
	svc := ogsi.NewService("nfms")
	svc.RegisterOp("register", func(_ context.Context, caller ogsi.Caller, params json.RawMessage) (any, error) {
		var p registerParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, ogsi.Errf(ogsi.CodeBadRequest, "bad register params: %v", err)
		}
		e, err := s.Register(caller.Identity, p.Logical, p.Size, p.Replicas...)
		if err != nil {
			return nil, ogsi.Errf(ogsi.CodeBadRequest, "%v", err)
		}
		return e, nil
	})
	svc.RegisterOp("resolve", func(_ context.Context, _ ogsi.Caller, params json.RawMessage) (any, error) {
		var p logicalParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, ogsi.Errf(ogsi.CodeBadRequest, "bad resolve params: %v", err)
		}
		e, err := s.Resolve(p.Logical)
		if err != nil {
			return nil, ogsi.Errf(ogsi.CodeNotFound, "%v", err)
		}
		return e, nil
	})
	svc.RegisterOp("negotiate", func(_ context.Context, _ ogsi.Caller, params json.RawMessage) (any, error) {
		var p logicalParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, ogsi.Errf(ogsi.CodeBadRequest, "bad negotiate params: %v", err)
		}
		r, _, err := s.Negotiate(p.Logical, p.Preferred...)
		if err != nil {
			return nil, ogsi.Errf(ogsi.CodeNotFound, "%v", err)
		}
		return r, nil
	})
	svc.RegisterOp("list", func(context.Context, ogsi.Caller, json.RawMessage) (any, error) {
		return s.List(), nil
	})
	svc.RegisterOp("delete", func(_ context.Context, caller ogsi.Caller, params json.RawMessage) (any, error) {
		var p logicalParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, ogsi.Errf(ogsi.CodeBadRequest, "bad delete params: %v", err)
		}
		if err := s.Delete(caller.Identity, p.Logical); err != nil {
			return nil, ogsi.Errf(ogsi.CodeDenied, "%v", err)
		}
		return map[string]bool{"deleted": true}, nil
	})
	return svc
}
