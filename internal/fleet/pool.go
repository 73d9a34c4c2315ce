// Package fleet is the multi-tenant experiment scheduler (ROADMAP item 1):
// it admits, queues and runs many concurrent most.Experiment instances
// over a shared pool of NTCP sites. The paper ran one MOST experiment over
// a handful of sites; at "millions of users" scale the experiment itself
// becomes the unit of traffic, and the scarce resource is the site — a
// rig, a shaking table, a compute allocation — not the coordinator. The
// scheduler's job is therefore the grid scheduler's classic one
// (PAPERS.md: transaction-oriented simulation in ad-hoc grids, MONARC-style
// job/transfer scheduling): per-tenant admission control with bounded
// queues, weighted fair-share across tenants with FIFO order within one,
// site-slot leasing with release-on-failure, and tenant isolation — each
// run gets a tenant-scoped GSI identity mapped into (and revoked from) the
// leased sites' gridmaps, and tenant-prefixed checkpoint/archive store
// paths so concurrent runs never collide on disk.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"time"

	"neesgrid/internal/gsi"
	"neesgrid/internal/most"
	"neesgrid/internal/runtime"
	"neesgrid/internal/telemetry"
)

// ErrNoSlots reports a lease request larger than the pool's current free
// capacity. The scheduler treats it as "wait", not "fail".
var ErrNoSlots = errors.New("fleet: not enough free site slots")

// DefaultSlotK is the elastic stiffness of a default pool slot (N/m).
// With the default slot mass-share of 1000 kg per slot this keeps the
// explicit-Newmark grid (dt = 0.01 s) comfortably stable for topologies
// of one to three slots.
const DefaultSlotK = 2.0e5

// PoolConfig describes a shared site pool.
type PoolConfig struct {
	// Slots is the number of pooled simulation sites (default 2).
	Slots int
	// K is the per-slot elastic stiffness (default DefaultSlotK).
	K float64
	// Registry receives the pool's telemetry; nil means a private one.
	Registry *telemetry.Registry
}

// Pool is a shared set of running NTCP sites that experiments lease. The
// pool owns the long-lived CA every slot trusts; tenants get per-run
// credentials issued from it. Slots are leased whole (one experiment per
// slot at a time) and returned reset: specimen back to virgin state,
// armed network faults cleared, tenant identity revoked by the
// experiment's own teardown.
type Pool struct {
	ca    *gsi.Authority
	trust *gsi.TrustStore
	sites []*most.Site
	reg   *telemetry.Registry

	sup *runtime.Supervisor

	// leased[i] marks sites[i] as held by a running experiment. Guarded by
	// the scheduler's lock in practice, but the pool keeps its own
	// invariants so it is usable standalone; all methods are called with
	// external synchronization from the Scheduler, and the pool itself is
	// not otherwise concurrency-safe.
	leased []bool
}

// NewPool starts every slot. The slots run until Stop.
func NewPool(cfg PoolConfig) (*Pool, error) {
	n := cfg.Slots
	if n <= 0 {
		n = 2
	}
	k := cfg.K
	if k <= 0 {
		k = DefaultSlotK
	}
	specs := make([]most.SiteSpec, n)
	for i := range specs {
		specs[i] = most.SiteSpec{Name: fmt.Sprintf("slot-%d", i), Kind: most.KindSimulation, K: k}
	}
	ca, err := gsi.NewAuthority("/O=NEES/CN=fleet pool CA", 24*time.Hour)
	if err != nil {
		return nil, err
	}
	p := &Pool{
		ca:    ca,
		trust: gsi.NewTrustStore(ca.Cert),
		reg:   telemetry.OrNew(cfg.Registry),
		sup:   runtime.NewSupervisor("fleet-pool"),
	}
	for _, spec := range specs {
		site, err := most.StartSharedSite(ca, p.trust, spec)
		if err != nil {
			_ = p.Stop(context.Background())
			return nil, fmt.Errorf("fleet: pool slot %s: %w", spec.Name, err)
		}
		p.sites = append(p.sites, site)
		p.leased = append(p.leased, false)
		p.sup.Adopt("slot:"+spec.Name, runtime.Funcs{
			StopFunc:    func(ctx context.Context) error { return site.Supervisor().Stop(ctx) },
			HealthyFunc: site.Healthy,
		}, runtime.WithDrain(site.Supervisor().StopBudget()))
	}
	if err := p.sup.Start(context.Background()); err != nil {
		_ = p.Stop(context.Background())
		return nil, err
	}
	p.reg.Gauge("fleet.slots.total").Set(float64(len(p.sites)))
	p.reg.Gauge("fleet.slots.free").Set(float64(len(p.sites)))
	// Pre-register at zero: a pool that never granted a lease still
	// exports the series.
	p.reg.Counter("fleet.leases.granted")
	p.reg.Counter("fleet.leases.released")
	return p, nil
}

// CA returns the pool's long-lived authority (tenant credentials are
// issued from it).
func (p *Pool) CA() *gsi.Authority { return p.ca }

// Trust returns the trust store every slot verifies against.
func (p *Pool) Trust() *gsi.TrustStore { return p.trust }

// Size returns the total slot count.
func (p *Pool) Size() int { return len(p.sites) }

// Free returns the currently unleased slot count.
func (p *Pool) Free() int {
	free := 0
	for _, l := range p.leased {
		if !l {
			free++
		}
	}
	return free
}

// Sites returns every pooled site in slot order (for health scraping —
// fleetd registers each slot's /metrics as a pull source).
func (p *Pool) Sites() []*most.Site {
	return append([]*most.Site(nil), p.sites...)
}

// Lease takes n free slots (lowest slot index first, so grant order is
// deterministic) or returns ErrNoSlots without taking any.
func (p *Pool) Lease(n int) ([]*most.Site, error) {
	if n <= 0 || n > len(p.sites) {
		return nil, fmt.Errorf("fleet: lease of %d slots from a %d-slot pool", n, len(p.sites))
	}
	if p.Free() < n {
		return nil, ErrNoSlots
	}
	out := make([]*most.Site, 0, n)
	for i := range p.sites {
		if p.leased[i] {
			continue
		}
		p.leased[i] = true
		out = append(out, p.sites[i])
		if len(out) == n {
			break
		}
	}
	p.reg.Counter("fleet.leases.granted").Inc()
	p.reg.Gauge("fleet.slots.free").Set(float64(p.Free()))
	return out, nil
}

// Release returns leased slots to the pool: armed network faults are
// cleared and the specimen is reset to its virgin state so the next
// tenant's run starts from rest regardless of how the previous one ended.
// Reset errors are reported but do not keep the slot leased — a slot that
// cannot reset is a slot that will fail its next run loudly rather than
// silently starve the queue.
func (p *Pool) Release(sites []*most.Site) error {
	var errs []error
	for _, s := range sites {
		s.Injector.ClearFaults()
		if err := s.Reset(); err != nil {
			errs = append(errs, fmt.Errorf("reset %s: %w", s.Spec.Name, err))
		}
		for i := range p.sites {
			if p.sites[i] == s {
				p.leased[i] = false
			}
		}
	}
	p.reg.Counter("fleet.leases.released").Inc()
	p.reg.Gauge("fleet.slots.free").Set(float64(p.Free()))
	return errors.Join(errs...)
}

// Healthy aggregates slot health.
func (p *Pool) Healthy() error { return p.sup.Healthy() }

// StopBudget is the wall-clock a full pool teardown may need.
func (p *Pool) StopBudget() time.Duration { return p.sup.StopBudget() }

// Stop tears every slot down.
func (p *Pool) Stop(ctx context.Context) error {
	return p.sup.Stop(ctx)
}
