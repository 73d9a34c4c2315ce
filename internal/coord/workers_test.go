package coord

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"neesgrid/internal/core"
	"neesgrid/internal/structural"
)

// TestRunStopsItsSiteWorkers: the per-site callers Run starts live exactly as
// long as Run, whichever way it ends — a completed run, a rejection, an
// unretried transport failure, a cancelled context, and a kill followed by a
// resumed incarnation.
func TestRunStopsItsSiteWorkers(t *testing.T) {
	const steps = 20
	rejectAll := []*core.SitePolicy{nil, {PointLimits: map[string]core.Limits{"drift": {MaxDisplacement: 1e-9}}}}
	killed := errors.New("scheduled coordinator kill")
	for _, tc := range []struct {
		name     string
		policies []*core.SitePolicy
		retry    core.RetryPolicy
		// arm prepares the run's config; cancel ends the run's context.
		arm      func(h *harness, cfg *Config, cancel context.CancelFunc)
		complete bool
	}{
		{name: "completed", retry: core.DefaultRetry, complete: true},
		{name: "rejected", policies: rejectAll, retry: core.DefaultRetry},
		{name: "transport-failure", retry: core.NoRetry, arm: func(h *harness, cfg *Config, _ context.CancelFunc) {
			cfg.OnStep = func(_ context.Context, st structural.State) {
				if st.Step == 5 {
					h.sites[0].injector.FailNext(1)
				}
			}
		}},
		{name: "cancelled", retry: core.DefaultRetry, arm: func(_ *harness, cfg *Config, cancel context.CancelFunc) {
			cfg.OnStep = func(_ context.Context, st structural.State) {
				if st.Step == 5 {
					cancel()
				}
			}
		}},
		{name: "killed", retry: core.DefaultRetry, arm: func(_ *harness, cfg *Config, _ context.CancelFunc) {
			cfg.Interrupt = func(s int) error {
				if s == 8 {
					return killed
				}
				return nil
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eachStepping(t, func(t *testing.T, sc stepping) {
				h := newHarness(t, []structural.Element{structural.NewLinearElastic(1000), structural.NewLinearElastic(1000)}, tc.policies)
				sites := h.coordSites(tc.retry)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				cfg := checkpointConfig(steps)
				sc.set(&cfg)
				path := filepath.Join(t.TempDir(), "coord.ckpt")
				cfg.Checkpoint = &CheckpointConfig{Path: path, Every: 5}
				if tc.arm != nil {
					tc.arm(h, &cfg, cancel)
				}
				c, err := New(cfg, sites...)
				if err != nil {
					t.Fatal(err)
				}
				_, report, err := c.Run(ctx)
				if tc.complete != (err == nil) {
					t.Fatalf("run = %+v, %v; want completed %v", report, err, tc.complete)
				}
				noWorkerLeft(t)
				if tc.name != "killed" {
					return
				}
				cp, err := LoadCheckpoint(path)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Interrupt, cfg.Resume = nil, cp
				if _, report = mustRun(t, cfg, sites); report.ResumedFrom != 5 || !report.Completed {
					t.Fatalf("resumed run = %+v", report)
				}
				noWorkerLeft(t)
			})
		})
	}
}

// noWorkerLeft fails when a goroutine dump still shows a coordinator worker.
// Run has waited for every worker to return; allow the goroutines the moment
// it takes them to leave the scheduler's list.
func noWorkerLeft(t *testing.T) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var stacks bytes.Buffer
		_ = pprof.Lookup("goroutine").WriteTo(&stacks, 1)
		if !strings.Contains(stacks.String(), "coord.(*Coordinator).startWorkers") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("a coordinator worker outlived Run:\n%s", stacks.String())
		}
	}
}
