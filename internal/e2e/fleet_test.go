package e2e

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"neesgrid/internal/fleet"
	"neesgrid/internal/obs"
)

// The fleetd binary with a two-slot pool takes six jobs from two tenants
// through mostctl's client verb, runs each to its last step with its
// checkpoint under the tenant's store, and serves the six runs' roll-ups
// in /fleet, healthy however old and exactly merged with its own counters.
// SIGTERM drains it to exit 0.
func TestFleetdRunsSubmittedJobs(t *testing.T) {
	const steps = 25
	d := newDeployment(t)
	store := t.TempDir()
	addr := freePort(t)
	cmd := exec.Command(filepath.Join(d.bin, "fleetd"), "-listen", addr, "-slots", "2", "-store", store)
	cmd.Dir = d.dir
	var out strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	waitListening(t, addr)
	base := "http://" + addr

	tenants := []string{"alpha", "alpha", "alpha", "alpha", "beta", "beta"}
	for i, tenant := range tenants {
		d.run(t, "mostctl", "fleet", "-url", base, "-submit", "-tenant", tenant,
			"-name", fmt.Sprintf("run%d", i+1), "-job-steps", fmt.Sprint(steps))
	}

	var jobs []fleet.JobView
	waitUntil(t, 2*time.Minute, func() bool {
		getJSON(t, base+"/jobs", &jobs)
		done := 0
		for _, j := range jobs {
			if j.State == fleet.StateFailed || j.State == fleet.StateCancelled {
				t.Fatalf("job %s %s: %s", j.ID, j.State, j.Err)
			}
			if j.State == fleet.StateDone {
				done++
			}
		}
		return done == len(tenants)
	})
	if len(jobs) != len(tenants) {
		t.Fatalf("fleetd lists %d jobs, want %d", len(jobs), len(tenants))
	}
	for _, j := range jobs {
		if j.StepsDone != steps {
			t.Errorf("job %s completed %d/%d steps", j.ID, j.StepsDone, steps)
		}
		if filepath.Dir(j.Store) != filepath.Join(store, j.Tenant) {
			t.Errorf("job %s store %s is not under %s", j.ID, j.Store, filepath.Join(store, j.Tenant))
		}
		if _, err := os.Stat(filepath.Join(j.Store, "checkpoint.log")); err != nil {
			t.Errorf("job %s: %v", j.ID, err)
		}
	}

	// fleetd scrapes its own counters once a second: wait for the round
	// that follows the last release, and until every roll-up is older than
	// the 3 s after which a scraped source reads degraded, then hold the
	// whole view to account.
	var view obs.FleetView
	waitUntil(t, 15*time.Second, func() bool {
		getJSON(t, base+"/fleet", &view)
		for _, s := range view.Sites {
			if strings.Contains(s.Name, "/") && view.TS.Sub(s.LastScrape) <= 4*time.Second {
				return false
			}
		}
		return view.Merged.Counters["fleet.leases.released"] == int64(len(tenants))
	})
	pushed := 0
	for _, s := range view.Sites {
		if !strings.Contains(s.Name, "/") {
			continue
		}
		pushed++
		if s.State != obs.StateOK {
			t.Errorf("roll-up %s state %s, want ok", s.Name, s.State)
		}
	}
	if pushed != len(tenants) {
		t.Errorf("/fleet holds %d job roll-ups, want %d", pushed, len(tenants))
	}
	if view.MergeError != "" {
		t.Errorf("merge error: %s", view.MergeError)
	}
	for name, want := range map[string]int64{
		"coord.steps.completed": int64(len(tenants) * steps),
		"fleet.jobs.completed":  int64(len(tenants)),
		"fleet.leases.granted":  int64(len(tenants)),
		"fleet.leases.released": int64(len(tenants)),
		"fleet.jobs.failed":     0,
	} {
		if got, ok := view.Merged.Counters[name]; !ok || got != want {
			t.Errorf("merged %s = %d (present %v), want %d", name, got, ok, want)
		}
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("fleetd exit after SIGTERM: %v\n%s", err, out.String())
	}
}

// waitUntil polls cond every 50 ms and fails t if it does not hold within d.
func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached within %s", d)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
