package most

import (
	"testing"

	"neesgrid/internal/core"
	"neesgrid/internal/ogsi"
	"neesgrid/internal/telemetry"
)

// TestRunTelemetryEndToEnd: after a run, the coordinator-side registry holds
// per-step latency and NTCP round-trip histograms, and each site's registry
// holds per-op request counts and transaction outcomes — the observability
// story of the telemetry subsystem, exercised through the full harness.
func TestRunTelemetryEndToEnd(t *testing.T) {
	const steps = 60
	spec := DryRunSpec(VariantSimulation)
	spec.Steps = steps
	spec.Retry = core.DefaultRetry
	spec.Faults = []Fault{{Step: 20, Site: "uiuc", Count: 2}}
	exp, res := runSpec(t, spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}

	// Coordinator-side: one step-latency observation per committed step.
	if res.Report.StepLatency.Count != steps {
		t.Fatalf("StepLatency.Count = %d, want %d", res.Report.StepLatency.Count, steps)
	}
	if res.Report.StepLatency.P95 <= 0 {
		t.Fatalf("StepLatency percentiles missing: %+v", res.Report.StepLatency)
	}

	// The report's embedded snapshot covers the site clients (shared
	// registry): round-trip latency and the recovery from the injected
	// transient fault.
	snap := res.Report.Telemetry
	rtt := snap.Histograms["ntcp.client.rtt.seconds"]
	if rtt.Count == 0 || rtt.P99 <= 0 {
		t.Fatalf("rtt histogram = %+v", rtt)
	}
	if snap.Counters["coord.steps.completed"] != steps {
		t.Fatalf("coord.steps.completed = %d", snap.Counters["coord.steps.completed"])
	}
	if snap.Counters["ntcp.client.recovered"] == 0 {
		t.Fatal("injected transient fault should appear as a recovery")
	}
	if snap.Counters["faultnet.injected"] != 2 {
		t.Fatalf("faultnet.injected = %d, want 2", snap.Counters["faultnet.injected"])
	}
	if res.Report.Recovered == 0 {
		t.Fatal("report.Recovered lost the recovery count")
	}
	// Three sites share the coordinator registry; dedup must keep Recovered
	// equal to the aggregate counter, not triple it.
	if res.Report.Recovered != int(snap.Counters["ntcp.client.recovered"]) {
		t.Fatalf("Recovered = %d, counter = %d",
			res.Report.Recovered, snap.Counters["ntcp.client.recovered"])
	}

	// Site-side: each container/server pair recorded dispatches and
	// transaction outcomes in its own registry.
	for _, site := range exp.Sites {
		s := site.Telemetry.Snapshot()
		if s.Counters["ogsi.ntcp.propose.requests"] == 0 {
			t.Fatalf("site %s: no propose dispatches recorded", site.Spec.Name)
		}
		// steps+1: the integrator's Init performs a step-0 evaluation.
		if s.Counters["ntcp.server.executed"] != steps+1 {
			t.Fatalf("site %s: ntcp.server.executed = %d, want %d",
				site.Spec.Name, s.Counters["ntcp.server.executed"], steps+1)
		}
		h := s.Histograms["ogsi.ntcp.execute.seconds"]
		if h.Count == 0 {
			t.Fatalf("site %s: no execute latency recorded", site.Spec.Name)
		}
	}
}

// TestCleanRunsStayOnTheFastPath makes fast-path coverage observable instead
// of assumed. Every document of a clean three-site run — classic, FastPath
// and Pipeline — must be decoded by the strict single-pass readers: the
// fallback counter, pre-registered at zero in the coordinator's registry and
// in every site's, still reads zero afterwards. A
// codec change that makes an encoder and its strict decoder disagree fails
// here, instead of showing up as a slow day. The same holds for message
// security: exactly one signed envelope each way per site — the handshake —
// every other envelope MAC'd, and no context ever refused; and for the
// carrier: exactly one session per site. And for the
// transaction table: every site holds exactly one record per evaluation
// (ntcp.server.transactions), and none expired.
func TestCleanRunsStayOnTheFastPath(t *testing.T) {
	for name, tweak := range map[string]func(*Spec){
		"classic":  func(*Spec) {},
		"fastpath": func(s *Spec) { s.FastPath = true },
		"pipeline": func(s *Spec) { s.Pipeline = true },
	} {
		t.Run(name, func(t *testing.T) {
			const steps = 40
			spec := DryRunSpec(VariantSimulation)
			spec.Steps = steps
			tweak(&spec)
			exp, res := runSpec(t, spec)
			if res.Err != nil || !res.Report.Completed {
				t.Fatalf("run: %v (completed %v)", res.Err, res.Report.Completed)
			}
			registries := map[string]telemetry.Snapshot{"coordinator": exp.Telemetry.Snapshot()}
			for _, site := range exp.Sites {
				registries[site.Spec.Name] = site.Telemetry.Snapshot()
			}
			for who, snap := range registries {
				n, registered := snap.Counters[ogsi.MetricDecodeFallbacks]
				if !registered {
					t.Errorf("%s: %s is not registered", who, ogsi.MetricDecodeFallbacks)
				}
				if n != 0 {
					t.Errorf("%s: %s = %d after a clean run", who, ogsi.MetricDecodeFallbacks, n)
				}
			}
			// The run did go through the paths being watched: each site's
			// container verified one signed request, the handshake, and took
			// every other envelope MAC'd; the coordinator verified one signed
			// reply per site.
			sites := int64(len(exp.Sites))
			coordinator := registries["coordinator"]
			// The pipelined run decoded its batch results on the watched
			// path: fused envelopes carried its steps.
			if hits := coordinator.Counters["coord.pipeline.hits"]; name == "pipeline" && hits == 0 {
				t.Error("pipeline: no step ran on a speculation, so no batch result was decoded")
			}
			var envelopes int64
			for _, site := range exp.Sites {
				snap := registries[site.Spec.Name]
				if n := snap.Counters["ogsi.auth.signed"]; n != 1 {
					t.Errorf("%s: %d signed requests, want 1", site.Spec.Name, n)
				}
				// Dials per run: the coordinator's calls to a site take turns,
				// so one session carries them all, under the pinned cap of 2.
				if n := snap.Counters["ogsi.sessions.accepted"]; n != 1 {
					t.Errorf("%s: %d sessions accepted, want 1", site.Spec.Name, n)
				}
				if n := snap.Counters["ogsi.context.established"]; n != 1 {
					t.Errorf("%s: %d contexts established, want 1", site.Spec.Name, n)
				}
				for _, reason := range []string{"unknown", "expired", "replay", "mac", "revoked"} {
					n, registered := snap.Counters["ogsi.context.rejected."+reason]
					if !registered || n != 0 {
						t.Errorf("%s: ogsi.context.rejected.%s = %d (registered %v)", site.Spec.Name, reason, n, registered)
					}
				}
				envelopes += snap.Counters["ogsi.auth.signed"] + snap.Counters["ogsi.auth.mac"]
				// One transaction per step plus the integrator's step-0
				// evaluation, all still in the table, none expired.
				if n, registered := snap.Gauges["ntcp.server.transactions"]; !registered || n != steps+1 {
					t.Errorf("%s: ntcp.server.transactions = %g (registered %v), want %d", site.Spec.Name, n, registered, steps+1)
				}
				if n, registered := snap.Counters["ntcp.server.expired"]; !registered || n != 0 {
					t.Errorf("%s: ntcp.server.expired = %d (registered %v), want 0", site.Spec.Name, n, registered)
				}
			}
			if envelopes != coordinator.Counters["faultnet.calls"] {
				t.Errorf("sites authenticated %d envelopes, the coordinator sent %d", envelopes, coordinator.Counters["faultnet.calls"])
			}
			if coordinator.Counters["ogsi.auth.signed"] != sites || coordinator.Counters["ogsi.context.established"] != sites ||
				coordinator.Counters["ogsi.auth.mac"] != envelopes-sites {
				t.Errorf("coordinator: %d signed, %d MAC'd replies, %d contexts; want %d, %d, %d",
					coordinator.Counters["ogsi.auth.signed"], coordinator.Counters["ogsi.auth.mac"],
					coordinator.Counters["ogsi.context.established"], sites, envelopes-sites, sites)
			}
			// Only the handshakes consult the chain cache: one request and
			// one reply per site.
			if hits, misses := exp.Trust.CacheStats(); hits+misses != uint64(2*sites) {
				t.Errorf("chain cache: %d hits, %d misses, want %d lookups", hits, misses, 2*sites)
			}
		})
	}
}
