package most

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"neesgrid/internal/core"
	"neesgrid/internal/faultnet"
	"neesgrid/internal/structural"
	"neesgrid/internal/trace"
)

// traceSpec is a small two-site all-simulation topology for trace tests:
// fast to run, yet every step crosses the full NTCP propose/execute path
// at both sites.
func traceSpec(steps int) Spec {
	frame := structural.MiniMOSTConfig()
	return Spec{
		Name:  "trace-smoke",
		Frame: frame,
		Steps: steps,
		Retry: core.DefaultRetry,
		Sites: []SiteSpec{
			{Name: "alpha", Kind: KindSimulation, Point: "beam", K: frame.LeftK},
			{Name: "beta", Kind: KindSimulation, Point: "middle-frame", K: frame.MidK},
		},
	}
}

func TestRunProducesMergedCrossSiteTrace(t *testing.T) {
	const steps = 5
	spec := traceSpec(steps)
	spec.DAQEvery = 1
	// Put one site behind a WAN so its delay is attributed on the client
	// span via faultnet annotations.
	spec.Sites[1].WAN = faultnet.Profile{Latency: 2 * time.Millisecond, Seed: 7}

	exp, res := runSpec(t, spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}

	// Group the merged snapshot by trace ID.
	spans := exp.SpanSnapshot()
	byTrace := make(map[string][]trace.SpanData)
	byID := make(map[string]trace.SpanData, len(spans))
	for _, sd := range spans {
		byTrace[sd.TraceID] = append(byTrace[sd.TraceID], sd)
		byID[sd.SpanID] = sd
	}

	// Every committed step must have a root "coord.step" span whose trace
	// contains, for each site, paired client+server propose and execute
	// spans — that is the end-to-end acceptance shape. A client span is the
	// site's when its nearest ancestor with a site attribute names it.
	roots := 0
	for _, spans := range byTrace {
		var root *trace.SpanData
		for i := range spans {
			if spans[i].Name == "coord.step" && spans[i].Parent == "" {
				root = &spans[i]
			}
		}
		if root == nil {
			continue
		}
		roots++
		for _, site := range []string{"alpha", "beta"} {
			for _, op := range []string{"ntcp.propose", "ntcp.execute"} {
				var client, server bool
				for _, sd := range spans {
					if sd.Name != op {
						continue
					}
					switch {
					case sd.Kind == trace.KindClient && sd.Service == "coordinator" && siteOf(sd, byID) == site:
						client = true
					case sd.Kind == trace.KindServer && sd.Service == site:
						server = true
					}
				}
				if !client || !server {
					t.Fatalf("step %s: site %s %s client=%t server=%t",
						root.Attrs["step"], site, op, client, server)
				}
			}
		}
	}
	if roots < steps {
		t.Fatalf("found %d step roots, want >= %d", roots, steps)
	}

	// The DAQ readback must appear as nsds.publish children inside steps.
	delays := make(map[string]int)
	publishes := 0
	for _, sd := range spans {
		if sd.Name == "nsds.publish" && sd.Parent != "" {
			publishes++
		}
		if sd.Kind == trace.KindClient {
			for _, ev := range sd.Events {
				if ev.Name == "faultnet.delay" {
					delays[siteOf(sd, byID)]++
				}
			}
		}
	}
	if publishes == 0 {
		t.Fatal("no nsds.publish child spans from DAQ readback")
	}
	// The WAN delay is attributed to the site behind it, on its client
	// spans, and to no other.
	if delays["beta"] == 0 || len(delays) != 1 {
		t.Fatalf("faultnet.delay annotations by site %v, want beta's client spans only", delays)
	}
}

// siteOf attributes a span to a site: the site attribute of the span or of
// its nearest ancestor that has one.
func siteOf(sd trace.SpanData, byID map[string]trace.SpanData) string {
	for {
		if s, ok := sd.Attrs["site"]; ok {
			return s
		}
		parent, ok := byID[sd.Parent]
		if !ok {
			return ""
		}
		sd = parent
	}
}

func TestArchivePersistsSpansJSONL(t *testing.T) {
	spec := traceSpec(4)
	spec.DAQEvery = 1
	store := t.TempDir()
	spec.Archive = &ArchiveConfig{
		SpoolDir:  t.TempDir(),
		StoreDir:  store,
		BlockSize: 2,
	}
	_, res := runSpec(t, spec)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.ArchiveErr != nil {
		t.Fatal(res.ArchiveErr)
	}
	f, err := os.Open(filepath.Join(store, "trace-smoke-spans.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines, steps := 0, 0
	for sc.Scan() {
		var sd trace.SpanData
		if err := json.Unmarshal(sc.Bytes(), &sd); err != nil {
			t.Fatalf("line %d: %v", lines+1, err)
		}
		if sd.TraceID == "" || sd.SpanID == "" {
			t.Fatalf("line %d: missing ids: %+v", lines+1, sd)
		}
		if sd.Name == "coord.step" {
			steps++
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines == 0 || steps == 0 {
		t.Fatalf("span archive has %d lines, %d step spans", lines, steps)
	}
}
