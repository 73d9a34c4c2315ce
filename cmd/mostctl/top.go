package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"neesgrid/internal/obs"
)

// topCmd is the live cross-site dashboard: it polls an obs aggregator's
// /fleet endpoint and renders per-site health, step rate, RTT quantiles,
// NSDS drop counters, checkpoint lag and SLO state — the operator's view
// of a distributed run while it is stepping.
func topCmd(args []string) {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	url := fs.String("url", "", "obs aggregator base URL (e.g. http://127.0.0.1:9090)")
	interval := fs.Duration("interval", time.Second, "refresh interval for -url mode")
	once := fs.Bool("once", false, "render a single frame and exit")
	_ = fs.Parse(args)

	if *url == "" {
		fatalExit("top: need -url")
	}
	for {
		var view obs.FleetView
		if err := getJSON(*url+"/fleet", &view); err != nil {
			fatalExit("top: %v", err)
		}
		if !*once {
			// Clear and home between frames so the dashboard refreshes in
			// place on a terminal.
			fmt.Print("\033[2J\033[H")
		}
		renderFleet(os.Stdout, view)
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

// renderFleet prints one dashboard frame from a fleet view.
func renderFleet(w io.Writer, v obs.FleetView) {
	ok := 0
	for _, s := range v.Sites {
		if s.State == obs.StateOK {
			ok++
		}
	}
	fmt.Fprintf(w, "fleet @ %s   sites %d/%d ok", v.TS.Format("15:04:05"), ok, len(v.Sites))
	if rate, found := v.Rates["coord.steps.completed"]; found {
		fmt.Fprintf(w, "   step rate %.1f/s", rate)
	}
	if steps, found := v.Merged.Counters["coord.steps.completed"]; found {
		fmt.Fprintf(w, "   steps %d", steps)
	}
	if lag, found := v.Merged.Gauges["coord.checkpoint.lag_steps"]; found {
		fmt.Fprintf(w, "   ckpt lag %.0f steps", lag)
	}
	fmt.Fprintln(w)
	if v.MergeError != "" {
		fmt.Fprintf(w, "MERGE ERROR: %s\n", v.MergeError)
	}

	fmt.Fprintf(w, "%-14s %-9s %-8s %-6s %-7s %-10s %s\n",
		"SITE", "STATE", "SCRAPES", "FAIL", "GOROUT", "HEAP", "RTT p50/p95/p99")
	for _, s := range v.Sites {
		rtt := "-"
		if h, found := v.Merged.Histograms["ntcp.client."+s.Name+".rtt.seconds"]; found && h.Count > 0 {
			rtt = fmt.Sprintf("%s/%s/%s (n=%d)",
				seconds(h.P50), seconds(h.P95), seconds(h.P99), h.Count)
		}
		heap := "-"
		if s.HeapBytes > 0 {
			heap = fmt.Sprintf("%.1fMB", s.HeapBytes/1e6)
		}
		gor := "-"
		if s.Goroutines > 0 {
			gor = fmt.Sprintf("%.0f", s.Goroutines)
		}
		line := fmt.Sprintf("%-14s %-9s %-8d %-6d %-7s %-10s %s",
			s.Name, s.State, s.Scrapes, s.Failures, gor, heap, rtt)
		if s.Error != "" {
			line += "  ERR=" + s.Error
		}
		fmt.Fprintln(w, line)
	}

	if h, found := v.Merged.Histograms["ntcp.client.rtt.seconds"]; found && h.Count > 0 {
		fmt.Fprintf(w, "fleet RTT      p50=%s p95=%s p99=%s (n=%d)",
			seconds(h.P50), seconds(h.P95), seconds(h.P99), h.Count)
		if h.Exemplar != nil {
			fmt.Fprintf(w, "  slowest trace=%s (%s)", h.Exemplar.TraceID, seconds(h.Exemplar.Value))
		}
		fmt.Fprintln(w)
	}
	if h, found := v.Merged.Histograms["coord.step.seconds"]; found && h.Count > 0 {
		fmt.Fprintf(w, "step latency   p50=%s p95=%s p99=%s (n=%d)\n",
			seconds(h.P50), seconds(h.P95), seconds(h.P99), h.Count)
	}

	// NSDS drop accounting per fan-out tier, plus slow-viewer drops.
	var dropNames []string
	for name := range v.Merged.Counters {
		if strings.HasPrefix(name, "nsds.tier.dropped.") || strings.HasPrefix(name, "nsds.tier.forced_drops.") {
			dropNames = append(dropNames, name)
		}
	}
	sort.Strings(dropNames)
	if len(dropNames) > 0 || v.Merged.Counters["nsds.sub.dropped"] > 0 {
		fmt.Fprint(w, "nsds drops    ")
		for _, name := range dropNames {
			short := strings.TrimPrefix(name, "nsds.tier.")
			fmt.Fprintf(w, " %s=%d", short, v.Merged.Counters[name])
		}
		fmt.Fprintf(w, " sub=%d\n", v.Merged.Counters["nsds.sub.dropped"])
	}

	if len(v.SLO) > 0 {
		fmt.Fprintln(w, "slo:")
		for _, r := range v.SLO {
			line := fmt.Sprintf("  %-16s %-8s value=%.4g max=%.4g breaches=%d",
				r.Name, r.State, r.Value, r.Max, r.Breaches)
			if r.ExemplarTrace != "" {
				line += "  trace=" + r.ExemplarTrace
			}
			fmt.Fprintln(w, line)
		}
	}
}

// getJSON fetches a URL and decodes its JSON body.
func getJSON(url string, into any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s returned %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}
