package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"neesgrid/internal/trace"
)

// traceCmd renders merged cross-site timelines from the spans a set of
// live containers serve at /trace (-url, optionally narrowed to one trace
// with -id).
func traceCmd(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	urls := fs.String("url", "", "comma-separated base URLs to fetch /trace spans from (coordinator and sites)")
	id := fs.String("id", "", "render only the trace with this ID")
	limit := fs.Int("limit", 0, "render at most the last N traces (0 = all)")
	_ = fs.Parse(args)

	if *urls == "" {
		fatalExit("trace: need -url")
	}
	var spans []trace.SpanData
	for _, u := range strings.Split(*urls, ",") {
		u = strings.TrimSpace(u)
		if u == "" {
			continue
		}
		spans = append(spans, fetchSpans(u, *id)...)
	}
	if *id != "" {
		kept := spans[:0]
		for _, sd := range spans {
			if sd.TraceID == *id {
				kept = append(kept, sd)
			}
		}
		spans = kept
	}
	if len(spans) == 0 {
		fatalExit("trace: no spans found")
	}
	renderTraces(os.Stdout, spans, *limit)
}

// fetchSpans pulls one container's recorded spans over HTTP.
func fetchSpans(base, id string) []trace.SpanData {
	u := base + "/trace"
	if id != "" {
		u += "?trace=" + id
	}
	resp, err := http.Get(u)
	if err != nil {
		fatalExit("trace: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatalExit("trace: %s returned %s", u, resp.Status)
	}
	var spans []trace.SpanData
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		fatalExit("trace: decode %s: %v", u, err)
	}
	return spans
}

// renderTraces prints merged per-trace timelines, oldest trace first.
func renderTraces(w *os.File, spans []trace.SpanData, limit int) {
	byTrace := make(map[string][]trace.SpanData)
	for _, sd := range spans {
		byTrace[sd.TraceID] = append(byTrace[sd.TraceID], sd)
	}
	ids := make([]string, 0, len(byTrace))
	for id := range byTrace {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		return earliest(byTrace[ids[i]]).Before(earliest(byTrace[ids[j]]))
	})
	if limit > 0 && len(ids) > limit {
		ids = ids[len(ids)-limit:]
	}
	for _, id := range ids {
		renderTrace(w, id, byTrace[id])
	}
}

func earliest(spans []trace.SpanData) time.Time {
	t := spans[0].Start
	for _, sd := range spans[1:] {
		if sd.Start.Before(t) {
			t = sd.Start
		}
	}
	return t
}

// renderTrace prints one trace as an indented tree: service, kind, offset
// from trace start, duration, attributes, and annotated events — the
// cross-site step timeline.
func renderTrace(w *os.File, id string, spans []trace.SpanData) {
	have := make(map[string]bool, len(spans))
	for _, sd := range spans {
		have[sd.SpanID] = true
	}
	children := make(map[string][]trace.SpanData)
	var roots []trace.SpanData
	for _, sd := range spans {
		if sd.Parent != "" && have[sd.Parent] {
			children[sd.Parent] = append(children[sd.Parent], sd)
		} else {
			// True roots and spans whose parent was evicted from a ring.
			roots = append(roots, sd)
		}
	}
	for _, list := range children {
		sort.Slice(list, func(i, j int) bool { return list[i].Start.Before(list[j].Start) })
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Start.Before(roots[j].Start) })

	base := earliest(spans)
	header := "trace " + id
	for _, r := range roots {
		if r.Name == "coord.step" {
			header += "  step=" + r.Attrs["step"]
			break
		}
	}
	fmt.Fprintf(w, "%s  (%d spans)\n", header, len(spans))
	var print func(sd trace.SpanData, depth int)
	print = func(sd trace.SpanData, depth int) {
		indent := strings.Repeat("  ", depth+1)
		line := fmt.Sprintf("%s%-24s %-12s %-8s +%-9s %s",
			indent, sd.Name, sd.Service, sd.Kind,
			sd.Start.Sub(base).Round(time.Microsecond),
			sd.End.Sub(sd.Start).Round(time.Microsecond))
		if attrs := formatAttrs(sd.Attrs); attrs != "" {
			line += "  " + attrs
		}
		if sd.Err != "" {
			line += "  ERROR=" + sd.Err
		}
		fmt.Fprintln(w, line)
		for _, ev := range sd.Events {
			fmt.Fprintf(w, "%s  ! +%-9s %s=%s\n", indent,
				ev.TS.Sub(base).Round(time.Microsecond), ev.Name, ev.Detail)
		}
		for _, child := range children[sd.SpanID] {
			print(child, depth+1)
		}
	}
	for _, r := range roots {
		print(r, 0)
	}
}

// formatAttrs renders span attributes as sorted k=v pairs.
func formatAttrs(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + attrs[k]
	}
	return strings.Join(parts, " ")
}
