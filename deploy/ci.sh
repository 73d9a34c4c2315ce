#!/bin/sh
# Staged CI pipeline. Usage:
#
#   deploy/ci.sh                 # default lane (tier 1): vet build test smoke obs fleet
#   deploy/ci.sh chaos           # nightly lane: chaos scenarios, twice each, byte-compared (and against golden)
#   deploy/ci.sh vet test        # any subset, in the order given
#   deploy/ci.sh all             # every stage including lint and chaos
#
# Stages:
#   vet    - format gate (fails when `gofmt -l .` lists any file), then
#            go vet, of the module and of the benchmark module
#   lint   - pinned staticcheck (network needed on first run to fetch the
#            tool; the GitHub runners cache it, so it is selectable rather
#            than part of the offline default lane)
#   build  - go build everything
#   test   - full suite under the race detector (the checked-in fuzz corpora
#            run as ordinary tests, and TestEveryExportHasACaller holds every
#            exported name in internal/ to a caller outside tests), then the
#            tests of the benchmark module, which `./...` does not descend into
#   smoke  - trace round-trip, graceful-shutdown and streaming end-to-end
#            tests, rerun by name
#   obs    - observability tests, rerun by name: the coordinator binary over
#            two ntcpd sites must roll up healthy, exactly merged per-site
#            and fleet-wide series, link the fleet p99 to a trace a live
#            site serves, and report an OK SLO verdict
#   fleet  - fleet tests, rerun by name: six experiments from two tenants
#            over a two-slot pool grant in fair-share order, and the fleetd
#            binary runs six submitted jobs to completion and serves their
#            roll-ups healthy with exactly-merged counters
#   chaos  - step-1493 (classic, pipelined, and relay-topology lanes) and
#            partition scenarios, each run twice; the two verdict reports
#            must be byte-identical (determinism gate), and on amd64 also
#            byte-identical to deploy/scenarios/golden/<name>.json, the
#            verdict checked in from the last commit that meant to change
#            behaviour (re-record with `mostctl chaos -q -scenario F -out
#            golden/<name>.json` in the PR that does); then the TCP server
#            and client lifecycle contracts and the coordinator's worker
#            lifecycle twenty times under -race; then
#            10 s of fuzzing
#            per target: each single-pass codec against encoding/json, the
#            signed-envelope opener with its chain cache against the same
#            opener without, the MAC'd envelope opener against its
#            replay/tamper/cross-context oracle, the rig controller's client
#            against arbitrary replies, the GridFTP session loop against its escapes-the-root
#            oracle, the spool's block formatter against encoding/csv, and
#            the NTCP server's transaction table against its invariants, and
#            the NSDS frame decoder against its re-encode oracle
#
# Performance is not a stage: the benchmark in bench/ (BENCHMARK.json) is
# compared on interleaved runs of two commits, `bash bench/run.sh --compare
# a.jsonl b.jsonl`, which a single run on a shared runner cannot stand in for.
#
# Every stage is timed; a summary table prints at the end. The pipeline
# stops at the first failing stage.
#
# When CI_ARTIFACTS is set to a directory, the chaos stage copies its
# evidence (diverging verdicts, failing fuzz inputs) there so the workflow
# can upload it as build artifacts.
set -u

cd "$(dirname "$0")/.."

SUMMARY=""
OVERALL=0

# STATICCHECK_VERSION pins the lint toolchain; bump deliberately, with the
# fix-up commit for any new findings.
STATICCHECK_VERSION=2025.1.1

# save_artifact FILE NAME copies a failing stage's evidence into
# CI_ARTIFACTS (no-op when unset).
save_artifact() {
    [ -n "${CI_ARTIFACTS:-}" ] || return 0
    mkdir -p "$CI_ARTIFACTS" && cp "$1" "$CI_ARTIFACTS/$2" 2>/dev/null || true
}

stage_vet() {
    unformatted=$(gofmt -l .) || return 1
    if [ -n "$unformatted" ]; then
        echo "gofmt needed on:" >&2
        echo "$unformatted" >&2
        return 1
    fi
    go vet ./... || return 1
    # bench/ is its own module (BENCHMARK.json's contract), so the line above
    # never compiles it: vetting it here makes an API change that breaks the
    # benchmark's build fail in seconds, not after the race suite.
    (cd bench && go vet .)
}

stage_lint() {
    # Pinned so a new staticcheck release cannot turn the lane red on its
    # own schedule; `go run` fetches (and caches) exactly this version.
    go run "honnef.co/go/tools/cmd/staticcheck@$STATICCHECK_VERSION" ./...
}

stage_build() {
    go build ./...
}

stage_test() {
    go test -race ./... || return 1
    # bench/ is its own module, which `./...` does not descend into (the vet
    # stage vets it).
    (cd bench && go test .)
}

stage_smoke() {
    # Trace round-trip: every step's root span of a two-site run holds
    # paired client+server propose/execute spans per site, and the WAN delay
    # is attributed to the delayed site. Shutdown: a two-site topology as
    # real processes is SIGTERMed mid-step; readiness flips, exits are clean,
    # and an in-process experiment leaves no goroutines behind. The fan-out
    # test drives daq → hub → TCP relay → SSE gateway end to end and checks
    # the per-tier drop counters land in telemetry; the streaming-daemons
    # test runs the same path as processes (nsdsd -demo → nsdsd -relay →
    # chefd) and checks that a legacy JSON subscribe line is refused.
    go test -race -count=1 -run 'TestRunProducesMergedCrossSiteTrace|TestGracefulShutdown|TestNoGoroutineLeakAfterExperimentStop|TestFanOutPipelineSmoke|TestStreamingDaemonsEndToEnd' ./internal/most ./internal/e2e/
}

stage_obs() {
    # The coordinator binary with -slo over two ntcpd processes: every
    # source ok, fleet RTT p50<=p95<=p99 with a per-site histogram each, an
    # exemplar trace that a live ntcpd serves at /trace, and an OK verdict on
    # three rules; the aggregator's HTTP surface is read-only, labels each
    # site's Prometheus series, and keeps a pushed roll-up ok once the push
    # is older than StaleAfter. Then ntcpd, nsdsd, repod, chefd and fleetd,
    # each with -pprof on an ephemeral port, serve the same ops surface:
    # /metrics with the process gauges and their own series, /trace, both
    # probes and the profile index.
    go test -race -count=1 -run 'TestCoordinatorObsPlane|TestMuxEndpoints|TestAggregatorPush|TestEveryDaemonServesOneOpsSurface' ./internal/obs ./internal/e2e/
}

stage_fleet() {
    # Six jobs from two equal-weight tenants over a two-slot pool: grants
    # alternate tenants (weighted round-robin, FIFO within one) and the
    # merged roll-up sums the runs exactly; then the fleetd binary, fed six
    # jobs by `mostctl fleet -submit`, completes them with tenant-scoped
    # checkpoints, serves six ok roll-ups with exact counters, and exits 0
    # on SIGTERM.
    go test -race -count=1 -run 'TestFairShareOrderingAcrossTenants|TestFleetdRunsSubmittedJobs' ./internal/fleet ./internal/e2e/
}

stage_chaos() {
    out=$(mktemp -d) || return 1
    rc=0
    # The golden verdicts hold trajectory digests: floats, recorded on amd64.
    # Architectures that fuse multiply-add round differently, so only the
    # run-1 vs run-2 comparison applies there.
    golden=deploy/scenarios/golden
    if [ "$(go env GOARCH)" != amd64 ]; then
        echo "-- GOARCH $(go env GOARCH): skipping the comparison against $golden (recorded on amd64) --"
        golden=""
    fi
    for sc in step-1493 step-1493-pipelined step-1493-relay partition; do
        file="deploy/scenarios/$sc.json"
        echo "-- scenario $sc: run 1 --"
        if ! go run ./cmd/mostctl chaos -scenario "$file" -out "$out/$sc-1.json" >/dev/null; then
            rc=1
            break
        fi
        echo "-- scenario $sc: run 2 (replay) --"
        if ! go run ./cmd/mostctl chaos -q -scenario "$file" -out "$out/$sc-2.json" >/dev/null; then
            rc=1
            break
        fi
        if ! cmp "$out/$sc-1.json" "$out/$sc-2.json"; then
            echo "scenario $sc: verdicts differ between identical runs (determinism broken)"
            diff "$out/$sc-1.json" "$out/$sc-2.json" || true
            save_artifact "$out/$sc-1.json" "$sc-verdict-1.json"
            save_artifact "$out/$sc-2.json" "$sc-verdict-2.json"
            rc=1
            break
        fi
        if [ -n "$golden" ] && ! cmp "$out/$sc-1.json" "$golden/$sc.json"; then
            echo "scenario $sc: verdict differs from $golden/$sc.json (behaviour changed since it was recorded)"
            diff "$golden/$sc.json" "$out/$sc-1.json" || true
            save_artifact "$out/$sc-1.json" "$sc-verdict-1.json"
            rc=1
            break
        fi
        echo "-- scenario $sc: completed and byte-replayed --"
    done
    rm -rf "$out"
    [ "$rc" -eq 0 ] || return $rc

    # The goroutine lifecycles: the two TCP ones every daemon and client
    # share, runtime.ConnServer (accept, handlers, severing Close) and
    # runtime.ConnPool (dial, idle sessions, waiters, context-bounded leases,
    # Sever and Close), and the coordinator's per-site callers, which live
    # exactly as long as a run however it ends; twenty times under the race
    # detector.
    go test -race -count=20 -run '^(TestConnServerContract|TestConnPoolContract|TestRunStopsItsSiteWorkers)$' ./internal/runtime ./internal/coord || return 1

    # Generated adversaries for the hand-rolled parsers on the step path:
    # each target holds a single-pass codec to encoding/json (equal values or
    # both fail, byte-equal encodings), FuzzOpen holds the signed-envelope
    # opener with its chain cache on to the same opener with the cache off
    # (cold, warm, late and after a CA rotation: same payload, identity and
    # error class), and FuzzOpenContext holds the MAC'd
    # envelope opener to its promise (arbitrary bytes never open; replayed,
    # reordered, cross-context, reflected, tampered, expired and revoked
    # messages are each refused with their own error). The archive path has two:
    # FuzzServerSession (arbitrary bytes as one session on the
    # unauthenticated GridFTP port must not crash, stall, balloon, or touch
    # anything outside the root) and FuzzSpoolBlockMatchesCSV (the spool's
    # block formatter against encoding/csv's bytes, and ReadBlock returning
    # what went in). FuzzServerTransitions scripts propose, execute, cancel,
    # get, keepalives and clock advances by two clients over a few names
    # against one NTCP server: no transaction executes twice, no client gets
    # a record it does not own, tx:<name> reads the record's own bytes and
    # version, and the table, the tx:<name> family and the lifetime index
    # stay one size. FuzzShoreWesternServer feeds the rig controller's line
    # protocol arbitrary bytes as one connection: no panic, one reply line per
    # command in order however they are pipelined, and OK to a MOVE only for
    # a finite target within the stroke that the rig then sits at.
    # FuzzShoreWesternReply feeds the client end of that protocol arbitrary
    # replies from a loopback peer: no panic, and every position and force it
    # accepts is finite. FuzzClientSession feeds an ogsi.Transport arbitrary
    # bytes as a container's answer to the session upgrade and its reply
    # frames: no panic, a round trip after a failed one dials afresh, and
    # allocation under a ceiling no header can raise.
    # FuzzFrameDecoder feeds the NSDS binary stream decoder — the only TCP
    # stream wire — arbitrary bytes: every frame it accepts re-encodes to the
    # bytes it was read from, anything else is an error, its intern table stays
    # bounded, and it allocates only in proportion to the bytes that arrive.
    # FuzzContainerSession feeds an OGSI container arbitrary bytes as what
    # follows the session upgrade: no panic, one reply frame per complete
    # frame, the first malformed or oversize header answered once and the
    # session closed, allocation under a ceiling no header can raise, and a
    # real request still served after every frame it took.
    # FuzzJournalReplay replays arbitrary bytes as a journal: the records it
    # yields re-encode to a prefix of the input, only a final record may be
    # cut short, an append after any accepted input replays last, and no
    # length field is trusted before its bytes arrive. FuzzLoadCheckpoint
    # loads a checkpoint log whose last record is arbitrary bytes: no panic,
    # and anything accepted is a complete, consistent checkpoint. A failing
    # input lands in the package's testdata/fuzz/<target>/ — check it in with
    # the fix.
    #
    # The targets are every Fuzz function of the module's packages, as
    # `go test -list` finds them, so a new target joins the lane by existing.
    # The lane prints the list it runs and fails on an empty one.
    mod=$(go list -m) || return 1
    listing=$(go test -list '^Fuzz' ./...) || { echo "$listing"; return 1; }
    targets=$(echo "$listing" | awk -v mod="$mod" '
        /^Fuzz/ { names[++n] = $1; next }
        /^ok/ {
            for (i = 1; i <= n; i++) printf "%s ./%s\n", names[i], substr($2, length(mod) + 2)
            n = 0
        }')
    if [ -z "$targets" ]; then
        echo "fuzz: go test -list '^Fuzz' ./... found no targets"
        return 1
    fi
    echo "-- fuzz targets ($(echo "$targets" | wc -l | tr -d ' ')) --"
    echo "$targets"
    while read -r target pkg; do
        echo "-- fuzz $target ($pkg) --"
        if ! go test -run '^$' -fuzz "^$target\$" -fuzztime 10s "$pkg"; then
            for f in "$pkg/testdata/fuzz/$target"/*; do
                save_artifact "$f" "$target-$(basename "$f")"
            done
            return 1
        fi
    done <<TARGETS
$targets
TARGETS
}

run_stage() {
    name=$1
    echo "== $name =="
    start=$(date +%s)
    if "stage_$name"; then
        status=ok
    else
        status=FAIL
        OVERALL=1
    fi
    end=$(date +%s)
    SUMMARY="$SUMMARY$(printf '\n  %-7s %-5s %4ds' "$name" "$status" "$((end - start))")"
    [ "$status" = ok ] || finish
}

finish() {
    echo "== summary =="
    printf '  %-7s %-5s %5s' stage state time
    printf '%s\n' "$SUMMARY"
    if [ "$OVERALL" -eq 0 ]; then
        echo "ci: all selected stages passed"
    else
        echo "ci: FAILED"
    fi
    exit "$OVERALL"
}

if [ $# -eq 0 ]; then
    set -- vet build test smoke obs fleet
elif [ "$1" = all ]; then
    set -- vet lint build test smoke obs fleet chaos
fi

for stage in "$@"; do
    case "$stage" in
    vet | lint | build | test | smoke | obs | fleet | chaos) ;;
    *)
        echo "ci: unknown stage '$stage' (stages: vet lint build test smoke obs fleet chaos)" >&2
        exit 2
        ;;
    esac
done

for stage in "$@"; do
    run_stage "$stage"
done
finish
