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
#   smoke  - trace round-trip + graceful-shutdown end-to-end smokes
#   obs    - observability smoke: the aggregator over a two-site run must
#            serve per-site + fleet-wide merged series, link the fleet p99
#            to a resolvable exemplar trace, and report an OK SLO verdict
#   fleet  - multi-tenant scheduling smoke: six experiments from two tenants
#            over a two-slot shared site pool; oversubscription must queue,
#            grants must alternate tenants (weighted fair share), every job
#            must complete, and the fleet aggregator must serve the six
#            pushed roll-ups with exactly-merged counters
#   chaos  - step-1493 (classic, pipelined, and relay-topology lanes) and
#            partition scenarios, each run twice; the two verdict reports
#            must be byte-identical (determinism gate), and on amd64 also
#            byte-identical to deploy/scenarios/golden/<name>.json, the
#            verdict checked in from the last commit that meant to change
#            behaviour (re-record with `mostctl chaos -q -scenario F -out
#            golden/<name>.json` in the PR that does); then 10 s of fuzzing
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
# When CI_ARTIFACTS is set to a directory, failing stages copy their
# captured output (smoke logs, diverging chaos verdicts) there so the
# workflow can upload them as build artifacts.
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
    # Trace round-trip: an in-process 2-site MOST topology for a few steps;
    # fails unless every step's root span contains paired client+server
    # propose/execute spans per site. Output is captured to a temp file and
    # dumped on failure instead of vanishing into /dev/null.
    tmp=$(mktemp) || return 1
    if ! go run ./cmd/mostctl trace -run -steps 5 >"$tmp" 2>&1; then
        echo "trace smoke failed; captured output:"
        cat "$tmp"
        save_artifact "$tmp" trace-smoke.log
        rm -f "$tmp"
        return 1
    fi
    rm -f "$tmp"

    # Shutdown smoke: boots a two-site topology as real processes, SIGTERMs
    # them mid-step, and asserts readiness flips, exits are clean, and an
    # in-process experiment leaves no goroutines behind. The fan-out smoke
    # drives daq → hub → TCP relay → SSE gateway end to end and checks the
    # per-tier drop counters land in telemetry; the streaming-daemons smoke
    # runs the same path as processes (nsdsd -demo → nsdsd -relay → chefd)
    # and checks that a legacy JSON subscribe line is refused.
    go test -race -count=1 -run 'TestGracefulShutdown|TestNoGoroutineLeakAfterExperimentStop|TestFanOutPipelineSmoke|TestStreamingDaemonsEndToEnd' ./internal/e2e/
}

stage_obs() {
    # Observability smoke: `mostctl top -run` drives a two-site experiment
    # with its obs aggregator serving over HTTP, then self-checks: per-site
    # labeled series and fleet-wide merged p50/p95/p99 in /metrics, an
    # exemplar trace ID on the fleet RTT histogram that resolves to recorded
    # spans, and an OK SLO verdict (any latched breach exits non-zero).
    tmp=$(mktemp) || return 1
    if ! go run ./cmd/mostctl top -run -steps 15 >"$tmp" 2>&1; then
        echo "obs smoke failed; captured output:"
        cat "$tmp"
        save_artifact "$tmp" obs-smoke.log
        rm -f "$tmp"
        return 1
    fi
    # Belt and braces: the self-check already asserts these, but grep the
    # rendered output so a silently-weakened checker still fails the stage.
    rc=0
    for needle in 'fleet RTT' 'slowest trace=' 'top check passed'; do
        if ! grep -q "$needle" "$tmp"; then
            echo "obs smoke output missing '$needle':"
            cat "$tmp"
            save_artifact "$tmp" obs-smoke.log
            rc=1
            break
        fi
    done
    rm -f "$tmp"
    return $rc
}

stage_fleet() {
    # Fleet scheduling smoke: `mostctl fleet -run` submits six experiments
    # from two equal-weight tenants against a two-slot shared site pool,
    # then self-checks: admission queues the 3x oversubscription, grants
    # alternate tenants (weighted round-robin, FIFO within one) in a
    # deterministic order, all six jobs complete every step on the shared
    # slots, each run's roll-up reaches the fleet aggregator over the real
    # HTTP push path, and the merged fleet view sums the six runs exactly.
    tmp=$(mktemp) || return 1
    if ! go run ./cmd/mostctl fleet -run -steps 25 >"$tmp" 2>&1; then
        echo "fleet smoke failed; captured output:"
        cat "$tmp"
        save_artifact "$tmp" fleet-smoke.log
        rm -f "$tmp"
        return 1
    fi
    rc=0
    for needle in 'grant order' 'fleet roll-up' 'fleet check passed'; do
        if ! grep -q "$needle" "$tmp"; then
            echo "fleet smoke output missing '$needle':"
            cat "$tmp"
            save_artifact "$tmp" fleet-smoke.log
            rc=1
            break
        fi
    done
    rm -f "$tmp"
    return $rc
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
    # replies: no panic, and every position and force it accepts is finite.
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
    while read -r target pkg; do
        echo "-- fuzz $target ($pkg) --"
        if ! go test -run '^$' -fuzz "^$target\$" -fuzztime 10s "$pkg"; then
            for f in "$pkg/testdata/fuzz/$target"/*; do
                save_artifact "$f" "$target-$(basename "$f")"
            done
            return 1
        fi
    done <<TARGETS
FuzzOpen ./internal/gsi
FuzzOpenContext ./internal/gsi
FuzzDecodeRequest ./internal/ogsi
FuzzDecodeResponse ./internal/ogsi
FuzzRecordCodec ./internal/core
FuzzServerTransitions ./internal/core
FuzzValue ./internal/wirejson
FuzzServerSession ./internal/gridftp
FuzzSpoolBlockMatchesCSV ./internal/daq
FuzzShoreWesternServer ./internal/control
FuzzShoreWesternReply ./internal/control
FuzzFrameDecoder ./internal/nsds
FuzzContainerSession ./internal/ogsi
FuzzJournalReplay ./internal/journal
FuzzLoadCheckpoint ./internal/coord
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
