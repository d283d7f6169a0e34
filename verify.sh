#!/bin/sh
# Full verification gauntlet: build, vet, gofmt, all tests, the race-sensitive
# packages (parallel RunMatrix, the obs collector, and the pooled pipeline
# structures under the cycle-exactness golden) under -race, then a bench
# smoke run so the host-performance suite can't rot.
set -ex

go build ./...
go vet ./...
# The tree stays gofmt-clean.
test -z "$(gofmt -l .)"
go test ./...
go test -race -short ./internal/sim ./internal/obs
# The one cell executor (sim.Pool + ForEach: FIFO start order, Close drains,
# index-addressed batches) race-clean, repeated to shake out interleavings.
go test -race -count=10 -run 'TestPool|TestForEach' ./internal/sim
# The quick report's one-pass cell plan under -race: both goldens read one
# shared run of every report cell (the pool runs them concurrently, Fig.
# 15b's graphs are shared read-only, and each emu.Memory's page cache is
# written on reads by its one goroutine).
go test -race -run 'TestCycleExactnessGolden|TestFigureGolden' ./internal/sim
# Config.Checks race-clean: the lockstep oracle and invariant guards across
# the parallel verified matrix (skipped under -short, so named explicitly).
go test -race -run 'TestLockstepQuickMatrix|TestInjectedTimingBugsCaught' ./internal/sim
# Sampled-vs-full smoke: one workload through the checkpointed SimPoint
# pipeline must land within the accuracy gate against the full-run golden.
go test -count=1 -run 'TestSampledAccuracyVsGolden/astar$' -v ./internal/sim
# Parallel sampled + checkpoint-cache smoke under -race: the point-measurement
# worker pool must stay bit-identical to serial (skipped under -short, so the
# -race -short line above does not cover it), and the cold->warm disk
# round-trip must store once then hit (asserted via the cache's obs counters).
go test -race -count=1 \
    -run 'TestSampledParallelBitIdentical/(astar|xz)$|TestCkptCacheColdWarm' \
    ./internal/sim
# The daemon's concurrency (its sim.Pool, flights, admission, cache, live
# registry snapshots) race-clean — this also covers the journal,
# retry-policy, and cache-corruption suites; the 116-cell HTTP acceptance
# sweep is skipped under -short and pinned without -race below.
go test -race -short ./internal/serve
go test -count=1 -run TestFullQuickMatrixOverHTTP ./internal/serve
# Kill-restart chaos harness under -race: a real phelpsd subprocess (itself
# race-built) SIGKILLed at three randomized points mid-job, restarted on the
# same journal/cache dirs, and required to finish the job bit-identically
# within the retry budget. Skipped under -short, so named explicitly.
go test -race -count=1 -run TestChaosKillRestart ./internal/serve
# phelpsd smoke: boot the daemon on an ephemeral port, submit a quick job
# with the CLI client, then resubmit and require the second pass to be
# answered from the results cache; a sampled job populates the persistent
# checkpoint cache; SIGTERM must drain cleanly.
smoke_dir=$(mktemp -d)
go build -o "$smoke_dir/phelpsd" ./cmd/phelpsd
go build -o "$smoke_dir/phelps" ./cmd/phelps
"$smoke_dir/phelpsd" -addr 127.0.0.1:0 -addr-file "$smoke_dir/addr" \
    -cache "$smoke_dir/results.cache" -ckpt-dir "$smoke_dir/ckpts" \
    >"$smoke_dir/phelpsd.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do [ -s "$smoke_dir/addr" ] && break; sleep 0.1; done
daemon_url="http://$(cat "$smoke_dir/addr")"
"$smoke_dir/phelps" -submit -server "$daemon_url" \
    -workloads guarded,delinquent -configs base,phelps -quick
"$smoke_dir/phelps" -submit -server "$daemon_url" \
    -workloads guarded,delinquent -configs base,phelps -quick -json \
    | grep -q '"cached": true'
"$smoke_dir/phelps" -submit -server "$daemon_url" \
    -workloads delinquent -configs base -quick -sampled
curl -fsS "$daemon_url/v1/obs" | grep -q '"serve.ckpt.stores": 1'
kill -TERM "$daemon_pid"
wait "$daemon_pid"
grep -q drained "$smoke_dir/phelpsd.log"
# Restart on the same checkpoint directory with a cold results cache: the
# sampled cell re-executes but must reuse the persisted checkpoint artifact
# (one hit, zero stores) instead of re-running the profile pass.
"$smoke_dir/phelpsd" -addr 127.0.0.1:0 -addr-file "$smoke_dir/addr2" \
    -cache "$smoke_dir/results2.cache" -ckpt-dir "$smoke_dir/ckpts" \
    >"$smoke_dir/phelpsd2.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do [ -s "$smoke_dir/addr2" ] && break; sleep 0.1; done
daemon_url="http://$(cat "$smoke_dir/addr2")"
"$smoke_dir/phelps" -submit -server "$daemon_url" \
    -workloads delinquent -configs base -quick -sampled
obs=$(curl -fsS "$daemon_url/v1/obs")
echo "$obs" | grep -q '"serve.ckpt.hits": 1'
echo "$obs" | grep -q '"serve.ckpt.stores": 0'
kill -TERM "$daemon_pid"
wait "$daemon_pid"
grep -q drained "$smoke_dir/phelpsd2.log"
# Kill-restart chaos smoke: SIGKILL the daemon the instant a job is
# acknowledged (no drain, no cache persist); a restart on the same journal
# directory must finish the job under its original ID and surface journal
# health in /v1/healthz.
"$smoke_dir/phelpsd" -addr 127.0.0.1:0 -addr-file "$smoke_dir/addr3" \
    -journal-dir "$smoke_dir/journal" -cache "$smoke_dir/results3.cache" \
    >"$smoke_dir/phelpsd3.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do [ -s "$smoke_dir/addr3" ] && break; sleep 0.1; done
daemon_url="http://$(cat "$smoke_dir/addr3")"
job_id=$(curl -fsS -X POST "$daemon_url/v1/jobs" \
    -d '{"workloads":["guarded","delinquent"],"configs":["base","phelps"],"quick":true}' \
    | sed -n 's/^  "id": "\([^"]*\)".*/\1/p')
[ -n "$job_id" ]
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
"$smoke_dir/phelpsd" -addr 127.0.0.1:0 -addr-file "$smoke_dir/addr4" \
    -journal-dir "$smoke_dir/journal" -cache "$smoke_dir/results3.cache" \
    >"$smoke_dir/phelpsd4.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do [ -s "$smoke_dir/addr4" ] && break; sleep 0.1; done
daemon_url="http://$(cat "$smoke_dir/addr4")"
state=""
for _ in $(seq 1 300); do
    state=$(curl -fsS "$daemon_url/v1/jobs/$job_id" \
        | sed -n 's/^  "state": "\([^"]*\)".*/\1/p')
    [ "$state" = done ] && break
    sleep 0.2
done
[ "$state" = done ]
curl -fsS "$daemon_url/v1/healthz" | grep -q '"journal"'
curl -fsS "$daemon_url/v1/obs" | grep -q '"serve.journal.resumed_jobs": 1'
kill -TERM "$daemon_pid"
wait "$daemon_pid"
grep -q drained "$smoke_dir/phelpsd4.log"
rm -rf "$smoke_dir"
# Learned fast-path model: the gradient-boosted trainer and its versioned
# serialization must be race-clean and byte-deterministic (the determinism
# tests run training twice and across map orders), and the tiny-space
# explore smoke gates the triage accounting, the JSON round-trip of the
# report (schema validity — NaN anywhere fails encoding), and a generous
# holdout-MAPE bound so the feature path can't silently rot.
go test -race -count=1 ./internal/perfmodel ./internal/stats
go test -race -count=1 \
    -run 'TestRunExploreSmoke|TestRunExploreDeterministicReport|TestExploreWorkloadFeatureVector' \
    ./internal/sim
go test -run '^$' -bench . -benchtime 1x ./...
# Differential fuzz smoke: 30 s of random guarded-loop kernels, each run
# under all three timing mechanisms with the lockstep oracle watching.
go test -run '^$' -fuzz 'FuzzDifferential' -fuzztime 30s ./internal/sim
# Checkpoint-artifact reader fuzz smokes: arbitrary hierarchy-state bytes and
# (sealed) artifact bodies must fail or decode to something that re-encodes
# to the same bytes. Their seed inputs are KB-sized and the engine's
# minimization of a new input is quadratic in its length, so it is off for
# these short runs (a failure is still reported and saved, just unminimized).
go test -run '^$' -fuzz '^FuzzHierarchyLoadState$' -fuzztime 10s -fuzzminimizetime 0 ./internal/cache
go test -run '^$' -fuzz '^FuzzDecodeArtifact$' -fuzztime 10s -fuzzminimizetime 0 ./internal/sim
# Journal replay fuzz smoke: arbitrary (sealed) record payloads must replay or
# be counted, never panic, and never size a job past the cell bound.
go test -run '^$' -fuzz '^FuzzJournalReplay$' -fuzztime 10s -fuzzminimizetime 0 ./internal/serve
# Job-request fuzz smoke: arbitrary POST /v1/jobs bodies must get a JSON 202,
# 400 or 429, never a panic, and a 202 only for exactly one JSON value.
go test -run '^$' -fuzz '^FuzzSubmitBody$' -fuzztime 10s -fuzzminimizetime 0 ./internal/serve
