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
# -race -short line above does not cover it), the cold->warm disk
# round-trip must store once then hit (asserted via the cache's obs
# counters), and two seeds of one workload sharing a cached profile
# concurrently must equal their serial runs.
go test -race -count=1 \
    -run 'TestSampledParallelBitIdentical/(astar|xz)$|TestCkptCacheColdWarm|TestCkptCacheProfileReuse' \
    ./internal/sim
# The daemon's concurrency (its sim.Pool, flights, admission, cache, live
# registry snapshots) race-clean — this also covers the journal,
# cell-failure, and cache-corruption suites; the 116-cell HTTP acceptance
# sweep is skipped under -short and pinned without -race below.
go test -race -short ./internal/serve
go test -count=1 -run TestFullQuickMatrixOverHTTP ./internal/serve
# Kill-restart chaos harness under -race: a real phelpsd subprocess (itself
# race-built) SIGKILLed at three randomized points mid-job, restarted on the
# same journal/cache dirs, and required to finish the job bit-identically.
# Skipped under -short, so named explicitly.
go test -race -count=1 -run TestChaosKillRestart ./internal/serve
# phelpsd smoke: boot the daemon on an ephemeral port, submit a quick job
# with the CLI client, then resubmit and require the second pass to be
# answered from the results cache with the same results; a sampled job
# populates the persistent checkpoint cache, and the same job at another
# seed stores a second artifact from the profile the first one left in
# memory; SIGTERM must drain cleanly.
smoke_dir=$(mktemp -d)
go build -o "$smoke_dir/phelpsd" ./cmd/phelpsd
go build -o "$smoke_dir/phelps" ./cmd/phelps
# A failed run fails the CLI in JSON mode as in text mode: a negative
# SimPoint count is rejected with an error, which -json reports in its
# "error" field, and the exit status is 1.
status=0
"$smoke_dir/phelps" -workload delinquent -config base -sampled -sp-k -1 \
    -json >"$smoke_dir/failed.json" || status=$?
[ "$status" = 1 ]
grep -q '"error": ' "$smoke_dir/failed.json"
# phelps names the predictor its configuration runs, which scripts read from
# -json: perfBP runs the perfect predictor.
"$smoke_dir/phelps" -workload guarded -config perfBP -quick -json \
    | grep -q '"predictor": "perfect"'
# Checkpoint cache on or off, through the binary: a sampled run without a
# cache (which builds and measures an artifact it never stores), a cold run
# that stores the artifact and a warm run that decodes it from disk print
# byte-identical JSON, and the cache directory holds exactly one artifact
# file. Artifact bytes are deterministic: that file stays under 1,000,000
# bytes (771,292 with predictor blobs of trained entries, 1,271,303 when
# they were dense).
"$smoke_dir/phelps" -workload bfs -config phelps -quick -sampled -seed 7 \
    -json >"$smoke_dir/ckpt-off.json"
for run in cold warm; do
    "$smoke_dir/phelps" -workload bfs -config phelps -quick -sampled -seed 7 \
        -json -ckpt-dir "$smoke_dir/cli-ckpts" >"$smoke_dir/ckpt-$run.json"
    cmp "$smoke_dir/ckpt-off.json" "$smoke_dir/ckpt-$run.json"
done
[ "$(ls "$smoke_dir/cli-ckpts" | wc -l)" -eq 1 ]
ls "$smoke_dir"/cli-ckpts/*.ckpt
[ "$(cat "$smoke_dir"/cli-ckpts/*.ckpt | wc -c)" -lt 1000000 ]
# -cpuprofile: a quick cell, and the first smoke daemon below (its profile
# stops after the drain), each write a non-empty CPU profile that
# go tool pprof reads.
"$smoke_dir/phelps" -workload gcc -config phelps -quick \
    -cpuprofile "$smoke_dir/phelps.prof" >/dev/null
test -s "$smoke_dir/phelps.prof"
go tool pprof -top "$smoke_dir/phelps" "$smoke_dir/phelps.prof" >/dev/null
"$smoke_dir/phelpsd" -addr 127.0.0.1:0 -addr-file "$smoke_dir/addr" \
    -cache "$smoke_dir/results.cache" -ckpt-dir "$smoke_dir/ckpts" \
    -cpuprofile "$smoke_dir/phelpsd.prof" >"$smoke_dir/phelpsd.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do [ -s "$smoke_dir/addr" ] && break; sleep 0.1; done
daemon_url="http://$(cat "$smoke_dir/addr")"
"$smoke_dir/phelps" -submit -server "$daemon_url" \
    -workloads guarded,delinquent -configs base,phelps -quick -json \
    >"$smoke_dir/cold.json"
"$smoke_dir/phelps" -submit -server "$daemon_url" \
    -workloads guarded,delinquent -configs base,phelps -quick -json \
    >"$smoke_dir/warm.json"
grep -q '"cached": true' "$smoke_dir/warm.json"
# Both passes read each result back from the results log: the cold and the
# cached pass print byte-identical results (their job IDs and the cached
# flags aside), and a healthy log holds no result in memory.
for run in cold warm; do
    grep -v '^  "id": \|"cached": ' "$smoke_dir/$run.json" >"$smoke_dir/$run.results"
done
cmp "$smoke_dir/cold.results" "$smoke_dir/warm.results"
obs=$(curl -fsS "$daemon_url/v1/obs")
echo "$obs" | grep -q '"serve.cache.resident": 0'
echo "$obs" | grep -q '"serve.cache.save_errors": 0'
"$smoke_dir/phelps" -submit -server "$daemon_url" \
    -workloads delinquent -configs base -quick -sampled
curl -fsS "$daemon_url/v1/obs" | grep -q '"serve.ckpt.stores": 1'
"$smoke_dir/phelps" -submit -server "$daemon_url" \
    -workloads delinquent -configs base -quick -sampled -seed 8
obs=$(curl -fsS "$daemon_url/v1/obs")
echo "$obs" | grep -q '"serve.ckpt.profile_hits": 1'
echo "$obs" | grep -q '"serve.ckpt.stores": 2'
# The daemon takes no fault injection from the network: a job body with a
# "faults" field is a 400 bad_request.
code=$(curl -sS -o "$smoke_dir/faults.json" -w '%{http_code}' -X POST "$daemon_url/v1/jobs" \
    -d '{"workloads":["guarded"],"configs":["base"],"quick":true,"faults":[{"workload":"guarded","config":"base","kind":"panic"}]}')
[ "$code" = 400 ]
grep -q '"kind": "bad_request"' "$smoke_dir/faults.json"
kill -TERM "$daemon_pid"
wait "$daemon_pid"
grep -q drained "$smoke_dir/phelpsd.log"
test -s "$smoke_dir/phelpsd.prof"
go tool pprof -top "$smoke_dir/phelpsd" "$smoke_dir/phelpsd.prof" >/dev/null
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
# acknowledged (no drain); a restart on the same journal directory must
# finish the job under its original ID and surface journal health in
# /v1/healthz.
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
# Results-log durability: a daemon with only -cache is SIGKILLed as soon as
# its job reports done (no drain, no sync); each cell's record was appended
# before the cell resolved, so a restart on the same file must answer the
# same job entirely from the log, every cell cached and none executed.
"$smoke_dir/phelpsd" -addr 127.0.0.1:0 -addr-file "$smoke_dir/addr5" \
    -cache "$smoke_dir/results5.cache" >"$smoke_dir/phelpsd5.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do [ -s "$smoke_dir/addr5" ] && break; sleep 0.1; done
daemon_url="http://$(cat "$smoke_dir/addr5")"
job_id=$(curl -fsS -X POST "$daemon_url/v1/jobs" \
    -d '{"workloads":["guarded","delinquent"],"configs":["base","phelps"],"quick":true}' \
    | sed -n 's/^  "id": "\([^"]*\)".*/\1/p')
[ -n "$job_id" ]
state=""
for _ in $(seq 1 1000); do
    state=$(curl -fsS "$daemon_url/v1/jobs/$job_id" \
        | sed -n 's/^  "state": "\([^"]*\)".*/\1/p')
    [ "$state" = done ] && break
    sleep 0.05
done
[ "$state" = done ]
kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
"$smoke_dir/phelpsd" -addr 127.0.0.1:0 -addr-file "$smoke_dir/addr6" \
    -cache "$smoke_dir/results5.cache" >"$smoke_dir/phelpsd6.log" 2>&1 &
daemon_pid=$!
for _ in $(seq 1 50); do [ -s "$smoke_dir/addr6" ] && break; sleep 0.1; done
daemon_url="http://$(cat "$smoke_dir/addr6")"
"$smoke_dir/phelps" -submit -server "$daemon_url" \
    -workloads guarded,delinquent -configs base,phelps -quick -json \
    >"$smoke_dir/restart.json"
[ "$(grep -c '"cached": true' "$smoke_dir/restart.json")" -eq 4 ]
curl -fsS "$daemon_url/v1/obs" | grep -q '"serve.sched.executed": 0'
kill -TERM "$daemon_pid"
wait "$daemon_pid"
grep -q drained "$smoke_dir/phelpsd6.log"
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
# Checkpoint-artifact reader fuzz smokes: arbitrary predictor-state bytes,
# hierarchy-state bytes and (sealed) artifact bodies must fail or decode to
# something that re-encodes to the same bytes. Their seed inputs are
# KB-sized and the engine's minimization of a new input is quadratic in its
# length, so it is off for these short runs (a failure is still reported and
# saved, just unminimized).
go test -run '^$' -fuzz '^FuzzPredictorLoadState$' -fuzztime 10s -fuzzminimizetime 0 ./internal/bpred
go test -run '^$' -fuzz '^FuzzHierarchyLoadState$' -fuzztime 10s -fuzzminimizetime 0 ./internal/cache
go test -run '^$' -fuzz '^FuzzDecodeArtifact$' -fuzztime 10s -fuzzminimizetime 0 ./internal/sim
# Journal replay fuzz smoke: arbitrary (sealed) record payloads must replay or
# be counted, never panic, and never size a job past the cell bound.
go test -run '^$' -fuzz '^FuzzJournalReplay$' -fuzztime 10s -fuzzminimizetime 0 ./internal/serve
# Results-log fuzz smoke: arbitrary (sealed) record payloads must open without
# a panic, keep exactly the leading valid records, count a load error exactly
# when a frame did not replay, and take an append that replays.
go test -run '^$' -fuzz '^FuzzResultCacheLoad$' -fuzztime 10s -fuzzminimizetime 0 ./internal/serve
# Job-request fuzz smoke: arbitrary POST /v1/jobs bodies must get a JSON 202,
# 400 or 429, never a panic, and a 202 only for exactly one JSON value.
go test -run '^$' -fuzz '^FuzzSubmitBody$' -fuzztime 10s -fuzzminimizetime 0 ./internal/serve
