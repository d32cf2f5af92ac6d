#!/usr/bin/env bash
# Tier-1 gate: everything CI (and a reviewer) expects to pass.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

# The end-to-end benchmark is a package of its own (its own workspace and
# lock file, path deps on the observability crates). Its smoke test runs
# every workload for about a second, untraced and traced, with each
# workload's output checks. `--locked` here and on the release build: a
# crate change that would rewrite benchmark/Cargo.lock or Cargo.lock
# fails the gate instead of editing the lock file.
echo "==> benchmark smoke test (every workload's output checks)"
cargo test --offline --locked --manifest-path benchmark/Cargo.toml

echo "==> cargo build --release --locked"
cargo build --release --locked

# The workspace is std-only: the root Cargo.lock lists path packages
# only. A `source =` line would mean a registry or git package came back.
echo "==> no registry or git packages in Cargo.lock"
if grep -n '^source = ' Cargo.lock; then
  echo "Cargo.lock names a registry or git package; the workspace must stay std-only"
  exit 1
fi

# `default-members` names the root package and every crate, so `cargo
# test` runs every suite. The tree runs twice: once serial, once on a
# 4-wide worker pool. The par_equivalence harness pins thread counts per
# test, but running the whole tree under both OPAD_THREADS values also
# exercises every kernel's default (un-pinned) dispatch path in each mode.
echo "==> cargo test -q (OPAD_THREADS=1, serial fallback)"
OPAD_THREADS=1 cargo test -q

echo "==> cargo test -q (OPAD_THREADS=4, parallel pool)"
OPAD_THREADS=4 cargo test -q

# The recording hot path (per-thread recorder handles, write-once metric
# slots, per-thread line buffers) is atomics and thread-local code, and the
# server's blocking accept and its shutdown wake are thread-timing code, so
# both suites also run optimized.
echo "==> telemetry suite, release"
cargo test --release -q -p opad-telemetry

echo "==> serve suite, release"
cargo test --release -q -p opad-serve

# Shard conformance is the testing loop's headline contract: the same
# campaign must be bit-identical at 1/2/4/8 shards and 1/2/4/8 threads
# (pinned per test), detectors and seed pools included, under both pool
# widths; and a frozen CKPT_<seq>.json must thaw into a byte-identical
# finish. Both suites run inside the full tree above; naming them here
# keeps the gate explicit when the tree grows.
echo "==> shard equivalence (bit-exact at shards {1,2,4,8}, OPAD_THREADS=1)"
OPAD_THREADS=1 cargo test -q --test shard_equivalence

echo "==> shard equivalence (bit-exact at shards {1,2,4,8}, OPAD_THREADS=4)"
OPAD_THREADS=4 cargo test -q --test shard_equivalence

echo "==> checkpoint round-trip (freeze/thaw byte-identity; truncation and tamper rejection)"
cargo test -q --test checkpoint_roundtrip

# Pgd's one step loop against the four loops it replaced (plain,
# targeted, naturalness-guided and adaptive), kept as reference
# functions: candidate bits, labels, success and RNG state over 1,440
# seeded configurations.
echo "==> one-loop reference (guided Pgd == the replaced attack loops, bit for bit)"
cargo test -q -p opad-attack --test one_loop_reference

# The detector zoo's cross-detector contracts: shard-merge bit-equality
# at {1,2,4,8} shards, thread-count invariance of score_batch, and the
# golden ROC/AUROC pins with the degenerate-input suite (errors, never
# NaN). Both suites live in opad-detect and also run inside the full
# tree; named here because they are the detector zoo's headline gates.
echo "==> detector laws (merge == single fit bitwise; OPAD_THREADS=1)"
OPAD_THREADS=1 cargo test -q -p opad-detect --test detector_laws

echo "==> detector laws (merge == single fit bitwise; OPAD_THREADS=4)"
OPAD_THREADS=4 cargo test -q -p opad-detect --test detector_laws

echo "==> golden AUROC pins + degenerate-input suite"
cargo test -q -p opad-detect --test golden_auroc

# The history plane's acceptance contracts: window answers identical at
# both pool widths, /timeseries + /query JSON pinned byte-for-byte, and
# the cross-crate pulse → rings → HTTP → export round trip. All run
# inside the full tree above; named here as the explicit gates.
echo "==> tsdb determinism (window answers identical at OPAD_THREADS {1,4})"
OPAD_THREADS=1 cargo test -q -p opad-tsdb --test determinism
OPAD_THREADS=4 cargo test -q -p opad-tsdb --test determinism

echo "==> timeseries golden (/timeseries and /query JSON pinned byte-for-byte)"
cargo test -q -p opad-serve --test timeseries_golden

echo "==> history plane end-to-end (pulse -> rings -> HTTP -> export round trip)"
cargo test -q --test history_plane

echo "==> obsctl watch --once golden (fixture render pinned, incl. sparklines)"
cargo test -q -p opad-obs --test obsctl watch_once_matches_the_golden_file

echo "==> serve smoke test (ephemeral port; /metrics, /healthz, /alerts over TcpStream; degraded health while firing)"
cargo test -q -p opad-serve --test http_smoke

# obsctl lives in opad-bench, over the workspace-wide kernel registry;
# the release build above already built it.
obsctl() { cargo run --release -q --bin obsctl -- "$@"; }

echo "==> obsctl alerts check (shipped default pack vs the workspace metric vocabulary)"
obsctl alerts check rules/default.alerts

echo "==> obsctl alerts check (history pack: windowed rules vs the vocabulary)"
obsctl alerts check rules/history.alerts

# Deterministic replay over the committed fixture: the pfd breach must
# walk the full inactive -> pending -> firing -> resolved lifecycle while
# the liveness rules stay quiet. Non-zero exit on any mismatch.
echo "==> obsctl alerts replay smoke (committed fixture; breach resolves, stalls stay inactive)"
obsctl alerts replay rules/default.alerts \
  crates/obs/tests/fixtures/alerts_replay.jsonl \
  --expect pfd_bound_breach=resolved,fuzz_dead=inactive,seeds_stalled=inactive,naturalness_drift=inactive >/dev/null

# Window-condition replay: the committed stream ramps seeds for 2s then
# flatlines; rate(pipeline.seeds_attacked, 10s) must walk the stall rule
# to firing at exactly t=13000ms, bit-identically on every machine.
echo "==> obsctl alerts replay smoke (history pack; windowed rate() stall ends firing)"
obsctl alerts replay rules/history.alerts \
  crates/obs/tests/fixtures/history_replay.jsonl \
  --expect seed_rate_stall=firing,pfd_spiked=inactive,pfd_estimate_noisy=inactive,history_stalled=inactive >/dev/null

# Variance-aware bench regression gate over the committed BENCH_<seq>.json
# series. With only the baseline present (fresh clone, no local
# scripts/bench.sh runs) the gate prints a skip notice and passes; the
# baseline-vs-self smoke below still proves the gate machinery end to end.
echo "==> obsctl perf gate (bench trajectory; auto-skips with <2 snapshots)"
obsctl perf gate .

echo "==> obsctl perf gate smoke (baseline vs itself must be clean)"
obsctl perf gate BENCH_0001.json BENCH_0001.json >/dev/null

# Lints, formatting and docs cover every crate (default-members).
echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# The glyph world through the loop: the only run of the campaign with a
# conv net and a KDE profile. It writes no files.
echo "==> glyph_pipeline example (the Fig.-1 loop on 12x12 glyphs, conv net, KDE profile)"
cargo run --release -q --example glyph_pipeline

# The paper's method end to end: E2, E3 and E7 attack with the guided
# Pgd, and Fig. 1 runs it through the loop. ExpRun writes results/
# relative to the working directory, so they run in a scratch directory
# with its own results/ and the committed envelopes stay as they are.
echo "==> paper experiments (E2, E3, E7, Fig. 1) from a scratch directory"
ROOT="$PWD"
EXP_DIR="$(mktemp -d)"
trap 'rm -rf "$EXP_DIR"' EXIT
mkdir "$EXP_DIR/results"
for bin in exp2_detection_efficiency exp3_naturalness exp7_budget_to_target fig1_workflow; do
  (cd "$EXP_DIR" && cargo run --release -q --manifest-path "$ROOT/Cargo.toml" \
    -p opad-bench --bin "$bin" >/dev/null)
done

# The example runs with the server held open afterwards so obsctl can
# watch its /timeseries live — the end-to-end smoke for the history
# plane's HTTP surface against a real sampler, not a fixture.
echo "==> serve_monitor example (live exp2-style run; server held for the watch smoke)"
OPAD_SERVE_ADDR=127.0.0.1:9185 OPAD_SERVE_HOLD_SECS=10 \
  cargo run --release -q --example serve_monitor &
MONITOR_PID=$!

echo "==> obsctl watch --once live smoke (sparklines straight off the held server)"
WATCH_OK=0
for _ in $(seq 1 60); do
  if obsctl watch --once --addr 127.0.0.1:9185 2>/dev/null; then
    WATCH_OK=1
    break
  fi
  sleep 0.5
done
wait "$MONITOR_PID"
[ "$WATCH_OK" = 1 ] || { echo "watch --once never reached the live server"; exit 1; }

echo "==> obsctl flame over the freshly produced trace"
obsctl flame results/serve_monitor_trace.jsonl | head -5

echo "==> obsctl selfcheck (results/ + BENCH_*.json schema validation, incl. the fresh trace and alert log)"
obsctl selfcheck results .

echo "All checks passed."
