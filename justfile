# Project task runner. Install `just`, or read the recipes and run the
# commands directly — each one is a plain cargo invocation.

# Build the whole workspace in release mode.
build:
    cargo build --workspace --release

# Run every test in the workspace.
test:
    cargo test --workspace

# Lint: clippy with warnings denied, plus formatting check.
lint:
    cargo clippy --workspace --all-targets -- -D warnings
    cargo fmt --check

# Run the Fig-12 scheduler scalability benchmark.
bench:
    cargo bench --bench scheduler_scalability

# Run the Criterion micro-benchmarks (NNLS, loss-curve and speed-model
# fits, PAA, one testbed schedule, the Eqn-2 step time) cited in
# EXPERIMENTS "Criterion micro-benchmarks".
bench-micro:
    cargo bench -p optimus-bench --bench micro

# Time one scheduling decision per scalability point and append the
# result to the committed trajectory file (compare entries across PRs).
bench-sched:
    cargo run --release -p optimus-bench --bin bench_sched -- --out BENCH_sched.json

# Time one interval's convergence refits (reference vs fast path) per
# grid point and append the result to the committed trajectory file.
bench-fit:
    cargo run --release -p optimus-bench --bin bench_fit -- --out BENCH_fit.json

# Whole-simulation benchmark of a loaded cluster (perfbench/README.md):
# builds perfbench into .bench_build and runs one workload, e.g.
# `just perfbench testbed-contended 31 10 0`. The last stdout line is
# the result JSON; TRACE=1 adds the per-layer attribution.
perfbench WORKLOAD SEED="17" SECONDS="10" TRACE="0":
    python3 perfbench/run.py --workload {{WORKLOAD}} --seed {{SEED}} --seconds {{SECONDS}} --trace {{TRACE}}

# Allocator smoke: one steady-state bench sample per scalability point,
# cross-checked against the naive reference scheduler (non-zero exit on
# any divergent allocation or placement), plus the zero-allocation
# steady-state-round proof.
bench-alloc:
    cargo run --release -p optimus-bench --bin bench_sched -- --samples 1 --verify
    cargo test --release -p optimus-core --test zero_alloc

# Prove the optimized paths byte-identical to the naive reference
# implementations (property-based): allocator/placer, the speed-model
# refit against the old heap-row formulation
# (`speed_model_refit_matches_row_oracle`), the incremental
# warm-started convergence fitter, the batched SoA fit engine (plus the
# fitting crate's unit tests under release codegen, which pit the
# portable wave passes against the AVX-512 ones bit for bit on certified
# and fallback waves (only pass A has an AVX-512 form; the fallback dual
# sweep is portable), the Gram-cached NNLS against the naive
# Lawson–Hanson solver, `reference_matches_gram_cached_solver`, and
# prove the wave kernel's two Gram certificates: the entering-column
# test decides as the dual sweep would,
# `certified_entering_tests_decide_as_the_sweep` with
# `certificate_falls_back_where_rounding_straddles_tol` and
# `certificate_falls_back_when_the_sweep_overflows`, and the overflow
# admission matches the row probe,
# `overflow_admission_matches_the_row_probe`), and the simulator. The simulator suite runs four ways — under the
# discrete-event engine (the default), forced to the legacy tick loop,
# with the batched refit engine disabled, and with delta rounds
# disabled (every round re-derived from scratch) — so every engine
# default keeps passing the same byte-identity proofs, plus the
# event-calendar determinism proptests.
equivalence:
    cargo test --release -p optimus-core --test equivalence
    cargo test --release -p optimus-fitting --test equivalence
    cargo test --release -p optimus-fitting --lib
    cargo test --release -p optimus-fitting --test batch_equivalence
    cargo test --release -p optimus-simulator --test equivalence
    OPTIMUS_EVENT_ENGINE=0 cargo test --release -p optimus-simulator --test equivalence
    OPTIMUS_BATCHED_FIT=0 cargo test --release -p optimus-simulator --test equivalence
    OPTIMUS_DELTA_ROUNDS=0 cargo test --release -p optimus-simulator --test equivalence
    cargo test --release -p optimus-simulator --test event_determinism

# Ledger smoke: two identical small runs must produce byte-identical
# artifacts — `optimus-trace diff` exits non-zero if they diverge —
# and a third run under the legacy tick engine must hash identically
# to the event-engine runs on every decision artifact (the cross-engine
# determinism contract, DESIGN §11). `trace.jsonl` is excluded there:
# it carries each engine's own accounting counters (events/waves vs
# ticks skipped/batched), which differ by construction. A fourth run
# with the batched refit engine disabled must match the default run on
# EVERY artifact, trace included — the batched fitter's contract is
# bit-identical models *and* telemetry (DESIGN §12), so nothing is
# ignored in that diff. A fifth run with delta rounds disabled must
# match on every decision artifact (events/schedule/jct — the DESIGN
# §13 contract); `trace.jsonl` and `flight.jsonl` are excluded there
# because the delta path legitimately emits different *telemetry*:
# replayed placements skip per-job Placement events, and per-round
# counter deltas differ when work is reused instead of re-derived.
# `provenance.jsonl` is excluded there too: why-records narrate the
# delta path taken (replay/derive vs full), which differs between the
# modes by definition even though the decisions are identical.
ledger:
    rm -rf target/ledger-smoke
    cargo run --release --bin optimus-sim -- run --jobs 3 --seed 11 --interval 300 --ledger target/ledger-smoke/a
    cargo run --release --bin optimus-sim -- run --jobs 3 --seed 11 --interval 300 --ledger target/ledger-smoke/b
    OPTIMUS_EVENT_ENGINE=0 cargo run --release --bin optimus-sim -- run --jobs 3 --seed 11 --interval 300 --ledger target/ledger-smoke/tick
    OPTIMUS_BATCHED_FIT=0 cargo run --release --bin optimus-sim -- run --jobs 3 --seed 11 --interval 300 --ledger target/ledger-smoke/scalar-fit
    OPTIMUS_DELTA_ROUNDS=0 cargo run --release --bin optimus-sim -- run --jobs 3 --seed 11 --interval 300 --ledger target/ledger-smoke/full-rounds
    cargo run --release --bin optimus-trace -- diff target/ledger-smoke/a target/ledger-smoke/b
    cargo run --release --bin optimus-trace -- diff --ignore trace.jsonl target/ledger-smoke/a target/ledger-smoke/tick
    cargo run --release --bin optimus-trace -- diff target/ledger-smoke/a target/ledger-smoke/scalar-fit
    cargo run --release --bin optimus-trace -- diff --ignore trace.jsonl --ignore flight.jsonl --ignore provenance.jsonl target/ledger-smoke/a target/ledger-smoke/full-rounds

# Whole-simulation throughput: simulated-seconds per wall-second and
# events per wall-second across the job grid, with a bit-identical
# per-job JCT cross-check between samples (a nondeterministic engine
# cannot record timings). Appends to the committed trajectory file.
bench-sim:
    cargo run --release -p optimus-bench --bin bench_sim -- --out BENCH_sim.json

# Flight-recorder smoke: write a small ledgered run and render it as a
# per-job Gantt chart plus utilization/fragmentation/queue timelines.
timeline:
    rm -rf target/timeline-demo
    cargo run --release --bin optimus-sim -- run --jobs 4 --seed 11 --interval 300 --ledger target/timeline-demo
    cargo run --release --bin optimus-trace -- timeline target/timeline-demo

# Decision-provenance smoke: record a small ledgered run and explain
# one job's decisions from its provenance.jsonl — the round-by-round
# history, one full round story, and the run-wide summary. Exercises
# the whole why-record pipeline (record → ledger artifact → explainer).
why:
    rm -rf target/why-demo
    cargo run --release --bin optimus-sim -- run --jobs 4 --seed 11 --interval 300 --ledger target/why-demo
    cargo run --release --bin optimus-trace -- why 1 target/why-demo
    cargo run --release --bin optimus-trace -- why 1 target/why-demo --round 3
    cargo run --release --bin optimus-trace -- why target/why-demo --summary

# Regression watchdog: fail if the newest committed bench entry is
# slower than the best prior entry beyond the tolerance.
check-bench:
    cargo run --release --bin optimus-trace -- check-bench

# Everything CI would run: lint + build + tests, the optimized-vs-
# reference equivalence proptests (in every engine mode, including
# delta rounds off), 1-sample bench smoke runs (keeps the timing
# harnesses compiling and executable without recording noise;
# bench-alloc also cross-checks decisions against the reference across
# the standard points *and* the steady-state churn points, where
# --verify additionally fails on any delta-path fallback to a full
# re-derivation; bench_fit smokes the at-scale 5000-job grid point,
# which includes its own reference-vs-scalar-vs-batched cross-check;
# bench_sim smokes the at-scale 100-job grid point, which includes its
# own tick-vs-event cross-check), the run-ledger determinism smoke
# (including the cross-engine and delta-off diffs), the
# flight-recorder timeline smoke, the decision-provenance why smoke,
# and the bench regression watchdog.
ci: lint build test equivalence bench-alloc ledger timeline why check-bench
    cargo run --release -p optimus-bench --bin bench_fit -- --samples 1 --points 5000
    cargo run --release -p optimus-bench --bin bench_sim -- --samples 1 --points 100
