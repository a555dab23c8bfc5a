#!/usr/bin/env bash
# Tier-1 gate plus kernel checks. Offline by construction: rand and proptest
# are vendored as path crates under crates/, so no registry or network
# access is needed.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# Every test phase runs under a wall-clock cap: a hang (the failure mode
# the budget subsystem exists to prevent) fails CI instead of wedging it.
TEST_TIMEOUT="${TEST_TIMEOUT:-900}"
run_capped() { timeout --signal=KILL "$TEST_TIMEOUT" "$@"; }

echo "== format =="
cargo fmt --all --check

echo "== one budgeted entry point per operation (no unbudgeted twin regrows) =="
# Each operation that can run QE is one public function taking &EvalBudget
# last. Only two keep a `_with_budget` name, because bench/ calls them.
twins="$(git grep -o 'pub fn [a-z_]*_with_budget' -- 'crates/*/src/*' | sort || true)"
expected="crates/agg/src/lang.rs:pub fn eval_with_budget
crates/geom/src/volume.rs:pub fn volume_in_unit_box_with_budget"
if [ "$twins" != "$expected" ]; then
  printf 'expected only SumTerm::eval_with_budget and volume_in_unit_box_with_budget, found:\n%s\n' \
    "$twins" >&2
  exit 1
fi

echo "== one front end (no second server regrows beside the reactor) =="
front="$(git ls-files crates/engine/src/net)"
expected="crates/engine/src/net/conn.rs
crates/engine/src/net/mod.rs
crates/engine/src/net/reactor.rs
crates/engine/src/net/worker.rs"
if [ "$front" != "$expected" ]; then
  printf 'crates/engine/src/net must hold conn.rs mod.rs reactor.rs worker.rs only, found:\n%s\n' \
    "$front" >&2
  exit 1
fi

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== build (release) =="
cargo build --workspace --release --offline

echo "== tier-1 tests =="
run_capped cargo test -q --offline

echo "== workspace tests =="
run_capped cargo test -q --workspace --offline

echo "== exact arithmetic (inline vs limb differential, pinned hash stream; the borrowing parser against the owned-token oracle, release) =="
run_capped cargo test -q --offline -p cqa-arith
run_capped cargo test -q --offline -p cqa-logic --lib hash_stream_is_pinned
run_capped cargo test -q --release --offline -p cqa-logic --lib parser

echo "== kernel parity (eval_rats and the SoA batch sweep vs the tree-walking interpreter; non-dyadic, 3^-700 and 3^700 coefficients at 2^±1000 points, inexact columns, sign-boundary lanes; pinned underflow and infinite-error cases; pinned certified-lane-set digest, debug and release) =="
# Release too: the optimiser vectorises the sweep's lane loops, which an
# unoptimised build runs one lane at a time.
run_capped cargo test -q --offline -p cqa-logic --test kernel_parity
run_capped cargo test -q --release --offline -p cqa-logic --test kernel_parity
run_capped cargo test -q --offline -p cqa-logic --lib compile::tests

echo "== one Monte Carlo (thread-count determinism of the library sweep; lane ranges; the library estimator over MC_SEED answers what EXEC does) =="
run_capped cargo test -q --offline -p cqa-approx --test thread_determinism
run_capped cargo test -q --release --offline -p cqa-approx --lib mc::tests
run_capped cargo test -q --release --offline -p cqa-engine --test goldens the_library_estimator_answers_what_the_wire_does

echo "== sample-stream jump-ahead (xoshiro256++ advance(n) vs n steps, composition, characteristic polynomial re-derived by Berlekamp–Massey; a jumped witness fills batch k of the serial stream) =="
# Release: one parity case steps 5·2²³ draws.
run_capped cargo test -q --release --offline -p rand
run_capped cargo test -q --release --offline -p cqa-approx --lib sample::tests

echo "== IR parity (boxed tree vs hash-consed arena) =="
run_capped cargo test -q --offline -p cqa-qe --test ir_parity

echo "== absint soundness (verdicts vs QE oracle, box containment) =="
run_capped cargo test -q --offline -p cqa-analyze --test absint_soundness

echo "== incremental analysis parity (chunk-by-chunk AnalyzerState vs one analyze_source pass; rollback leaves no trace) =="
run_capped cargo test -q --offline -p cqa-analyze --test incremental_parity

echo "== planner parity (planned vs fixed QE, subplan-hit determinism) =="
run_capped cargo test -q --offline -p cqa-qe --test plan_parity

echo "== Hörmander (pinned corpus, flat sign matrices, bounded replay, memory and depth) =="
# The corpus digests pin every output bit for bit and every step count;
# the MPoly model proptest checks the sorted term list; the lib proptests
# check the flat-matrix deduction against the row-per-Vec oracle, the
# stack-linked sign context's lookups against the Vec context it replaced,
# and the leaf-row memo against the body's direct evaluation;
# the bounds tests trip a step cap and a 50 ms deadline on three
# non-terminating probes (the deadline margin is only asserted in release
# builds), cap peak RSS, and trip the depth cap on derivations too deep for
# a request thread's stack, in the library and through Engine::dispatch;
# three cold_poly lens queries' full EXEC replies are pinned.
run_capped cargo test -q --release --offline -p cqa-qe --test hoermander_props pinned_corpus
run_capped cargo test -q --release --offline -p cqa-poly --test props
run_capped cargo test -q --release --offline -p cqa-qe --lib -- dedmatrix linked_findsign leaf_rows
run_capped cargo test -q --release --offline -p cqa-qe --test hoermander_bounds
run_capped cargo test -q --release --offline -p cqa-engine --lib a_derivation_too_deep
run_capped cargo test -q --release --offline -p cqa-engine --test goldens lens_replies

echo "== exact volume and integrals (sweep vs inclusion–exclusion and integral oracles, degradation, spatial_analytics) =="
# The Theorem-3 sweep against inclusion–exclusion with Lasserre's recursion
# (equal Rat or equal error on random unions of 1–4 cells in 1-D to 3-D,
# touching, nested, empty, lower-dimensional and unbounded ones included),
# then the exact→approximate contract, whose volume trips come from a step
# cap that the same formula's elimination fits under. Then the same sweep's
# integrals of polynomials of degree ≤ 3 against the 2-D sweep of the
# paper's proof, a box-corner grid, the Dirichlet integral on the simplex
# and additivity in 3-D, and the example that asserts exact integrals,
# averages and a 3-D centroid.
run_capped cargo test -q --release --offline -p cqa-geom
run_capped cargo test -q --release --offline --test budget_degradation
run_capped cargo test -q --release --offline -p cqa-agg
run_capped cargo run -q --release --offline --example spatial_analytics

echo "== storage durability (kill-and-replay, torn tail, crash-point sweep) =="
run_capped cargo test -q --offline -p cqa-engine --test storage

echo "== serving layer (pipelining order/parity, pipelined bursts, shard bit-identity, idle sessions, busy path, body caps, parse caps: degree 64 / 4096 terms / 4096-bit coefficients, a shared-stream BATCH equal to lone EXECs, sweeping each distinct kernel once: lane counters of one EXEC per distinct spec, exactly one stream per (dim, samples) group, shared= counting the repeats; a pipelined 140-LOAD burst byte-identical to serial dispatch in a few coalesced writes; a ready reply not waiting behind a slow frame) =="
run_capped cargo test -q --offline -p cqa-engine --test serving

echo "== transcript differential (pinned digest, debug and release; a release re-run and the debug build print the same transcript) =="
# cqa-transcript runs seeded LOAD/PREPARE/EXEC/VOLUME/SUM/BATCH/PERSIST
# scripts through Engine::dispatch and prints every request and reply. Its
# output depends on the seeds alone: a second run, or an unoptimised build,
# that prints anything else is a finding.
run_capped cargo test -q --offline -p cqa-testkit
run_capped cargo test -q --release --offline -p cqa-testkit
cargo build -q --offline -p cqa-testkit
for build in release release-again debug; do
  run_capped "./target/${build%-again}/cqa-transcript" --seed 1 --count 200 \
    > "target/transcript-$build.txt"
done
cmp target/transcript-release.txt target/transcript-release-again.txt
cmp target/transcript-release.txt target/transcript-debug.txt

echo "== cqa-e2e smoke (bench/ builds against the crates' API; every reply checked, failed 0) =="
# The one performance instrument, capped: its own unit tests, then two
# seconds of each workload. A non-zero exit means a reply did not match the
# generator's constructed answer — or that a crate change broke an item
# bench/ imports.
run_capped cargo test --release --offline --manifest-path bench/Cargo.toml
for workload in cold_lin cold_poly warm_rtt warm_batch; do
  run_capped cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- \
    --workload "$workload" --seed 1 --seconds 2 --trace 0
done

echo "== rustdoc (deny warnings; vendored crates excluded) =="
RUSTDOCFLAGS="-D warnings" run_capped cargo doc --no-deps --workspace --offline \
  --exclude proptest --exclude rand

echo "== budget smoke check (blow-up query must trip, fast) =="
# A combinatorially explosive query under a 10 ms budget: the dynamic pass
# must exit non-zero with a budget diagnostic *promptly* — the 30 s cap is
# the hang detector, not the expected runtime.
if timeout --signal=KILL 30 \
    cargo run -q --offline -p cqa-analyze --bin cqa-lint -- \
    --timeout-ms 10 examples/lint/blowup.cqa; then
  echo "cqa-lint --timeout-ms 10 should have tripped on blowup.cqa" >&2
  exit 1
fi

echo "== server smoke test (cqa-serve / cqa-shell over TCP under RUST_MIN_STACK=65536; 16-spec BATCH vs lone EXECs, sample-cap and nesting-cap probes, 127 parentheses answered) =="
# Ephemeral port; the whole round-trip runs under the hang-detector cap.
# Asserts an exact answer, an (ε,δ)-tagged degraded answer, a CQA-diagnostic
# rejection over the wire, a BATCH body equal to the same specs sent as
# lone EXECs, a tiny ε and 1 000 parentheses refused with the server still
# answering, and a clean SHUTDOWN (both exit codes 0). The server runs with
# a 64 KiB default thread stack: a query 127 parentheses deep, inside the
# nesting cap, must still be answered, because every thread that answers a
# request sets its own stack size.
SERVE_LOG="$(mktemp)"
SHELL_LOG="$(mktemp)"
DATA_DIR="$(mktemp -d)"
trap 'rm -f "$SERVE_LOG" "$SHELL_LOG"; rm -rf "$DATA_DIR"' EXIT
RUST_MIN_STACK=65536 ./target/release/cqa-serve --workers 2 --timeout-ms 2000 \
  --preload examples/lint/endpoints.cqa > "$SERVE_LOG" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 50); do
  ADDR="$(sed -n 's/^LISTENING //p' "$SERVE_LOG")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
if [ -z "$ADDR" ]; then
  echo "cqa-serve did not print LISTENING" >&2
  kill "$SERVE_PID" 2>/dev/null || true
  exit 1
fi
# Sixteen specs over warm linear and polynomial queries: a BATCH answers
# them side by side, and its body must be the lone EXECs' headers.
SPECS="above
d 0.01 0.01
ring 0.01 0.01
d
ring
above 0.2 0.1
d 0.02 0.02
ring 0.03
d 0.01 0.01
above
ring 0.01 0.05
d 0.05 0.01
ring
d 0.04
above 0.1
d 0.01 0.01"
DEEP="$(printf '%.0s(' $(seq 1 1000))x > 1/2$(printf '%.0s)' $(seq 1 1000))"
CAPPED="$(printf '%.0s(' $(seq 1 127))x > 1/2$(printf '%.0s)' $(seq 1 127))"
{
  cat <<'EOF'
PREPARE above S(x) & x >= 0.5
EXEC above
EXEC above
VOLUME x*x + y*y <= 1
PREPARE bad Missing(q) & q > 0
STATS
@t7 EXEC above
BATCH
above
above 0.2 0.1
.
PREPARE d x*x + y*y < 1/4
PREPARE ring x*x + y*y >= 1/4 & x*x + y*y <= 1
EXEC d
EXEC ring
@cap1 EXEC d 0.00005 0.5
@cap2 EXEC d 0.01 0.01
EOF
  printf '@deep0 VOLUME %s\n' "$CAPPED"
  printf '@deep1 VOLUME %s\n@deep2 VOLUME x > 1/2\n' "$DEEP"
  i=0
  while read -r spec; do
    i=$((i + 1))
    echo "@b$i EXEC $spec"
  done <<< "$SPECS"
  printf 'BATCH\n%s\n.\nSHUTDOWN\n' "$SPECS"
} | run_capped ./target/release/cqa-shell "$ADDR" > "$SHELL_LOG"
cat "$SHELL_LOG"
# Exact answer (S ∩ [1/2, 1] has length 1/4), served from QE then the cache.
grep -q "status=exact value=1/4 cache=miss" "$SHELL_LOG"
grep -q "status=exact value=1/4 cache=hit" "$SHELL_LOG"
# Degraded answer must carry its (ε, δ) contract and its step count.
grep -q "status=approx .*eps=0.05 delta=0.05 .*cache=miss steps=[0-9]" "$SHELL_LOG"
# Lint rejection travels over the wire with the real diagnostic.
grep -q "^ERR lint" "$SHELL_LOG"
grep -q "error\[CQA004\]: unknown relation" "$SHELL_LOG"
# STATS shows the cache did its job.
grep -q "hits=1" "$SHELL_LOG"
# Pipelining surface: a tagged request echoes its tag on the response, and
# a dot-terminated BATCH body answers one inner EXEC header per spec.
grep -q "^@t7 OK EXEC above" "$SHELL_LOG"
grep -q "^OK BATCH n=2 errors=0" "$SHELL_LOG"
# A sample count past the cap and nesting past the parser's cap are refused
# at once, and the same server answers the next request correctly.
grep -q "^@cap1 ERR exec eps/delta 0.00005/0.5 need 277258874 samples, over the cap of 8388608$" "$SHELL_LOG"
grep -q "^@cap2 OK EXEC d status=approx value=1716/8831 eps=0.01 delta=0.01 samples=26493 " "$SHELL_LOG"
grep -q "^@deep0 OK VOLUME - status=exact value=1/2 " "$SHELL_LOG"
grep -q "^@deep1 ERR parse .*nesting deeper than 128 levels$" "$SHELL_LOG"
grep -q "^@deep2 OK VOLUME - status=exact value=1/2 " "$SHELL_LOG"
# The BATCH fan-out is a pure reordering of work: its body, line for line,
# is what the same sixteen specs answered one EXEC at a time.
sed -n 's/^@b[0-9]* //p' "$SHELL_LOG" > "$SHELL_LOG.lone"
sed -n '/^OK BATCH n=16 errors=0$/,+16p' "$SHELL_LOG" | tail -n +2 > "$SHELL_LOG.batch"
[ "$(wc -l < "$SHELL_LOG.lone")" -eq 16 ]
diff "$SHELL_LOG.lone" "$SHELL_LOG.batch"
rm -f "$SHELL_LOG.lone" "$SHELL_LOG.batch"
# Clean shutdown: the server process exits 0 (workers joined, no leak).
run_capped tail --pid="$SERVE_PID" -f /dev/null
wait "$SERVE_PID"

echo "== crash-recovery smoke (cqa-serve --data-dir, SIGKILL, recovered boot) =="
# Session 1: attach a durable database, load, prepare, run cold. Then the
# server is killed with SIGKILL — no shutdown, no flush. The restarted
# server must replay the WAL and serve the same answer from the persisted
# warm cache.
start_durable_serve() {
  : > "$SERVE_LOG"
  ./target/release/cqa-serve --workers 2 --timeout-ms 5000 \
    --data-dir "$DATA_DIR" > "$SERVE_LOG" &
  SERVE_PID=$!
  ADDR=""
  for _ in $(seq 1 50); do
    ADDR="$(sed -n 's/^LISTENING //p' "$SERVE_LOG")"
    [ -n "$ADDR" ] && break
    sleep 0.1
  done
  if [ -z "$ADDR" ]; then
    echo "cqa-serve --data-dir did not print LISTENING" >&2
    kill "$SERVE_PID" 2>/dev/null || true
    exit 1
  fi
}
start_durable_serve
run_capped ./target/release/cqa-shell "$ADDR" > "$SHELL_LOG" <<'EOF'
PERSIST main
LOAD rel S(y) := (0 <= y & y <= 1/2) | (3/4 <= y & y <= 2)
PREPARE band S(x) & x <= 1
EXEC band
CLOSE
EOF
cat "$SHELL_LOG"
grep -q "OK PERSIST main statements=0" "$SHELL_LOG"
grep -q "status=exact value=3/4 cache=miss" "$SHELL_LOG"
# SIGKILL: the only durability that counts is what is already fsynced.
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
# Session 2, after the recovered boot: the database replays from the WAL
# (statements=1) and the prepared query is answered bit-identically from
# the warm-started cache, with the recovery counters visible in STATS.
start_durable_serve
run_capped ./target/release/cqa-shell "$ADDR" > "$SHELL_LOG" <<'EOF'
PERSIST main
PREPARE band S(x) & x <= 1
EXEC band
STATS
SHUTDOWN
EOF
cat "$SHELL_LOG"
grep -q "OK PERSIST main statements=1" "$SHELL_LOG"
grep -q "status=exact value=3/4 cache=hit" "$SHELL_LOG"
grep -q "wal records=" "$SHELL_LOG"
grep -q "warm loaded=" "$SHELL_LOG"
run_capped tail --pid="$SERVE_PID" -f /dev/null
wait "$SERVE_PID"

echo "CI OK"
