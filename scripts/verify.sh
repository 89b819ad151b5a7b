#!/usr/bin/env bash
# Tier-1 verification: everything CI and reviewers rely on.
#   1. release build of the whole workspace
#   2. full test suite (debug builds auto-attach the panicking
#      scheduling-invariant oracle, so this is also the timing suite),
#      plus the release-only heap-allocation budget of an untraced run
#      (debug builds compile that test to nothing: their oracle allocates)
#   3. clippy, warnings denied, and the mosbench package's tests (its
#      pinned per-job results and smoke runs; the package is outside the
#      workspace, so a queue API change or a moved simulated result would
#      otherwise break only the benchmark)
#   4. `mossim trace --check` smoke per scheduler model
#   5. `mossim report --json` + `mossim pipeview` smoke per scheduler model
#   6. `mossim cpistack` smoke per scheduler model (conservation + JSON)
#      plus the base/2cycle/mop differential, and the perf-history gate
#      in warn-only mode
#   7. RV32 frontend smoke per scheduler model (assemble a real program,
#      run it, trace --check, cpistack), the `mossim rvdiff` differential
#      oracle over the whole suite (with its JSON report), and its
#      base/2cycle/mop CPI stacks
#   8. run-ledger smoke against a throwaway root: save -> history ->
#      diff (must be sim-identical) -> dashboard, then an incremental
#      `experiments perf --ledger` re-sweep asserting at least one
#      cache hit
# Optional extras with --full: jobs-determinism check + perf snapshot.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, workspace) =="
cargo build --release --workspace

echo "== tests (oracle-enabled debug builds) =="
cargo test -q --workspace

echo "== allocation budget (release, untraced) =="
cargo test -q --release -p mos-sim --test alloc_budget

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== mosbench tests (pinned results + smoke runs) =="
cargo test --manifest-path mosbench/Cargo.toml

echo "== trace --check smoke (atomic / pipelined / macro-op) =="
for sched in base 2cycle mop-wor; do
    ./target/release/mossim trace --bench gzip --sched "$sched" \
        --insts 10000 --check --out "/tmp/verify_trace_${sched}.jsonl" \
        > "/tmp/verify_trace_${sched}.txt"
    grep -q "no scheduling-invariant violations" "/tmp/verify_trace_${sched}.txt"
    echo "  $sched: oracle clean"
done

echo "== report/pipeview smoke (atomic / pipelined / macro-op) =="
for sched in base 2cycle mop-wor; do
    ./target/release/mossim report --bench gzip --sched "$sched" \
        --insts 10000 --json "/tmp/verify_report_${sched}.json" \
        > "/tmp/verify_report_${sched}.md"
    grep -q "# mossim run report" "/tmp/verify_report_${sched}.md"
    grep -q '"series":{"interval":10000' "/tmp/verify_report_${sched}.json"
    ./target/release/mossim pipeview --bench gzip --sched "$sched" \
        --insts 10000 --uops 64 --out "/tmp/verify_pipeview_${sched}.kanata"
    head -1 "/tmp/verify_pipeview_${sched}.kanata" | grep -q "Kanata"
    echo "  $sched: report + pipeview ok"
done

echo "== cpistack smoke (every scheduler model) =="
for sched in base 2cycle mop-2src mop-wor sf-squash sf-scoreboard spec-wakeup; do
    ./target/release/mossim cpistack --bench gzip --sched "$sched" \
        --insts 10000 --json "/tmp/verify_cpistack_${sched}.json" \
        > "/tmp/verify_cpistack_${sched}.md"
    grep -q "conservation: ok" "/tmp/verify_cpistack_${sched}.md"
    grep -q '"conservation_ok":true' "/tmp/verify_cpistack_${sched}.json"
    grep -q '"cause":"sched_loop"' "/tmp/verify_cpistack_${sched}.json"
    echo "  $sched: slots conserve"
done

echo "== cpistack differential (base vs 2cycle vs mop) =="
./target/release/mossim cpistack --compare base,twocycle,mop --bench gzip \
    --insts 10000 --json /tmp/verify_cpistack_diff.json \
    > /tmp/verify_cpistack_diff.md
grep -q "| sched_loop |" /tmp/verify_cpistack_diff.md
grep -q "conservation: ok for all 3 stacks" /tmp/verify_cpistack_diff.md
grep -q '"deltas":\[{"sched":"2cycle","vs":"base"' /tmp/verify_cpistack_diff.json
echo "  differential stacks ok"

echo "== rv32 frontend smoke (assemble -> run -> trace --check -> cpistack) =="
for sched in base 2cycle mop-2src mop-wor sf-squash sf-scoreboard spec-wakeup; do
    ./target/release/mossim trace --rv tests/programs/sum_loop.s --sched "$sched" \
        --check --out "/tmp/verify_rv_trace_${sched}.jsonl" \
        > "/tmp/verify_rv_trace_${sched}.txt"
    grep -q "no scheduling-invariant violations" "/tmp/verify_rv_trace_${sched}.txt"
    ./target/release/mossim cpistack --rv tests/programs/sum_loop.s --sched "$sched" \
        > "/tmp/verify_rv_cpistack_${sched}.md"
    grep -q "conservation: ok" "/tmp/verify_rv_cpistack_${sched}.md"
    echo "  $sched: rv trace oracle clean + slots conserve"
done

echo "== rv32 differential oracle (full suite x all schedulers) =="
./target/release/mossim rvdiff --json /tmp/verify_rvdiff.json > /tmp/verify_rvdiff.txt
grep -q "all committed traces and final states match the functional oracle" \
    /tmp/verify_rvdiff.txt
grep -q '"failures":0' /tmp/verify_rvdiff.json
grep -q '"sched_loop_share":' /tmp/verify_rvdiff.json
echo "  rvdiff: ok (JSON report clean)"

echo "== rv32 differential cpistack (base vs 2cycle vs mop) =="
./target/release/mossim cpistack --rv sum_loop --compare base,twocycle,mop \
    > /tmp/verify_rv_cpistack_diff.md
grep -q "| sched_loop |" /tmp/verify_rv_cpistack_diff.md
grep -q "conservation: ok for all 3 stacks" /tmp/verify_rv_cpistack_diff.md
echo "  rv differential stacks ok"

echo "== perf-history gate (warn-only) =="
./scripts/perf_gate.sh --warn-only

echo "== run ledger smoke (save -> history -> diff -> dashboard) =="
LEDGER_DIR=$(mktemp -d /tmp/verify_ledger.XXXXXX)
trap 'rm -rf "$LEDGER_DIR"' EXIT
./target/release/mossim --bench gzip --sched mop-wor --insts 10000 \
    --save --ledger-dir "$LEDGER_DIR" > /dev/null
./target/release/mossim --bench gzip --sched mop-wor --insts 10000 \
    --save --ledger-dir "$LEDGER_DIR" > /dev/null
./target/release/mossim history --ledger-dir "$LEDGER_DIR" > /tmp/verify_ledger_history.md
grep -q "| gzip | mop-wor |" /tmp/verify_ledger_history.md
./target/release/mossim diff latest-1 latest --ledger-dir "$LEDGER_DIR" \
    > /tmp/verify_ledger_diff.md
grep -q "Verdict: sim-identical" /tmp/verify_ledger_diff.md
./target/release/mossim dashboard --ledger-dir "$LEDGER_DIR" \
    --html --out /tmp/verify_ledger_dash.html
grep -q "mopsched regression dashboard" /tmp/verify_ledger_dash.html
echo "  save/history/diff/dashboard ok (two saves of one config are sim-identical)"

echo "== incremental perf re-sweep (ledger cache) =="
MOS_LEDGER_DIR="$LEDGER_DIR" ./target/release/experiments perf --insts 2000 --jobs 2 \
    --ledger --out /tmp/verify_ledger_b1.json --history /tmp/verify_ledger_h.jsonl \
    2> /tmp/verify_ledger_p1.err > /dev/null
MOS_LEDGER_DIR="$LEDGER_DIR" ./target/release/experiments perf --insts 2000 --jobs 2 \
    --ledger --out /tmp/verify_ledger_b2.json --history /tmp/verify_ledger_h.jsonl \
    2> /tmp/verify_ledger_p2.err > /dev/null
grep -q '"cached": true' /tmp/verify_ledger_b2.json
grep -q "skipping history append" /tmp/verify_ledger_p2.err
echo "  re-sweep served from the ledger (cached: true)"

if [[ "${1:-}" == "--full" ]]; then
    bin=./target/release/experiments
    echo "== determinism: fig14 --jobs 1 vs --jobs 8 =="
    "$bin" fig14 --insts 20000 --jobs 1 > /tmp/verify_j1.txt
    "$bin" fig14 --insts 20000 --jobs 8 > /tmp/verify_j8.txt
    cmp /tmp/verify_j1.txt /tmp/verify_j8.txt
    echo "byte-identical"

    echo "== perf snapshot -> BENCH_sim.json =="
    "$bin" perf --insts 20000
fi

echo "verify: OK"
