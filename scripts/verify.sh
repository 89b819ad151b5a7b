#!/usr/bin/env bash
# Tier-1 verification: everything CI and reviewers rely on.
#   1. release build of the whole workspace
#   2. full test suite (debug builds auto-attach the panicking
#      scheduling-invariant oracle, so this is also the timing suite),
#      plus the release-only heap-allocation budget of an untraced run
#      (debug builds compile that test to nothing: their oracle allocates)
#      and the release-only commit-only subscription check (a run whose
#      only observer is a commit log constructs no other event; debug
#      builds never reach it, their oracle reads every kind), the
#      release-only precise-detection check (every SPEC model finishes
#      30k commits under precise cycle detection at two walk seeds, both
#      queue sizes and both wakeup styles; the debug suite runs crafty
#      alone, the full matrix is too slow there), and the
#      release observer-timing check (every observer leaves simulated
#      results unchanged; debug runs already carry the oracle and slot
#      accounting, so only release compares against a truly plain run),
#      and the trace digests again in release (release builds compile out
#      the debug ROB and queue invariants, so only a release digest shows
#      that the release lookups are exact)
#   3. `cargo fmt --all --check` (the workspace is rustfmt-clean; the
#      mosbench package is its own workspace and is not checked), clippy
#      and rustdoc, warnings denied (a stale intra-doc link fails
#      the build), and the mosbench package's tests (its
#      pinned per-job results and smoke runs; the package is outside the
#      workspace, so a queue API change or a moved simulated result would
#      otherwise break only the benchmark), after which
#      `mosbench/Cargo.lock` must still equal the committed file: that
#      test run rewrites the lock silently whenever a crate it builds
#      changes its dependencies, and only a change to the benchmark may
#      change the lock (the empty `crates/asm` stub exists only to keep
#      it pinned)
#   4. `mossim trace --check` smoke per scheduler model
#   5. `mossim report --json` + `mossim pipeview` smoke per scheduler model,
#      the scheduler aliases in the plain and report modes, a queue
#      smaller than a fetch group refused with an `error:` line, the
#      removed `--kernel` flag refused with an `unknown flag` line, and
#      4- and 5-entry `mop-wor` queues run to completion
#   6. `mossim cpistack` smoke per scheduler model (conservation + JSON)
#      plus the base/2cycle/mop differential
#   6b. memory-bound mcf under every scheduler model: `trace --check` and
#      `cpistack`, so the release oracle and the conservation law watch
#      runs where most cycles are skipped as idle
#   7. RV32 frontend smoke per scheduler model (assemble a real program,
#      run it, trace --check, cpistack), the `mossim rvdiff` differential
#      oracle over the whole suite (with its JSON report) and over each
#      assembly kernel in tests/programs/kernels/, a program without
#      `ebreak` that must drain (exit 0) while rvdiff names its unclean
#      halt, a `_start:` after the last instruction refused with an
#      `error:` line (exit 1, not a panic) by `--rv` and rvdiff, and the
#      base/2cycle/mop CPI stacks
#   8. run-ledger smoke against a throwaway root: save -> history ->
#      diff (the second save must note that it replaced the first's
#      record; the diff must be sim-identical, with a note that both saves
#      share one key), and an index line with a non-hex key refused by diff with an
#      `error:` line (exit 1, not a panic)
#   9. `experiments all` at a small budget, byte-identical at --jobs 1 and
#      --jobs 4 and to the pinned stdout digest in
#      tests/golden/experiments_all_2000.sha256 (it covers the studies the
#      trace digests do not: precise detection, scopes 4/16, a 100-cycle
#      detection delay); a zero budget refused; `experiments perf` smoke at a
#      tiny budget, checking the median/min/max fields of its three
#      repetitions (writes to /tmp, never over the committed BENCH_sim.json)
# Optional extras with --full: fig14 jobs-determinism check at 20k + a
# 20k-budget perf snapshot (also written to /tmp).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, workspace) =="
cargo build --release --workspace

echo "== tests (oracle-enabled debug builds) =="
cargo test -q --workspace

echo "== allocation budget (release, untraced) =="
cargo test -q --release -p mos-sim --test alloc_budget

echo "== commit-only event subscription (release) =="
cargo test -q --release -p mos-rv --test commit_only

echo "== precise cycle detection never deadlocks (release, every SPEC model) =="
cargo test -q --release -p mos-sim --test precise_detection

echo "== observers keep simulated timing (release, truly plain baseline) =="
cargo test -q --release --test observers_keep_timing

echo "== trace digests (release, no debug invariants) =="
cargo test -q --release --test trace_digest

echo "== rustfmt (workspace is formatted) =="
cargo fmt --all --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustdoc (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== mosbench tests (pinned results + smoke runs) =="
cargo test --manifest-path mosbench/Cargo.toml
if ! git diff --exit-code -- mosbench/Cargo.lock; then
    echo "  mosbench/Cargo.lock differs from the committed file" >&2
    exit 1
fi
echo "  mosbench/Cargo.lock unchanged"

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

echo "== scheduler aliases (plain run, report) =="
./target/release/mossim --sched twocycle --insts 2000 > /tmp/verify_alias_plain.txt
grep -q "scheduler 2cycle" /tmp/verify_alias_plain.txt
./target/release/mossim report --sched mop --insts 2000 \
    --json /tmp/verify_alias_report.json > /dev/null
grep -q '"sched":"mop-wor"' /tmp/verify_alias_report.json
echo "  twocycle -> 2cycle, mop -> mop-wor"

echo "== queue smaller than a fetch group is refused =="
status=0
./target/release/mossim --queue 2 --insts 2000 > /dev/null 2> /tmp/verify_queue2.txt || status=$?
[[ "$status" == 1 ]]
grep -q "^error: --queue 2" /tmp/verify_queue2.txt
echo "  --queue 2: exit 1 with an error line"

echo "== the removed --kernel flag is refused =="
status=0
./target/release/mossim --kernel sum_loop > /dev/null 2> /tmp/verify_kernel.txt || status=$?
[[ "$status" == 1 ]]
grep -q "^error: unknown flag \`--kernel\`" /tmp/verify_kernel.txt
echo "  --kernel: exit 1 with an unknown-flag error line"

echo "== tiny MOP queues run to completion =="
for queue in 4 5; do
    ./target/release/mossim --sched mop-wor --queue "$queue" --insts 20000 \
        > "/tmp/verify_queue${queue}.txt"
    grep -q "committed        20000" "/tmp/verify_queue${queue}.txt"
    echo "  mop-wor --queue $queue: exit 0, budget committed"
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

echo "== idle-cycle skipping under the oracle (mcf, every scheduler model) =="
for sched in base 2cycle mop-2src mop-wor sf-squash sf-scoreboard spec-wakeup; do
    ./target/release/mossim trace --bench mcf --sched "$sched" \
        --insts 10000 --check --out "/tmp/verify_mcf_trace_${sched}.jsonl" \
        > "/tmp/verify_mcf_trace_${sched}.txt"
    grep -q "no scheduling-invariant violations" "/tmp/verify_mcf_trace_${sched}.txt"
    ./target/release/mossim cpistack --bench mcf --sched "$sched" \
        --insts 10000 > "/tmp/verify_mcf_cpistack_${sched}.md"
    grep -q "conservation: ok" "/tmp/verify_mcf_cpistack_${sched}.md"
    echo "  $sched: oracle clean + slots conserve"
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

echo "== rv32 assembly kernels (differential oracle, all schedulers) =="
for prog in tests/programs/kernels/*.s; do
    name=$(basename "$prog" .s)
    ./target/release/mossim rvdiff --rv "$prog" > "/tmp/verify_rvdiff_${name}.txt"
    grep -q "1 program(s) x 7 scheduler(s), all committed traces and final states match" \
        "/tmp/verify_rvdiff_${name}.txt"
    echo "  $name: ok"
done

echo "== a program without ebreak drains; rvdiff names the unclean halt =="
printf '_start:\n    li a0, 1\n' > /tmp/verify_no_ebreak.s
./target/release/mossim --rv /tmp/verify_no_ebreak.s > /tmp/verify_no_ebreak.txt
grep -q "committed            1" /tmp/verify_no_ebreak.txt
status=0
./target/release/mossim rvdiff --rv /tmp/verify_no_ebreak.s \
    > /tmp/verify_no_ebreak_diff.txt 2>&1 || status=$?
[[ "$status" == 1 ]]
grep -q "did not halt cleanly after 1 insts (faulted: true)" /tmp/verify_no_ebreak_diff.txt
echo "  --rv: exit 0; rvdiff: exit 1 with the faulted halt"

echo "== an entry label after the last instruction is refused, not a panic =="
printf 'ebreak\n_start:\n' > /tmp/verify_end_entry.s
for mode in run rvdiff; do
    args=(--rv /tmp/verify_end_entry.s)
    [[ "$mode" == rvdiff ]] && args=(rvdiff "${args[@]}")
    status=0
    ./target/release/mossim "${args[@]}" > /dev/null 2> "/tmp/verify_end_entry_${mode}.txt" || status=$?
    [[ "$status" == 1 ]]
    grep -q "^error: .*line 2: entry label \`_start\` has no instruction after it" \
        "/tmp/verify_end_entry_${mode}.txt"
    echo "  $mode: exit 1 with an error line"
done

echo "== rv32 differential cpistack (base vs 2cycle vs mop) =="
./target/release/mossim cpistack --rv sum_loop --compare base,twocycle,mop \
    > /tmp/verify_rv_cpistack_diff.md
grep -q "| sched_loop |" /tmp/verify_rv_cpistack_diff.md
grep -q "conservation: ok for all 3 stacks" /tmp/verify_rv_cpistack_diff.md
echo "  rv differential stacks ok"

echo "== run ledger smoke (save -> history -> diff) =="
LEDGER_DIR=$(mktemp -d /tmp/verify_ledger.XXXXXX)
trap 'rm -rf "$LEDGER_DIR"' EXIT
./target/release/mossim --bench gzip --sched mop-wor --insts 10000 \
    --save --ledger-dir "$LEDGER_DIR" > /dev/null
./target/release/mossim --bench gzip --sched mop-wor --insts 10000 \
    --save --ledger-dir "$LEDGER_DIR" > /dev/null 2> /tmp/verify_ledger_save.err
grep -q "^note: replaced record" /tmp/verify_ledger_save.err
./target/release/mossim history --ledger-dir "$LEDGER_DIR" > /tmp/verify_ledger_history.md
grep -q "| gzip | mop-wor |" /tmp/verify_ledger_history.md
./target/release/mossim diff latest-1 latest --ledger-dir "$LEDGER_DIR" \
    > /tmp/verify_ledger_diff.md 2> /tmp/verify_ledger_diff.err
grep -q "Verdict: sim-identical" /tmp/verify_ledger_diff.md
grep -q "^note: .* both name record" /tmp/verify_ledger_diff.err
echo "  save/history/diff ok (two saves of one config share a key, and save and diff say so)"

echo "== a non-hex key in the ledger index is an error, not a panic =="
BAD_LEDGER_DIR=$(mktemp -d /tmp/verify_bad_ledger.XXXXXX)
trap 'rm -rf "$LEDGER_DIR" "$BAD_LEDGER_DIR"' EXIT
printf '%s\n' '{"key":"€abcdef","kind":"run","bench":"gzip","sched":"base","insts":1000,"git_rev":"abc1234","unix_time":1786000000}' \
    > "$BAD_LEDGER_DIR/index.jsonl"
status=0
./target/release/mossim diff latest latest --ledger-dir "$BAD_LEDGER_DIR" \
    > /dev/null 2> /tmp/verify_bad_ledger.txt || status=$?
[[ "$status" == 1 ]]
grep -q "^error: " /tmp/verify_bad_ledger.txt
echo "  non-hex key: exit 1 with an error line"

echo "== experiments all: --jobs 1 vs --jobs 4 vs the pinned digest =="
./target/release/experiments all --insts 2000 --jobs 1 > /tmp/verify_all_j1.txt
./target/release/experiments all --insts 2000 --jobs 4 > /tmp/verify_all_j4.txt
cmp /tmp/verify_all_j1.txt /tmp/verify_all_j4.txt
echo "  byte-identical"
want=$(cut -d' ' -f1 tests/golden/experiments_all_2000.sha256)
got=$(sha256sum /tmp/verify_all_j1.txt | cut -d' ' -f1)
if [[ "$got" != "$want" ]]; then
    echo "  experiments all --insts 2000 stdout digest $got, pinned $want" >&2
    exit 1
fi
echo "  matches the pinned digest (tests/golden/experiments_all_2000.sha256)"

echo "== experiments: a zero budget is refused =="
if ./target/release/experiments fig14 --insts 0 > /dev/null 2>&1; then
    echo "  fig14 --insts 0 succeeded" >&2
    exit 1
fi
echo "  fig14 --insts 0: usage error"

echo "== experiments perf smoke (single-thread headline sweep, repeated) =="
./target/release/experiments perf --insts 2000 --out /tmp/verify_perf.json 2> /dev/null
for field in '"repeat": 3' '"commits_per_sec"' '"total_commits_per_sec"' \
    '"wall_seconds_min"' '"wall_seconds_max"' '"cycles_per_sec_min"' '"cycles_per_sec_max"' \
    '"total_wall_seconds_min"' '"total_wall_seconds_max"' \
    '"total_cycles_per_sec_min"' '"total_cycles_per_sec_max"'; do
    if ! grep -q "$field" /tmp/verify_perf.json; then
        echo "  perf: no $field in /tmp/verify_perf.json" >&2
        exit 1
    fi
done
echo "  perf: BENCH_sim-format file with median, min and max over 3 repetitions"

if [[ "${1:-}" == "--full" ]]; then
    bin=./target/release/experiments
    echo "== determinism: fig14 --jobs 1 vs --jobs 8 =="
    "$bin" fig14 --insts 20000 --jobs 1 > /tmp/verify_j1.txt
    "$bin" fig14 --insts 20000 --jobs 8 > /tmp/verify_j8.txt
    cmp /tmp/verify_j1.txt /tmp/verify_j8.txt
    echo "byte-identical"

    echo "== perf snapshot (20k budget) =="
    "$bin" perf --insts 20000 --out /tmp/verify_perf_20k.json
fi

echo "verify: OK"
