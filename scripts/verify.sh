#!/usr/bin/env bash
# Pre-PR gate for the hermetic-build policy.
#
# Runs the tier-1 suite fully offline and then fails if any dependency
# in the graph resolves from outside this workspace. The workspace must
# build, test, and bench with the registry unreachable; a dependency
# that slips into a Cargo.toml shows up here before it shows up as a
# broken offline build.
#
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Inside a git work tree, the last stage checks that the gate left the
# tracked files as it found them: a stage that rewrites one fails the
# gate instead of slipping its bytes into the next commit.
tree_before=""
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  tree_before=$(git diff --binary | sha256sum)
fi

echo "== tier-1: offline release build =="
cargo build --release --workspace --offline

echo "== tier-1: offline tests =="
cargo test -q --workspace --offline

echo "== hermetic check: dependency sources =="
# Every package in the resolved graph must come from the workspace
# (cargo metadata reports `"source": null` for path dependencies).
# Any non-null source means a registry/git dependency crept in.
foreign=$(cargo metadata --format-version 1 --offline \
  | tr ',' '\n' \
  | grep -o '"source":"[^"]*"' \
  | sort -u || true)
if [ -n "$foreign" ]; then
  echo "FAIL: non-workspace dependencies in the graph:" >&2
  echo "$foreign" >&2
  exit 1
fi
if grep -q 'source = "registry' Cargo.lock; then
  echo "FAIL: Cargo.lock pins registry packages:" >&2
  grep -B2 'source = "registry' Cargo.lock >&2
  exit 1
fi
echo "OK: all dependencies are workspace-local"

echo "== rustdoc: the API docs build without a warning =="
# Deleting an item leaves every intra-doc link to it dangling, and a
# link to a private item renders as dead text in the public docs;
# rustdoc reports both as warnings, which this stage makes fatal.
# It writes only under target/doc.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps --offline
echo "OK: rustdoc is warning-free"

echo "== detlint: determinism & hermeticity contract =="
# Static gate: the self-hosted linter (crates/detlint) analyzes every
# source file and manifest in the workspace and rejects the constructs
# that break the reproducibility contract at their source — unordered
# maps, wall-clock reads, ad-hoc threading, entropy-seeded RNGs,
# panicking calls in library code, NaN-unsafe float ordering,
# non-workspace dependencies, crash-unsafe persistence (token rules
# D1-D8), RNG streams shared across parallel tasks and order-unstable
# float reductions (dataflow rules D9/D10 over the token-tree parse),
# and panics reachable from campaign entry points (call-graph rule
# D11). Exceptions live in the source as scoped pragmas with mandatory
# reasons (P0), and a pragma whose rule no longer fires is flagged as
# dead (P1, warn-tier; see DESIGN.md §13). Deny-tier findings exit 1
# and fail tier-1.
cargo run -q --release --offline -p detlint --bin detlint -- --root .
echo "OK: workspace lints deny-clean"

echo "== detlint: every suppression pragma carries a reason =="
# Belt and braces on top of rule P0: no pragma in shipped source may
# omit its \`-- reason\` clause. The linter's fixture tree seeds
# reason-less pragmas on purpose and is excluded.
marker="detlint:allow("
pragma_bad=$(grep -rn "$marker" --include='*.rs' src crates \
  | grep -v 'crates/detlint/tests/fixtures/' \
  | grep -v ' -- ' || true)
if [ -n "$pragma_bad" ]; then
  echo "FAIL: suppression pragmas without a reason:" >&2
  echo "$pragma_bad" >&2
  exit 1
fi
echo "OK: all pragmas are reasoned"

echo "== detlint: JSON report is byte-stable across runs =="
# CI diffs the JSON-lines report across runs; the ordering contract
# (sorted by file, line, rule) must hold bit-for-bit.
lint_a=$(mktemp)
lint_b=$(mktemp)
cargo run -q --release --offline -p detlint --bin detlint -- --root . --json > "$lint_a"
cargo run -q --release --offline -p detlint --bin detlint -- --root . --json > "$lint_b"
if ! diff -u "$lint_a" "$lint_b" > /dev/null; then
  echo "FAIL: detlint --json differs between two runs:" >&2
  diff -u "$lint_a" "$lint_b" >&2 | head -20
  exit 1
fi
rm -f "$lint_a" "$lint_b"
echo "OK: detlint --json is byte-identical across runs"

echo "== detlint: pipeline benchmark =="
# Times the analysis over this workspace and re-checks byte-identity
# and deny-cleanliness from inside the bench. The bench rewrites the
# tracked BENCH_detlint.json with this host's wall times; the gate
# prints them and puts the committed file back.
detlint_bench=$(mktemp)
cp BENCH_detlint.json "$detlint_bench"
cargo bench -q --offline -p bench --bench supp_detlint
cp "$detlint_bench" BENCH_detlint.json
rm -f "$detlint_bench"

echo "== paper benches: every figure and ablation CHECK passes, on both engines =="
# The fig* and ablation targets rerun the paper's figures and print one
# `CHECK PASS/FAIL` line per reproduced claim; a FAIL panics the target
# (all 20 take ~10 s in release on 2 vCPUs). Each target runs a second
# time on the reference loops (FABRIC_SLOW_PATH=1, ~14 s more) and its
# stdout must match the event engine's byte for byte: this puts the
# traced (fig15, fig18) and DAG (ablation) runners under the
# two-engine gate. Left out:
#   - table3_campaign, which fails on HEAD: its m4.16xlarge row shows
#     no variability (ROADMAP item 1 has the cause and the fix);
#   - the timing targets (supp_*, micro_*): they measure wall time, and
#     supp_* rewrite BENCH_*.json.
cargo bench -q --offline -p bench --no-run
for target in crates/bench/benches/fig*.rs crates/bench/benches/ablation_*.rs; do
  name=$(basename "$target" .rs)
  if ! paper_out=$(cargo bench -q --offline -p bench --bench "$name" 2>&1) \
    || printf '%s\n' "$paper_out" | grep -q "CHECK FAIL"; then
    echo "FAIL: paper bench $name:" >&2
    printf '%s\n' "$paper_out" | grep -E "CHECK FAIL|panicked|error" >&2 || true
    exit 1
  fi
  if ! paper_slow=$(FABRIC_SLOW_PATH=1 cargo bench -q --offline -p bench --bench "$name" 2>&1) \
    || [ "$paper_out" != "$paper_slow" ]; then
    echo "FAIL: paper bench $name differs between the event and reference engines:" >&2
    diff -u <(printf '%s\n' "$paper_out") <(printf '%s\n' "$paper_slow") >&2 | head -20
    exit 1
  fi
done
echo "OK: every figure and ablation bench passes its CHECKs, byte-identical on both engines"

echo "== deterministic replay: faulty campaign =="
# A campaign with every fault class active must be bit-for-bit
# reproducible from its seed: run the example twice, diff the output.
replay_a=$(mktemp)
replay_b=$(mktemp)
trap 'rm -f "$replay_a" "$replay_b"' EXIT
cargo run -q --release --offline --example faulty_campaign > "$replay_a"
cargo run -q --release --offline --example faulty_campaign > "$replay_b"
if ! diff -u "$replay_a" "$replay_b" > /dev/null; then
  echo "FAIL: faulty campaign is not deterministic across replays:" >&2
  diff -u "$replay_a" "$replay_b" >&2 | head -40
  exit 1
fi
if ! grep -q "cured: false" "$replay_a"; then
  echo "FAIL: straggler experiment no longer shows the negative result" >&2
  exit 1
fi
echo "OK: faulty campaign replays bit-identically"

echo "== parallel invariance: REPRO_JOBS=1 vs REPRO_JOBS=4 =="
# The exec runtime's contract: worker count never changes results.
# Run the full fault-injection example serially and on 4 workers and
# require bit-for-bit identical output.
par_a=$(mktemp)
par_b=$(mktemp)
trap 'rm -f "$replay_a" "$replay_b" "$par_a" "$par_b"' EXIT
REPRO_JOBS=1 cargo run -q --release --offline --example faulty_campaign > "$par_a"
REPRO_JOBS=4 cargo run -q --release --offline --example faulty_campaign > "$par_b"
if ! diff -u "$par_a" "$par_b" > /dev/null; then
  echo "FAIL: output differs between 1 and 4 workers:" >&2
  diff -u "$par_a" "$par_b" >&2 | head -40
  exit 1
fi
if ! diff -u "$replay_a" "$par_a" > /dev/null; then
  echo "FAIL: parallel output differs from the serial replay gate's:" >&2
  diff -u "$replay_a" "$par_a" >&2 | head -40
  exit 1
fi
echo "OK: campaign output is invariant to the worker count"

echo "== fabric engines: faulty campaign on event and reference, bit-identical =="
# The event engine (the default) and the reference loops (the test
# oracle, via FABRIC_SLOW_PATH=1) must never disagree. Gates:
#   1. The full faulty campaign runs on both engines; the outputs
#      (golden hashes included) must match byte for byte. The
#      REPRO_JOBS gates above already ran the event engine on 1 and 4
#      workers, so its jobs-invariance is covered too.
#   2. The property suites drive randomized fabrics through single
#      steps (each a one-step event window) and through batched event
#      windows against a reference twin and compare every observable
#      with f64::to_bits — the event suite at every event boundary,
#      with adversarial zero-length/simultaneous/fault-edge cases,
#      empty flows, and src-major shuffles priced per source run
#      (water-filling's one-check exit, uniform-run window passes,
#      overlapping shuffles).
#   3. The counting-allocator probe asserts steady-state stepping and
#      event jumps perform zero heap allocations.
# (detlint deny-cleanliness of the event engine is enforced by the
# detlint stage above, which lints the whole workspace.)
slow_a=$(mktemp)
trap 'rm -f "$replay_a" "$replay_b" "$par_a" "$par_b" "$slow_a"' EXIT
FABRIC_SLOW_PATH=1 cargo run -q --release --offline --example faulty_campaign > "$slow_a"
if ! diff -u "$replay_a" "$slow_a" > /dev/null; then
  echo "FAIL: FABRIC_SLOW_PATH=1 output differs from the event engine's:" >&2
  diff -u "$replay_a" "$slow_a" >&2 | head -40
  exit 1
fi
cargo test -q --release --offline -p netsim --test prop_fabric_fast
cargo test -q --release --offline -p netsim --test prop_event_driven
cargo test -q --release --offline -p netsim --test alloc_free
echo "OK: event and reference engines are bit-identical; jumps are allocation-free"

echo "== campaign kill/resume: crash at a pinned shard, resume, byte-identical report =="
# The crash-safety contract (DESIGN.md §11): a fleet campaign killed
# mid-run and resumed from its journal must produce a final report
# byte-identical to an uninterrupted run. Gates:
#   0. The plain (journal-less) fleet report is byte-identical at
#      REPRO_JOBS=1, 3 and 4, and byte-identical to the journaled
#      report: both drivers run one supervised settle loop and one
#      renderer. (Three workers do not divide the 16-shard window, so
#      they interleave claims and settling differently from 1 and 4.)
#   1. `--kill-after 3` makes the process abort() at the first durable
#      checkpoint covering 3 pairs — as sudden as a SIGKILL: no
#      unwinding, no flushing — and the run must NOT exit cleanly.
#   2. The killed journal must be a byte-prefix of the uninterrupted
#      run's journal (the WAL is append-only and deterministic), and
#      two kills at the same pinned count must leave identical files.
#   3. Resuming (with 2 shards re-verified bit-for-bit against the
#      log) must reproduce the uninterrupted stdout report and final
#      journal byte-for-byte — on 1, 3 and 4 workers (the resumed run
#      itself must be jobs-invariant).
#   4. Resuming under a different seed must fail loudly with the typed
#      config-fingerprint mismatch, not blend incompatible results.
wal=$(mktemp -d)
trap 'rm -f "$replay_a" "$replay_b" "$par_a" "$par_b" "$slow_a"; rm -rf "$wal"' EXIT
fleet="cargo run -q --release --offline --bin cloud-repro -- fleet \
  --cloud hpc-8 --pairs 6 --hours 2 --seed 7"
$fleet --journal "$wal/full.wal"  > "$wal/full.out"  2>/dev/null
REPRO_JOBS=1 $fleet > "$wal/plain1.out" 2>/dev/null
REPRO_JOBS=3 $fleet > "$wal/plain3.out" 2>/dev/null
REPRO_JOBS=4 $fleet > "$wal/plain4.out" 2>/dev/null
for j in 3 4; do
  if ! diff -u "$wal/plain1.out" "$wal/plain$j.out" > /dev/null; then
    echo "FAIL: plain fleet report differs between 1 and $j workers:" >&2
    diff -u "$wal/plain1.out" "$wal/plain$j.out" >&2 | head -20
    exit 1
  fi
done
if ! diff -u "$wal/full.out" "$wal/plain1.out" > /dev/null; then
  echo "FAIL: plain fleet report differs from the journaled one:" >&2
  diff -u "$wal/full.out" "$wal/plain1.out" >&2 | head -20
  exit 1
fi
for k in 1 2; do
  # The inner bash keeps the "Aborted (core dumped)" job notice out of
  # the gate log; the run must die (exit != 0).
  if bash -c "$fleet --journal '$wal/kill$k.wal' --kill-after 3" > /dev/null 2>&1; then
    echo "FAIL: --kill-after 3 run exited cleanly instead of dying" >&2
    exit 1
  fi
done
if ! cmp -s "$wal/kill1.wal" "$wal/kill2.wal"; then
  echo "FAIL: two kills at the same shard count left different journals" >&2
  exit 1
fi
if [ "$(wc -c < "$wal/kill1.wal")" -ge "$(wc -c < "$wal/full.wal")" ]; then
  echo "FAIL: killed journal is not smaller than the complete one" >&2
  exit 1
fi
if ! head -c "$(wc -c < "$wal/kill1.wal")" "$wal/full.wal" | cmp -s - "$wal/kill1.wal"; then
  echo "FAIL: killed journal is not a byte-prefix of the uninterrupted one" >&2
  exit 1
fi
cp "$wal/kill1.wal" "$wal/kill3.wal"
REPRO_JOBS=1 $fleet --journal "$wal/kill1.wal" --resume --verify-resume 2 \
  > "$wal/resume1.out" 2>/dev/null
REPRO_JOBS=3 $fleet --journal "$wal/kill3.wal" --resume --verify-resume 2 \
  > "$wal/resume3.out" 2>/dev/null
REPRO_JOBS=4 $fleet --journal "$wal/kill2.wal" --resume --verify-resume 2 \
  > "$wal/resume4.out" 2>/dev/null
if ! diff -u "$wal/full.out" "$wal/resume1.out" > /dev/null; then
  echo "FAIL: resumed report differs from the uninterrupted run's:" >&2
  diff -u "$wal/full.out" "$wal/resume1.out" >&2 | head -40
  exit 1
fi
for j in 3 4; do
  if ! diff -u "$wal/resume1.out" "$wal/resume$j.out" > /dev/null; then
    echo "FAIL: resumed report differs between 1 and $j workers:" >&2
    diff -u "$wal/resume1.out" "$wal/resume$j.out" >&2 | head -40
    exit 1
  fi
done
for k in 1 2 3; do
  if ! cmp -s "$wal/full.wal" "$wal/kill$k.wal"; then
    echo "FAIL: healed journal kill$k.wal differs from the uninterrupted one" >&2
    exit 1
  fi
done
if fleet_mismatch_out=$( { cargo run -q --release --offline --bin cloud-repro -- fleet \
  --cloud hpc-8 --pairs 6 --hours 2 --seed 8 \
  --journal "$wal/full.wal" --resume; } 2>&1 ); then
  echo "FAIL: resume under a different seed exited cleanly" >&2
  exit 1
fi
if ! printf '%s' "$fleet_mismatch_out" | grep -q "different campaign config"; then
  echo "FAIL: config mismatch did not surface the typed error:" >&2
  printf '%s\n' "$fleet_mismatch_out" >&2
  exit 1
fi
cargo test -q --release --offline -p journal --test prop_journal
cargo test -q --release --offline -p measure --test journaled_fleet
echo "OK: killed campaign resumes to a byte-identical report; bad resumes fail loudly"

echo "== topology: flat campaign byte-identical to the topology-less path =="
# The flat-equivalence contract (DESIGN.md §12): wiring a fabric with
# the flat (linkless) topology must be invisible. `run --topology flat`
# and a plain `run` must print byte-identical reports — on both
# stepping engines and at 1 and 4 workers. A fat-tree run on the same
# seed must engage the per-link water-filling allocator (its report
# footer shows a live link cache instead of the flat marker), and the
# randomized property suite pits routed water-filling (event engine vs
# reference), ECMP replay and unranking (against a BFS + DFS path
# enumeration oracle) and flat wiring against their reference
# contracts. `FABRIC_SLOW_PATH=1` selects the reference engine, `0`
# the event engine.
topo_dir=$(mktemp -d)
trap 'rm -f "$replay_a" "$replay_b" "$par_a" "$par_b" "$slow_a"; rm -rf "$wal" "$topo_dir"' EXIT
topo_run="cargo run -q --release --offline --bin cloud-repro -- run \
  --cloud gce-8 --workload q65 --reps 5 --nodes 16 --seed 11"
for slow in 0 1; do
  FABRIC_SLOW_PATH=$slow $topo_run > "$topo_dir/plain_slow$slow.out"
  FABRIC_SLOW_PATH=$slow $topo_run --topology flat > "$topo_dir/flat_slow$slow.out"
  if ! diff -u "$topo_dir/plain_slow$slow.out" "$topo_dir/flat_slow$slow.out" > /dev/null; then
    echo "FAIL: --topology flat differs from the topology-less run (FABRIC_SLOW_PATH=$slow):" >&2
    diff -u "$topo_dir/plain_slow$slow.out" "$topo_dir/flat_slow$slow.out" >&2 | head -20
    exit 1
  fi
done
REPRO_JOBS=1 $topo_run --topology flat > "$topo_dir/flat_j1.out"
REPRO_JOBS=4 $topo_run --topology flat > "$topo_dir/flat_j4.out"
REPRO_JOBS=4 $topo_run > "$topo_dir/plain_j4.out"
if ! diff -u "$topo_dir/flat_j1.out" "$topo_dir/flat_j4.out" > /dev/null; then
  echo "FAIL: flat-topology run differs between 1 and 4 workers:" >&2
  diff -u "$topo_dir/flat_j1.out" "$topo_dir/flat_j4.out" >&2 | head -20
  exit 1
fi
if ! diff -u "$topo_dir/flat_j4.out" "$topo_dir/plain_j4.out" > /dev/null; then
  echo "FAIL: flat and topology-less runs differ on 4 workers:" >&2
  diff -u "$topo_dir/flat_j4.out" "$topo_dir/plain_j4.out" >&2 | head -20
  exit 1
fi
$topo_run --topology fattree4 > "$topo_dir/tree.out"
if ! grep -q "link cache [0-9]" "$topo_dir/tree.out"; then
  echo "FAIL: fat-tree run did not engage the per-link allocator:" >&2
  tail -1 "$topo_dir/tree.out" >&2
  exit 1
fi
if diff -u "$topo_dir/tree.out" "$topo_dir/flat_slow0.out" > /dev/null; then
  echo "FAIL: fat-tree run is identical to the flat one (topology inert)" >&2
  exit 1
fi
cargo test -q --release --offline -p topo --test prop_topo
echo "OK: flat topology is byte-invisible; fat-tree engages the link allocator"

echo "== flow churn: 64-node terasort shuffles, event vs reference, byte-identical =="
# A 64-node terasort shuffle starts and retires 4032 routed flows, many
# of them in the same event window; the topology gate above only runs
# q65 on 16 flat nodes. Gates:
#   1. Each engine's report is byte-identical at REPRO_JOBS=1 and 4.
#   2. The two engines' reports are byte-identical apart from the
#      header's `[reference fabric path]` marker and the `fabric:`
#      footer, whose cache counters differ between engines by design.
#   3. `FABRIC_SLOW_PATH` is the one engine switch: the
#      `FABRIC_SLOW_PATH=1` report carries the `[reference fabric
#      path]` header marker and the `FABRIC_SLOW_PATH=0` report does
#      not, and `run` refuses the retired `--fabric-path` flag instead
#      of silently running the event engine (as `fleet` refuses the
#      retired `--step-budget` flag).
churn_dir=$(mktemp -d)
trap 'rm -f "$replay_a" "$replay_b" "$par_a" "$par_b" "$slow_a"; rm -rf "$wal" "$topo_dir" "$churn_dir"' EXIT
churn="cargo run -q --release --offline --bin cloud-repro -- run \
  --cloud ec2-c5.xlarge --workload terasort --nodes 64 --topology fattree8 \
  --reps 4 --seed 11"
for slow in 0 1; do
  for jobs in 1 4; do
    REPRO_JOBS=$jobs FABRIC_SLOW_PATH=$slow $churn > "$churn_dir/slow${slow}_j$jobs.out"
  done
  if ! diff -u "$churn_dir/slow${slow}_j1.out" "$churn_dir/slow${slow}_j4.out" > /dev/null; then
    echo "FAIL: terasort churn run differs between 1 and 4 workers (FABRIC_SLOW_PATH=$slow):" >&2
    diff -u "$churn_dir/slow${slow}_j1.out" "$churn_dir/slow${slow}_j4.out" >&2 | head -20
    exit 1
  fi
  sed -e 's/ \[reference fabric path\]//' -e '/^  fabric: /d' \
    "$churn_dir/slow${slow}_j1.out" > "$churn_dir/slow$slow.cmp"
done
if ! grep -q "^TS runtime" "$churn_dir/slow0.cmp"; then
  echo "FAIL: terasort churn run printed no runtime summary:" >&2
  cat "$churn_dir/slow0_j1.out" >&2
  exit 1
fi
if ! diff -u "$churn_dir/slow0.cmp" "$churn_dir/slow1.cmp" > /dev/null; then
  echo "FAIL: terasort churn run differs between the event and reference engines:" >&2
  diff -u "$churn_dir/slow0.cmp" "$churn_dir/slow1.cmp" >&2 | head -20
  exit 1
fi
if ! head -n 1 "$churn_dir/slow1_j1.out" | grep -qF "[reference fabric path]" \
  || head -n 1 "$churn_dir/slow0_j1.out" | grep -qF "[reference fabric path]"; then
  echo "FAIL: the [reference fabric path] header marker does not follow FABRIC_SLOW_PATH:" >&2
  head -n 1 "$churn_dir/slow0_j1.out" "$churn_dir/slow1_j1.out" >&2
  exit 1
fi
if retired_out=$($churn --fabric-path reference 2>&1) \
  || ! printf '%s\n' "$retired_out" | grep -q "unknown flag --fabric-path for run"; then
  echo "FAIL: run did not refuse the retired --fabric-path flag:" >&2
  printf '%s\n' "$retired_out" | head -5 >&2
  exit 1
fi
if retired_out=$(cargo run -q --release --offline --bin cloud-repro -- fleet \
  --cloud hpc-8 --pairs 2 --hours 0.1 --step-budget 10 2>&1) \
  || ! printf '%s\n' "$retired_out" | grep -q "unknown flag --step-budget for fleet"; then
  echo "FAIL: fleet did not refuse the retired --step-budget flag:" >&2
  printf '%s\n' "$retired_out" | head -5 >&2
  exit 1
fi
echo "OK: 4032-flow shuffles retire identically on both engines and any worker count"

echo "== plan: the pilot is byte-identical across worker counts and engines =="
# `plan` runs its pilot repetitions through the placement fleet, so they
# follow `--jobs` and `FABRIC_SLOW_PATH`. Neither may move a byte of the
# recommendation it prints.
plan_dir=$(mktemp -d)
trap 'rm -f "$replay_a" "$replay_b" "$par_a" "$par_b" "$slow_a"; rm -rf "$wal" "$topo_dir" "$churn_dir" "$plan_dir"' EXIT
plan="cargo run -q --release --offline --bin cloud-repro -- plan \
  --cloud hpc-8 --workload terasort --pilot 8 --seed 3"
$plan --jobs 1 > "$plan_dir/j1.out"
$plan --jobs 4 > "$plan_dir/j4.out"
FABRIC_SLOW_PATH=1 $plan --jobs 1 > "$plan_dir/slow.out"
if ! grep -q "^-> " "$plan_dir/j1.out"; then
  echo "FAIL: plan printed no recommendation:" >&2
  cat "$plan_dir/j1.out" >&2
  exit 1
fi
for other in j4 slow; do
  if ! diff -u "$plan_dir/j1.out" "$plan_dir/$other.out" > /dev/null; then
    echo "FAIL: plan output differs between --jobs 1 and $other:" >&2
    diff -u "$plan_dir/j1.out" "$plan_dir/$other.out" >&2 | head -20
    exit 1
  fi
done
echo "OK: plan's pilot prints the same bytes at --jobs 1 and 4 and on both engines"

echo "== streaming scale: campaign --tenants, O(1) aggregation, byte-identical everywhere =="
# The streaming-aggregation contract (DESIGN.md §14): a campaign over N
# seed-derived tenants folds into fixed-size sketch state, and its
# report bytes are a pure function of the spec — invariant to worker
# count and kill/resume. (Streaming never builds a fabric: a topology
# only contributes per-tenant path ceilings, so the stepping engine is
# not an axis here.) Gates:
#   1. `campaign --tenants 2000` (reference faults, 16-host star with
#      per-tenant path ceilings) byte-diffed across REPRO_JOBS=1/3/4;
#      the same campaign on a 1024-host `fattree16` (one ECMP wiring
#      over every host, 64 equal-cost paths per inter-pod pair)
#      likewise. Three workers do not divide the 16-pane window of the
#      ordered pane pipeline, so their claim/consume interleaving
#      differs from one or four workers'.
#   2. `--self-check` cross-checks sketch quantiles against the exact
#      estimator: bit-pinned below the exact-buffer cap (N=600),
#      bounded-error above it (N=2000); both must report PASS.
#   3. A run killed mid-campaign (`--kill-after 1200` aborts at the
#      first checkpoint covering 1200 tenants, SIGKILL-style) must leave
#      a journal that is a
#      byte-prefix of the uninterrupted run's; resuming it must
#      reproduce the uninterrupted report and journal byte-for-byte.
#   4. The sketch property suite and the worker-invariance integration
#      test run under the gate.
#   5. `campaign` without `--tenants` runs the batch campaign, which
#      reads none of the streaming flags: given `--faults --journal
#      PATH` it must exit non-zero and write no journal.
scale_dir=$(mktemp -d)
trap 'rm -f "$replay_a" "$replay_b" "$par_a" "$par_b" "$slow_a"; rm -rf "$wal" "$topo_dir" "$churn_dir" "$plan_dir" "$scale_dir"' EXIT
stream="cargo run -q --release --offline --bin cloud-repro -- campaign \
  --cloud hpc-8 --tenants 2000 --hours 0.05 --seed 13 --faults \
  --topology star --hosts 16"
REPRO_JOBS=1 $stream > "$scale_dir/j1.out" 2>/dev/null
for j in 3 4; do
  REPRO_JOBS=$j $stream > "$scale_dir/j$j.out" 2>/dev/null
  if ! diff -u "$scale_dir/j1.out" "$scale_dir/j$j.out" > /dev/null; then
    echo "FAIL: streaming campaign differs between 1 and $j workers:" >&2
    diff -u "$scale_dir/j1.out" "$scale_dir/j$j.out" >&2 | head -20
    exit 1
  fi
done
stream_tree="cargo run -q --release --offline --bin cloud-repro -- campaign \
  --cloud hpc-8 --tenants 2000 --hours 0.05 --seed 13 --faults \
  --topology fattree16 --hosts 1024"
REPRO_JOBS=1 $stream_tree > "$scale_dir/tree_j1.out" 2>/dev/null
for j in 3 4; do
  REPRO_JOBS=$j $stream_tree > "$scale_dir/tree_j$j.out" 2>/dev/null
  if ! diff -u "$scale_dir/tree_j1.out" "$scale_dir/tree_j$j.out" > /dev/null; then
    echo "FAIL: 1024-host fattree16 campaign differs between 1 and $j workers:" >&2
    diff -u "$scale_dir/tree_j1.out" "$scale_dir/tree_j$j.out" >&2 | head -20
    exit 1
  fi
done
stream_check="cargo run -q --release --offline --bin cloud-repro -- campaign \
  --cloud hpc-8 --hours 0.05 --seed 13 --faults --self-check"
$stream_check --tenants 600 > "$scale_dir/check600.out" 2>/dev/null
$stream_check --tenants 2000 > "$scale_dir/check2000.out" 2>/dev/null
if ! grep -q "exact path, bit-pinned.* -- PASS" "$scale_dir/check600.out"; then
  echo "FAIL: self-check at N=600 is not bit-pinned PASS:" >&2
  grep "self-check" "$scale_dir/check600.out" >&2 || true
  exit 1
fi
if ! grep -q "sketched.* -- PASS" "$scale_dir/check2000.out"; then
  echo "FAIL: sketched self-check at N=2000 did not PASS:" >&2
  grep "self-check" "$scale_dir/check2000.out" >&2 || true
  exit 1
fi
stream_wal="$stream --checkpoint-every 500 --journal"
$stream_wal "$scale_dir/full.jnl" > "$scale_dir/full_jnl.out" 2>/dev/null
if ! diff -u "$scale_dir/j1.out" "$scale_dir/full_jnl.out" > /dev/null; then
  echo "FAIL: journaled streaming report differs from the plain one" >&2
  exit 1
fi
if bash -c "$stream_wal '$scale_dir/kill.jnl' --kill-after 1200" > /dev/null 2>&1; then
  echo "FAIL: --kill-after 1200 run exited cleanly instead of dying" >&2
  exit 1
fi
if [ "$(wc -c < "$scale_dir/kill.jnl")" -ge "$(wc -c < "$scale_dir/full.jnl")" ]; then
  echo "FAIL: killed streaming journal is not smaller than the complete one" >&2
  exit 1
fi
if ! head -c "$(wc -c < "$scale_dir/kill.jnl")" "$scale_dir/full.jnl" \
  | cmp -s - "$scale_dir/kill.jnl"; then
  echo "FAIL: killed streaming journal is not a byte-prefix of the full one" >&2
  exit 1
fi
REPRO_JOBS=4 $stream_wal "$scale_dir/kill.jnl" --resume > "$scale_dir/resumed.out" 2>/dev/null
if ! diff -u "$scale_dir/full_jnl.out" "$scale_dir/resumed.out" > /dev/null; then
  echo "FAIL: resumed streaming report differs from the uninterrupted run's:" >&2
  diff -u "$scale_dir/full_jnl.out" "$scale_dir/resumed.out" >&2 | head -20
  exit 1
fi
if ! cmp -s "$scale_dir/full.jnl" "$scale_dir/kill.jnl"; then
  echo "FAIL: healed streaming journal differs from the uninterrupted one" >&2
  exit 1
fi
if batch_out=$(cargo run -q --release --offline --bin cloud-repro -- campaign \
  --cloud hpc-8 --hours 0.2 --seed 3 --faults --journal "$scale_dir/batch.jnl" 2>&1) \
  || ! printf '%s\n' "$batch_out" | grep -q "unknown flag --faults for campaign without --tenants" \
  || [ -e "$scale_dir/batch.jnl" ]; then
  echo "FAIL: campaign without --tenants did not refuse the streaming flags:" >&2
  printf '%s\n' "$batch_out" | head -5 >&2
  exit 1
fi
cargo test -q --release --offline -p vstats --test prop_sketch
cargo test -q --release --offline -p measure --test stream_campaign
echo "OK: streaming campaign is byte-identical across workers and kill/resume"

echo "== kill -9: real SIGKILL at seeded instants, byte-identical resume =="
# Journal appends write records in place, so a SIGKILL that lands
# inside an append leaves a torn record on disk, a state the
# cooperative --kill-after hook above never produces. `sigkill_gate`
# runs on a journaled streaming campaign and on a journaled fleet that
# makes every shard durable. Gates, per run:
#   1. An uninterrupted journaled run is timed; three kill instants are
#      drawn from a fixed seed as fractions of its wall, one in each of
#      5-34%, 35-64% and 65-94%.
#   2. At each instant a fresh run is SIGKILLed (`kill -9`). Whatever
#      survives is accepted (no journal, a header only, or records
#      ending in a torn one), but it must be a byte-prefix of the
#      uninterrupted journal.
#   3. Resuming a copy of that state at REPRO_JOBS=1 and another at
#      REPRO_JOBS=4 must reproduce the uninterrupted report and journal
#      byte for byte.
sigkill_dir=$(mktemp -d)
trap 'rm -f "$replay_a" "$replay_b" "$par_a" "$par_b" "$slow_a"; rm -rf "$wal" "$topo_dir" "$churn_dir" "$plan_dir" "$scale_dir" "$sigkill_dir"' EXIT
cargo build -q --release --offline --bin cloud-repro
repro="${CARGO_TARGET_DIR:-target}/release/cloud-repro"

# sigkill_gate NAME RUN: RUN is a command that takes the journal path
# as its last argument (and accepts a trailing --resume).
sigkill_gate() {
  local name=$1 run=$2
  local dir="$sigkill_dir/$name"
  mkdir -p "$dir"
  local t0 wall_ms full_bytes i pct kill_ms jnl pid size state jobs resumed
  t0=$(date +%s%N)
  $run "$dir/full.jnl" > "$dir/full.out" 2>/dev/null
  wall_ms=$(( ($(date +%s%N) - t0) / 1000000 ))
  full_bytes=$(wc -c < "$dir/full.jnl")
  RANDOM=2020
  for i in 1 2 3; do
    pct=$(( 30 * (i - 1) + 5 + RANDOM % 30 ))
    kill_ms=$(( wall_ms * pct / 100 ))
    jnl="$dir/kill$i.jnl"
    $run "$jnl" > /dev/null 2>&1 &
    pid=$!
    sleep "$(printf '%d.%03d' $((kill_ms / 1000)) $((kill_ms % 1000)))"
    # The group's stderr swallows the shell's "Killed" job notice.
    { kill -9 "$pid"; wait "$pid"; } 2>/dev/null || true
    if [ -e "$jnl" ]; then
      size=$(wc -c < "$jnl")
      if ! head -c "$size" "$dir/full.jnl" | cmp -s - "$jnl"; then
        echo "FAIL: $name journal left by kill -9 at ${pct}% is not a byte-prefix of the full one" >&2
        exit 1
      fi
      state="$size of $full_bytes journal bytes"
    else
      state="no journal"
    fi
    echo "  $name: kill -9 at ${pct}% of ${wall_ms} ms: $state survived"
    for jobs in 1 4; do
      resumed="$dir/resume$jobs.jnl"
      rm -f "$resumed"
      if [ -e "$jnl" ]; then
        cp "$jnl" "$resumed"
      fi
      REPRO_JOBS=$jobs $run "$resumed" --resume > "$dir/resume$jobs.out" 2>/dev/null
      if ! diff -u "$dir/full.out" "$dir/resume$jobs.out" > /dev/null; then
        echo "FAIL: $name resume after kill -9 at ${pct}% (REPRO_JOBS=$jobs) changed the report:" >&2
        diff -u "$dir/full.out" "$dir/resume$jobs.out" >&2 | head -20
        exit 1
      fi
      if ! cmp -s "$dir/full.jnl" "$resumed"; then
        echo "FAIL: $name resume after kill -9 at ${pct}% (REPRO_JOBS=$jobs) left a different journal" >&2
        exit 1
      fi
    done
  done
}

sigkill_gate campaign "$repro campaign --cloud hpc-8 --tenants 20000 --hours 0.05 --seed 29 \
  --faults --checkpoint-every 256 --journal"
sigkill_gate fleet "$repro fleet --cloud hpc-8 --pairs 128 --hours 12 --seed 31 \
  --checkpoint-every 1 --journal"
echo "OK: SIGKILLed journaled campaigns and fleets resume to byte-identical reports and journals"

echo "== perfbench: both benchmark workloads reproduce their goldens =="
# perfbench (its own workspace under perfbench/) repeats each workload's
# operation and checks every result against the golden pinned for seed
# 2020: the bigdata_fleet job durations and FabricPerf counters, and the
# stream_journaled campaign report. The held-out seed 4242 has no golden:
# there perfbench checks the journaled campaign against a plain run and
# the resumed journal byte for byte. A one-second run must end with a
# JSON line reporting "correct": true and "failed": 0.
for run in "bigdata_fleet 2020" "stream_journaled 2020" "stream_journaled 4242"; do
  workload=${run% *} seed=${run#* }
  bench_out=$(python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds 1 --trace 0)
  if ! printf '%s\n' "$bench_out" | tail -n 1 | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
sys.exit(0 if doc["correct"] is True and doc["failed"] == 0 else 1)
'; then
    echo "FAIL: perfbench $workload (seed $seed) is not correct or failed operations:" >&2
    printf '%s\n' "$bench_out" | tail -n 1 | cut -c1-300 >&2
    exit 1
  fi
done
echo "OK: perfbench workloads are correct with no failed operations"

echo "== tree: the gate left every tracked file as it found it =="
if [ -n "$tree_before" ] && [ "$(git diff --binary | sha256sum)" != "$tree_before" ]; then
  echo "FAIL: verify.sh changed tracked files; git diff --stat now reads:" >&2
  git diff --stat >&2
  exit 1
fi
echo "OK: tracked files are unchanged"

echo "== verify.sh: all gates passed =="
