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
# Times the analysis over this workspace, re-checks byte-identity and
# deny-cleanliness from inside the bench, and writes the files/sec
# trajectory to BENCH_detlint.json.
cargo bench -q --offline -p bench --bench supp_detlint

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
#   2. The property suites drive randomized fabrics through the
#      general step and through event windows against a reference twin
#      and compare every observable with f64::to_bits — the event suite
#      at every event boundary, with adversarial
#      zero-length/simultaneous/fault-edge cases.
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
#      REPRO_JOBS=1 and 4, and byte-identical to the journaled report:
#      both drivers run one supervised settle loop and one renderer.
#   1. `--kill-after 3` makes the process abort() at the first durable
#      checkpoint covering 3 pairs — as sudden as a SIGKILL: no
#      unwinding, no flushing — and the run must NOT exit cleanly.
#   2. The killed journal must be a byte-prefix of the uninterrupted
#      run's journal (the WAL is append-only and deterministic), and
#      two kills at the same pinned count must leave identical files.
#   3. Resuming (with 2 shards re-verified bit-for-bit against the
#      log) must reproduce the uninterrupted stdout report and final
#      journal byte-for-byte — on 1 worker and on 4 (the resumed run
#      itself must be jobs-invariant).
#   4. Resuming under a different seed must fail loudly with the typed
#      config-fingerprint mismatch, not blend incompatible results.
wal=$(mktemp -d)
trap 'rm -f "$replay_a" "$replay_b" "$par_a" "$par_b" "$slow_a"; rm -rf "$wal"' EXIT
fleet="cargo run -q --release --offline --bin cloud-repro -- fleet \
  --cloud hpc-8 --pairs 6 --hours 2 --seed 7"
$fleet --journal "$wal/full.wal"  > "$wal/full.out"  2>/dev/null
REPRO_JOBS=1 $fleet > "$wal/plain1.out" 2>/dev/null
REPRO_JOBS=4 $fleet > "$wal/plain4.out" 2>/dev/null
if ! diff -u "$wal/plain1.out" "$wal/plain4.out" > /dev/null; then
  echo "FAIL: plain fleet report differs between 1 and 4 workers:" >&2
  diff -u "$wal/plain1.out" "$wal/plain4.out" >&2 | head -20
  exit 1
fi
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
REPRO_JOBS=1 $fleet --journal "$wal/kill1.wal" --resume --verify-resume 2 \
  > "$wal/resume1.out" 2>/dev/null
REPRO_JOBS=4 $fleet --journal "$wal/kill2.wal" --resume --verify-resume 2 \
  > "$wal/resume4.out" 2>/dev/null
if ! diff -u "$wal/full.out" "$wal/resume1.out" > /dev/null; then
  echo "FAIL: resumed report differs from the uninterrupted run's:" >&2
  diff -u "$wal/full.out" "$wal/resume1.out" >&2 | head -40
  exit 1
fi
if ! diff -u "$wal/resume1.out" "$wal/resume4.out" > /dev/null; then
  echo "FAIL: resumed report differs between 1 and 4 workers:" >&2
  diff -u "$wal/resume1.out" "$wal/resume4.out" >&2 | head -40
  exit 1
fi
if ! cmp -s "$wal/full.wal" "$wal/kill1.wal" || ! cmp -s "$wal/full.wal" "$wal/kill2.wal"; then
  echo "FAIL: healed journals differ from the uninterrupted one" >&2
  exit 1
fi
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
# enumeration oracle), flat wiring, and the JSON codec against their
# reference contracts.
topo_dir=$(mktemp -d)
trap 'rm -f "$replay_a" "$replay_b" "$par_a" "$par_b" "$slow_a"; rm -rf "$wal" "$topo_dir"' EXIT
topo_run="cargo run -q --release --offline --bin cloud-repro -- run \
  --cloud gce-8 --workload q65 --reps 5 --nodes 16 --seed 11"
for path in event reference; do
  $topo_run --fabric-path "$path" > "$topo_dir/plain_$path.out"
  $topo_run --fabric-path "$path" --topology flat > "$topo_dir/flat_$path.out"
  if ! diff -u "$topo_dir/plain_$path.out" "$topo_dir/flat_$path.out" > /dev/null; then
    echo "FAIL: --topology flat differs from the topology-less run ($path engine):" >&2
    diff -u "$topo_dir/plain_$path.out" "$topo_dir/flat_$path.out" >&2 | head -20
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
if diff -u "$topo_dir/tree.out" "$topo_dir/flat_event.out" > /dev/null; then
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
churn_dir=$(mktemp -d)
trap 'rm -f "$replay_a" "$replay_b" "$par_a" "$par_b" "$slow_a"; rm -rf "$wal" "$topo_dir" "$churn_dir"' EXIT
churn="cargo run -q --release --offline --bin cloud-repro -- run \
  --cloud ec2-c5.xlarge --workload terasort --nodes 64 --topology fattree8 \
  --reps 4 --seed 11"
for path in event reference; do
  for jobs in 1 4; do
    REPRO_JOBS=$jobs $churn --fabric-path "$path" > "$churn_dir/${path}_j$jobs.out"
  done
  if ! diff -u "$churn_dir/${path}_j1.out" "$churn_dir/${path}_j4.out" > /dev/null; then
    echo "FAIL: terasort churn run differs between 1 and 4 workers ($path engine):" >&2
    diff -u "$churn_dir/${path}_j1.out" "$churn_dir/${path}_j4.out" >&2 | head -20
    exit 1
  fi
  sed -e 's/ \[reference fabric path\]//' -e '/^  fabric: /d' \
    "$churn_dir/${path}_j1.out" > "$churn_dir/$path.cmp"
done
if ! grep -q "^TS runtime" "$churn_dir/event.cmp"; then
  echo "FAIL: terasort churn run printed no runtime summary:" >&2
  cat "$churn_dir/event_j1.out" >&2
  exit 1
fi
if ! diff -u "$churn_dir/event.cmp" "$churn_dir/reference.cmp" > /dev/null; then
  echo "FAIL: terasort churn run differs between the event and reference engines:" >&2
  diff -u "$churn_dir/event.cmp" "$churn_dir/reference.cmp" >&2 | head -20
  exit 1
fi
echo "OK: 4032-flow shuffles retire identically on both engines and any worker count"

echo "== streaming scale: campaign --tenants, O(1) aggregation, byte-identical everywhere =="
# The streaming-aggregation contract (DESIGN.md §14): a campaign over N
# seed-derived tenants folds into fixed-size sketch state, and its
# report bytes are a pure function of the spec — invariant to worker
# count and kill/resume. (Streaming never builds a fabric: a topology
# only contributes per-tenant path ceilings, so the stepping engine is
# not an axis here.) Gates:
#   1. `campaign --tenants 2000` (reference faults, 16-host star with
#      per-tenant path ceilings) byte-diffed across REPRO_JOBS=1/4; the
#      same campaign on a 1024-host `fattree16` (one ECMP wiring over
#      every host, 64 equal-cost paths per inter-pod pair) likewise.
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
scale_dir=$(mktemp -d)
trap 'rm -f "$replay_a" "$replay_b" "$par_a" "$par_b" "$slow_a"; rm -rf "$wal" "$topo_dir" "$churn_dir" "$scale_dir"' EXIT
stream="cargo run -q --release --offline --bin cloud-repro -- campaign \
  --cloud hpc-8 --tenants 2000 --hours 0.05 --seed 13 --faults \
  --topology star --hosts 16"
REPRO_JOBS=1 $stream > "$scale_dir/j1.out" 2>/dev/null
REPRO_JOBS=4 $stream > "$scale_dir/j4.out" 2>/dev/null
if ! diff -u "$scale_dir/j1.out" "$scale_dir/j4.out" > /dev/null; then
  echo "FAIL: streaming campaign differs between 1 and 4 workers:" >&2
  diff -u "$scale_dir/j1.out" "$scale_dir/j4.out" >&2 | head -20
  exit 1
fi
stream_tree="cargo run -q --release --offline --bin cloud-repro -- campaign \
  --cloud hpc-8 --tenants 2000 --hours 0.05 --seed 13 --faults \
  --topology fattree16 --hosts 1024"
REPRO_JOBS=1 $stream_tree > "$scale_dir/tree_j1.out" 2>/dev/null
REPRO_JOBS=4 $stream_tree > "$scale_dir/tree_j4.out" 2>/dev/null
if ! diff -u "$scale_dir/tree_j1.out" "$scale_dir/tree_j4.out" > /dev/null; then
  echo "FAIL: 1024-host fattree16 campaign differs between 1 and 4 workers:" >&2
  diff -u "$scale_dir/tree_j1.out" "$scale_dir/tree_j4.out" >&2 | head -20
  exit 1
fi
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
trap 'rm -f "$replay_a" "$replay_b" "$par_a" "$par_b" "$slow_a"; rm -rf "$wal" "$topo_dir" "$churn_dir" "$scale_dir" "$sigkill_dir"' EXIT
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

echo "== verify.sh: all gates passed =="
