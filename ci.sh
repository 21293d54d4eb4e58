#!/usr/bin/env bash
# Full verification gate for the workspace. Run from the repo root.
#
# Tier-1 (the minimum the repo promises) is just:
#     cargo build --release && cargo test -q
# This script adds formatting, clippy, bench/example compilation, and
# rustdoc on top.
set -euo pipefail

# Clippy allowlist — style lints the seed code deliberately trips, kept
# as warnings rather than rewriting working code:
#   single_range_in_vec_init mesh transform builds vec![range] on purpose
#   should_implement_trait   SimRng::next is the generator's public name
#   neg_cmp_op_on_partial_ord rng.rs uses `!(total > 0.0)` to reject NaN —
#                            a partial_cmp rewrite would lose that
#   cloned_ref_to_slice_refs mesh transform clones for a by-value slice
#
# Note: msd_core, msd_actor, msd_data, and msd_storage additionally opt
# IN to clippy::redundant_clone via crate-level attributes (the zero-copy
# contract covers the whole payload path, storage block through serving
# client); -D warnings makes those errors.
ALLOW=(
  -A clippy::single_range_in_vec_init
  -A clippy::should_implement_trait
  -A clippy::neg_cmp_op_on_partial_ord
  -A clippy::cloned_ref_to_slice_refs
)

echo "==> cargo fmt --check"
cargo fmt --check

# One home for the models: msd_core is the runtime and reports counts,
# bytes, wall time and transform-cost estimates; every projection (the
# network model, the step's modeled time, Sec 6.2's hybrid placement, the
# ETTR) lives in msd_bench. So msd_core names no msd_sim item but SimRng,
# and names none of the models msd_bench holds, by any path.
echo "==> msd_core names only SimRng from msd_sim, and no msd_bench model"
sim_names=$(
  perl -0777 -ne 'while (/msd_sim::(\{[^}]*\}|\w+|\*)/g) {
      (my $items = $1) =~ tr/{} \n//d;
      print "$ARGV: msd_sim::$_\n" for grep { !/^SimRng$/ } split /,/, $items;
    }' $(find crates/core/src -name '*.rs')
  grep -rnwE 'NetModel|place_actors|HybridDeployment|PodSpec|PlacementPlan|ettr' crates/core/src || true
)
if [ -n "$sim_names" ]; then
  echo "$sim_names" >&2
  echo "msd_core names a model that lives in msd_bench" >&2
  exit 1
fi

# The serve plane waits on events, not clocks: a batch reaches the server
# as a pushed `Ready`, leases expire on the server actor's deadline, and
# the serve driver blocks on the frontier hub. A `thread::sleep` outside
# tests is a poll loop unless it is one of the sites listed here, so a
# new one fails until it is either replaced by an event or added to
# this list with its reason.
#   server.rs   2  client redial backoff; TCP accept loop (non-blocking listener)
echo "==> no new sleep-poll loops in crates/core/src/system/"
declare -A sleep_sites=([server.rs]=2)
sleep_bad=0
for f in crates/core/src/system/*.rs; do
  name=$(basename "$f")
  found=$(awk '/^#\[cfg\(test\)\]/ { exit } /thread::sleep/ { n++ } END { print n + 0 }' "$f")
  allowed=${sleep_sites[$name]:-0}
  if [ "$found" -ne "$allowed" ]; then
    echo "$f: $found non-test thread::sleep call sites, allowlist says $allowed" >&2
    sleep_bad=1
  fi
done
if [ "$sleep_bad" -ne 0 ]; then
  echo "wait on an event instead, or update the allowlist above with the reason" >&2
  exit 1
fi

# One client protocol: local `serve` and `serve_distributed` both run the
# data server, so a constructor's batches reach clients only through the
# server's pull. A second non-test `ConstructorMsg::Pull` site (comment
# lines aside) is a client asking constructors directly, and fails here.
#   server.rs   1  the data server's pull (the one sender)
#   runtime.rs  1  the constructor's handler
echo "==> ConstructorMsg::Pull has one sender and one handler in crates/core/src/system/"
declare -A pull_sites=([server.rs]=1 [runtime.rs]=1)
pull_bad=0
for f in crates/core/src/system/*.rs; do
  name=$(basename "$f")
  found=$(awk '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next } /ConstructorMsg::Pull/ { n++ } END { print n + 0 }' "$f")
  allowed=${pull_sites[$name]:-0}
  if [ "$found" -ne "$allowed" ]; then
    echo "$f: $found non-test ConstructorMsg::Pull sites, allowlist says $allowed" >&2
    pull_bad=1
  fi
done
if [ "$pull_bad" -ne 0 ]; then
  echo "clients read batches through the data server; pull there, not from a constructor" >&2
  exit 1
fi

# A served step carries its samples in plan order: the driver finds the
# popped samples through one sorted index and hands each constructor
# its bucket's `Vec<Sample>`, bin by bin, so no per-step map is built.
# A non-test line naming `HashMap<u64, Sample>` (comment lines aside)
# beyond the one listed here is a per-step map coming back, and fails.
#   core.rs  1  `PipelineCore::assemble`, the inline deployment's entry
#               point (the inline `MegaScaleData` and its replica call it)
echo "==> no per-step sample map in crates/core/src/system/"
declare -A map_sites=([core.rs]=1)
map_bad=0
for f in crates/core/src/system/*.rs; do
  name=$(basename "$f")
  found=$(awk '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next } /HashMap<u64, Sample>/ { n++ } END { print n + 0 }' "$f")
  allowed=${map_sites[$name]:-0}
  if [ "$found" -ne "$allowed" ]; then
    echo "$f: $found non-test HashMap<u64, Sample> sites, allowlist says $allowed" >&2
    map_bad=1
  fi
done
if [ "$map_bad" -ne 0 ]; then
  echo "carry a bucket's samples in plan order (Vec<Sample>), found by the pop's sorted index" >&2
  exit 1
fi

# A loader group's pop reply is its checkpoint: a group writes its
# loaders' checkpoints before it answers the step's pop, and the serve
# driver takes the plan-log floor from whether every group answered. A
# non-test line under crates/ (comment lines aside) naming
# `LoaderMsg::Checkpoint` is a second checkpoint message coming back, and
# one naming `min_state_version` a per-loader GCS read for the floor:
# either fails.
echo "==> no separate loader checkpoint message or per-loader floor read in crates/"
ckpt_bad=0
for f in $(find crates -name '*.rs' | sort); do
  found=$(awk '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next } /min_state_version|LoaderMsg::Checkpoint/ { n++ } END { print n + 0 }' "$f")
  if [ "$found" -ne 0 ]; then
    echo "$f: $found non-test min_state_version / LoaderMsg::Checkpoint sites" >&2
    ckpt_bad=1
  fi
done
if [ "$ckpt_bad" -ne 0 ]; then
  echo "checkpoint a group's loaders in its pop and take the plan-log floor from the pop replies" >&2
  exit 1
fi

# One home for the transform tail: loaders pop raw
# (`SourceLoader::take_into`) and the tail runs where the batch is
# assembled, in a constructor actor, on `ThreadedPipeline::step`'s
# caller or in the inline `MegaScaleData::step` (`TransformTails`). A
# non-test call of a loader's `pop` or `pop_into` in
# crates/core/src/system.rs or crates/core/src/system/ (comment lines
# aside) would run it loader-side again, and fails here.
echo "==> no loader pop in crates/core/src/system.rs and crates/core/src/system/"
pop_bad=0
for f in crates/core/src/system.rs crates/core/src/system/*.rs; do
  found=$(awk '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next } /loader\.pop(_into)?\(/ { n++ } END { print n + 0 }' "$f")
  if [ "$found" -ne 0 ]; then
    echo "$f: $found non-test loader pop sites" >&2
    pop_bad=1
  fi
done
if [ "$pop_bad" -ne 0 ]; then
  echo "pop raw with take_into and leave the tail to the constructors" >&2
  exit 1
fi

# One materializer: a loader admits samples as metadata and synthesizes a
# payload and runs its pipeline's head in exactly one place,
# `SourceLoader::materialize_one`, which pops and the loader groups'
# idle turns both call. A second non-test call of
# `synthesize_payload_into` or of a loader's `head.apply_with` anywhere in
# crates/core/src (comment lines aside) would materialize outside it —
# eagerly at refill again, or on the serve plane — and fails here.
#   loader.rs  2  the materializer's synthesis and its head transform
echo "==> payloads are materialized in one place in crates/core/src/"
declare -A synth_sites=([crates/core/src/loader.rs]=2)
synth_bad=0
for f in $(find crates/core/src -name '*.rs' | sort); do
  found=$(awk '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next } /synthesize_payload_into\(|head\.apply_with\(/ { n++ } END { print n + 0 }' "$f")
  allowed=${synth_sites[$f]:-0}
  if [ "$found" -ne "$allowed" ]; then
    echo "$f: $found non-test payload synthesis sites, allowlist says $allowed" >&2
    synth_bad=1
  fi
done
if [ "$synth_bad" -ne 0 ]; then
  echo "admit samples as metadata and materialize them in SourceLoader::materialize_one" >&2
  exit 1
fi

# No thread reads session receivers: a session's frames reach the data
# server's mailbox on the thread that delivered them (the sending client's
# on loopback, the connection's reader on TCP). A non-test
# `thread::Builder::new` / `thread::spawn` site (comment lines aside)
# beyond the ones listed here fails, so a reader pool cannot come back
# unnoticed; add a new one here with its reason.
#   runtime.rs  1  the serve driver
#   server.rs   1  the TCP accept loop
#   tcp.rs      2  each connection's writer and reader
echo "==> no new thread spawn sites in crates/core/src/system/"
declare -A spawn_sites=([runtime.rs]=1 [server.rs]=1 [tcp.rs]=2)
spawn_bad=0
for f in crates/core/src/system/*.rs; do
  name=$(basename "$f")
  found=$(awk '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next } /thread::(Builder::new|spawn)/ { n++ } END { print n + 0 }' "$f")
  allowed=${spawn_sites[$name]:-0}
  if [ "$found" -ne "$allowed" ]; then
    echo "$f: $found non-test thread spawn sites, allowlist says $allowed" >&2
    spawn_bad=1
  fi
done
if [ "$spawn_bad" -ne 0 ]; then
  echo "run the work on a thread that already exists, or update the allowlist above with the reason" >&2
  exit 1
fi

# Malformed input and dead peers are errors or fault records, never
# panics. A non-test `unwrap()`/`expect(`/`panic!`/`unreachable!` site
# (comment lines aside) beyond the counts listed here fails, so the
# codec stays at none and the serve plane's count only goes down; lower
# a count when its sites become errors.
#   codec.rs       0  every decoder returns a CodecError
#   tcp.rs         4  `TcpTransport::pair`'s self-connect, accept and two
#                     endpoint wraps (the trait returns no Result); a
#                     failed thread spawn is an `io::Error` from `wire_conn`
#   controller.rs  0  an empty source or peer list is skipped, and
#                     `ensure_scaler` hands back the scaler it built
#   frontier.rs 2, runtime.rs 3, server.rs 3
#                     not yet audited
echo "==> no new panic sites in crates/core/src/codec.rs and crates/core/src/system/"
declare -A panic_sites=([codec.rs]=0 [controller.rs]=0 [frontier.rs]=2 [runtime.rs]=3 [server.rs]=3 [tcp.rs]=4)
panic_bad=0
for f in crates/core/src/codec.rs crates/core/src/system/*.rs; do
  name=$(basename "$f")
  found=$(awk '/^#\[cfg\(test\)\]/ { exit } /^[[:space:]]*\/\// { next } /unwrap\(\)|expect\(|panic!|unreachable!/ { n++ } END { print n + 0 }' "$f")
  allowed=${panic_sites[$name]:-0}
  if [ "$found" -ne "$allowed" ]; then
    echo "$f: $found non-test panic sites, allowlist says $allowed" >&2
    panic_bad=1
  fi
done
if [ "$panic_bad" -ne 0 ]; then
  echo "return an error instead, or update the allowlist above with the reason" >&2
  exit 1
fi

echo "==> cargo clippy --all-targets -- -D warnings (+allowlist)"
cargo clippy --all-targets -- -D warnings "${ALLOW[@]}"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --benches --examples"
cargo build --benches --examples

# Cargo rewrites a stale lock file without a word. If the builds above
# changed it — a removed package still listed, a new dependency not yet
# recorded — the committed lock is wrong: fail instead of passing on the
# rewritten one. (Compares against the index, so stage the lock first.)
echo "==> git diff --exit-code -- Cargo.lock"
git diff --exit-code -- Cargo.lock

echo "==> cargo test -q"
cargo test -q

# The elasticity and distributed-serving suites are part of `cargo
# test`, but gate them by name too so a test-filter or default-members
# slip can't silently drop them.
echo "==> cargo test --test elastic_runtime -q"
cargo test --test elastic_runtime -q

echo "==> cargo test --test distributed_serve -q"
cargo test --test distributed_serve -q

# Inline ≡ threaded: both deployments built from the same parts deliver
# byte-identical streams, and payloads reach batches uncopied. Both take
# samples from the loaders raw and run the transform tails where the
# batch is assembled, so this is the guard that where the pipeline is cut
# never shows in what is delivered.
echo "==> cargo test --test zero_copy_dataplane -q"
cargo test --test zero_copy_dataplane -q

# Actor kills mid-serve; its constructor kills are the gate on
# `started()` rehydration from the driver's retained window.
echo "==> cargo test --test runtime_concurrency -q"
cargo test --test runtime_concurrency -q

# The cross-transport conformance + TCP adversarial suite: real
# sockets, frame reassembly at every split point, kill-and-reconnect.
echo "==> cargo test --test tcp_transport -q"
cargo test --test tcp_transport -q

# The buffer-pool contract suite: concurrent lease/reclaim safety,
# no-early-recycle under live views, exhaustion fallback, size-class
# boundary proptest, and pooled serving vs the byte-identity harness.
echo "==> cargo test --test buffer_pool -q"
cargo test --test buffer_pool -q

# The seeded chaos soak: drops/dups/reorders + partitions + a full
# server crash-restart + a silently-dead client, over loopback and
# TCP; plus admission Reject/backoff and lease-then-late-return.
echo "==> cargo test --test chaos_serve -q"
cargo test --test chaos_serve -q

# The massive fan-out soak: 256 loopback clients (64 streaming, 192
# idle-attached) — byte-identical active streams, nothing in flight to
# idle sessions, no lease sweep while nothing is due, and the process's
# thread count (/proc/self/task) unmoved by attaching the idle fleet.
echo "==> cargo test --test many_clients -q"
cargo test --test many_clients -q

# Frontier retirement: a parked laggard pins the whole plan log, a
# paced laggard bounds it by its lag (never by run length), and a
# loader restart replays it gap-free.
echo "==> cargo test --test frontier_recovery -q"
cargo test --test frontier_recovery -q

# Planning cost follows the samples a step draws: allocator calls per
# `Planner::generate` must not change with buffer depth (counted on the
# test thread by its own global allocator).
echo "==> cargo test --test planner_scaling -q"
cargo test --test planner_scaling -q

# A live fig 20: allocator calls per served step (every thread counted)
# grow at most 1.25x from 512 to 2,048 sources at a fixed draw.
echo "==> cargo test --test source_scaling -q"
cargo test --test source_scaling -q

# A loader checkpoint re-put makes no allocator call, and a loader
# group's summaries share one table (same thread-counting allocator).
echo "==> cargo test --test control_allocs -q"
cargo test --test control_allocs -q

# The send path copies no payload: sealing a 64 × 48 KiB batch for the
# wire makes at most two small allocations, a pool lease that reclaims a
# parked buffer makes none, and neither does a warmed pool's whole
# lease → fill → freeze → drop → lease → freeze cycle (same
# thread-counting allocator).
echo "==> cargo test --test wire_allocs -q"
cargo test --test wire_allocs -q

# A warmed synthetic text loader's refill makes exactly two allocator
# calls per sample (its token Vec and that Vec's shared header). Its own
# binary: the loader draws from the process-global pool, which no
# concurrent test may touch.
echo "==> cargo test --test loader_allocs -q"
cargo test --test loader_allocs -q

# Second property-test leg: an independent sampling of every property
# suite, including the DGraph reference-equivalence proptests in
# msd_core. MSD_PROPTEST_SEED salts the shim's deterministic RNG labels
# (so the cases differ from the default leg's), and PROPTEST_CASES
# sizes the leg. Fixed values keep this leg as reproducible as the
# first one.
echo "==> property suites, alternate sampling (PROPTEST_CASES=96, MSD_PROPTEST_SEED=ci-leg-2)"
PROPTEST_CASES=96 MSD_PROPTEST_SEED=ci-leg-2 cargo test -q \
  --test prop_codec --test prop_invariants --test prop_deploy_tricks
PROPTEST_CASES=96 MSD_PROPTEST_SEED=ci-leg-2 cargo test -q -p msd_core dgraph::

# Replay Mode end to end: record a live run's plans, round-trip the
# store through its MSDB frame, replay it on a seeded twin; exits
# non-zero unless every step replays the live run's samples.
echo "==> cargo run --example replay_mode"
cargo run --example replay_mode

# Fig 15 through msd_bench::model: asserts every config's projected fetch
# hides behind its iteration, so the cost model runs, not just compiles.
echo "==> cargo bench --bench fig15_time_breakdown"
cargo bench --offline --bench fig15_time_breakdown

# Sec 6.2 through msd_bench::model: asserts that deferring each
# pipeline's tail to the constructors shrinks the bytes shipped from
# loader to constructor on both catalogs.
echo "==> cargo bench --bench sec6_deploy_tricks"
cargo bench --offline --bench sec6_deploy_tricks

# Concurrent local serving through a mid-serve loader-group crash; exits
# non-zero unless the crash lands mid-serve and every client pulls every
# step.
echo "==> cargo run --example concurrent_serve"
cargo run --example concurrent_serve

# Smoke-run the elastic control plane end to end (scales up, retires,
# asserts gap-free clients internally). Debug profile on purpose: it
# reuses the artifacts `cargo build --benches --examples` made above,
# and the demo runs in about a second either way.
echo "==> cargo run --example elastic_serve"
cargo run --example elastic_serve

# Smoke-run the distributed serving plane: loopback with a mid-stream
# disconnect/resume, then TCP under 10% chaos frame loss — both assert
# gap-free client streams internally.
echo "==> cargo run --example distributed_serve"
cargo run --example distributed_serve

# Smoke-run the two-process TCP demo: the serve session exposed on a
# real listener, one OS process per client dialing in over the socket —
# every child asserts a gap-free stream and the parent checks exit
# codes.
echo "==> cargo run --example tcp_serve"
cargo run --example tcp_serve

# The serve-plane benchmark (benchmark/, its own workspace and target
# dir) is the ruler perf PRs are judged by: keep it building against the
# crates' public surface, its arithmetic tested, and all four workloads
# delivering correct streams. --smoke is 1/20 of the steps with the
# stream oracle on; its numbers are never compared.
echo "==> cargo test --manifest-path benchmark/Cargo.toml"
cargo test --offline -q --manifest-path benchmark/Cargo.toml

echo "==> benchmark/run.sh --smoke"
bash benchmark/run.sh --smoke | grep 'attempted='

# The oracle's self-test: a run that corrupts its own stream must fail,
# or `correct=true` above proves nothing.
echo "==> benchmark/run.sh --smoke --workload text_loopback --corrupt (must fail)"
if bash benchmark/run.sh --smoke --workload text_loopback --corrupt >/dev/null; then
  echo "oracle self-test: a corrupted stream passed the oracle" >&2
  exit 1
fi

echo "==> cargo doc --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "CI gate passed."
