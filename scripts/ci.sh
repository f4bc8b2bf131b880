#!/usr/bin/env bash
# Tier-1 gate plus lint: everything a PR must keep green.
#
#   ./scripts/ci.sh
#
# Runs from the repo root regardless of the caller's cwd.
set -euo pipefail
cd "$(dirname "$0")/.."

# Build artifacts must never be tracked: a committed target/ bloats the
# history and makes every local build dirty the working tree.
if git ls-files target | grep -q .; then
    echo "error: files under target/ are tracked in git" >&2
    exit 1
fi
# Same for logs: run transcripts are local scratch (.gitignore has
# *.log), never part of the history.
if git ls-files '*.log' | grep -q .; then
    echo "error: log files are tracked in git" >&2
    exit 1
fi

# The workspace builds offline from one in-tree stand-in (rayon, patched
# in .cargo/config.toml); the random number generator is `simrt::rng`.
# No manifest may bring back the serde, proptest or rand crates;
# perfbench/stubs keeps stand-ins for older trees and is not checked.
if git ls-files -- ':(glob)**/Cargo.toml' ':(exclude)perfbench/stubs' \
        | xargs grep -nwE 'serde|serde_json|serde_derive|proptest|rand'; then
    echo "error: a Cargo.toml names serde, serde_json, proptest or rand" >&2
    exit 1
fi
# The memory gates share one counting allocator, `simrt::heap`; no
# other file may define its own.
if git grep -ln 'impl GlobalAlloc' -- '*.rs' ':(exclude)crates/simrt/src/heap.rs'; then
    echo "error: a .rs file other than crates/simrt/src/heap.rs implements GlobalAlloc" >&2
    exit 1
fi

# Tests, examples and the `figures` runs below put their stores in the
# temp directory: a fresh one, checked at the end for any `mha-*` file
# left behind.
test_tmp=$(mktemp -d)
trap 'rm -rf "$test_tmp"' EXIT
export TMPDIR="$test_tmp"
# `workspace.default-members` lists every crate, so these two build and
# test the whole workspace.
cargo build --release
cargo test -q
# The counting allocator every memory gate below reads, by name: the
# peak above the entry's live bytes, a grow holding old and new block,
# alloc_zeroed counted, every byte back after a drop.
cargo test -q -p simrt --test heap
# Bounded recovery, by name: opening a 16 MiB log allocates under
# 256 KiB, a tail header claiming a 4 GiB value truncates without
# allocating it, and the streamed walk matches the in-memory scan at
# every cut and byte flip around each read-window edge.
cargo test -q -p kvstore --test open_memory
cargo test -q -p kvstore --lib stream_and_scan_agree_across_window_edges
# trace-tool smoke: a generated trace reads back through `stats`, a zero
# or unparsable `gen` option (a count, a `--sizes` entry, an `--op`) is
# a usage error (exit 2) that names the option, and a rank too large
# for u32 is a parse error (exit 1) rather than a wrapped value.
cargo build -q --release -p iotrace --bin trace-tool
trace_tool="${CARGO_TARGET_DIR:-target}/release/trace-tool"
expect_exit() {
    local want=$1 got=0
    shift
    "$@" >/dev/null 2>&1 || got=$?
    if [ "$got" -ne "$want" ]; then
        echo "error: '$*' exited $got, expected $want" >&2
        exit 1
    fi
}
expect_usage() {
    local option=$1 got=0 err
    shift
    err=$("$@" 2>&1 >/dev/null) || got=$?
    if [ "$got" -ne 2 ] || [[ "$err" != *"$option"* ]]; then
        echo "error: '$*' exited $got ('$err'), expected 2 naming $option" >&2
        exit 1
    fi
}
"$trace_tool" gen lanl --loops 64 | expect_exit 0 "$trace_tool" stats
expect_usage --procs "$trace_tool" gen lanl --procs 0
expect_usage --loops "$trace_tool" gen lanl --loops abc
expect_usage --sizes "$trace_tool" gen ior --sizes 64,abc
expect_usage --op "$trace_tool" gen lanl --op bogus
printf '1\t4294967297\t0\tread\t0\t16\t0\t0\n' | expect_exit 1 "$trace_tool" stats
# Benchmark gate: perfbench is its own offline workspace that calls the
# library API directly, so a library change that breaks it fails here.
# It builds into its own target dir. The build rewrites
# perfbench/Cargo.lock, so the lock is copied aside first and put back
# on exit, leaving perfbench/ byte-identical. One-second runs of
# service-online, plan-pipeline and stream-1024 execute their identity
# checks (exit 1 on a failed check); stream-1024's are serial == sharded
# == streamed and width 1 == full width on an IOR prefix.
bench_target="$(realpath -m "${CARGO_TARGET_DIR:-target}")/perfbench"
bench_work=$(mktemp -d)
bench_lock=$(mktemp)
cp perfbench/Cargo.lock "$bench_lock"
trap 'cp "$bench_lock" perfbench/Cargo.lock; rm -rf "$bench_lock" "$bench_work" "$test_tmp"' EXIT
(cd perfbench && CARGO_TARGET_DIR="$bench_target" cargo build -q --release --offline)
for workload in service-online plan-pipeline stream-1024; do
    "$bench_target/release/mha-perfbench" --workload "$workload" --seed 1 \
        --seconds 1 --trace 0 --workdir "$bench_work" >/dev/null
done
# --all-targets lints tests and examples too; the pre-0.3
# replay free functions are gone, so any resurrected caller fails here.
cargo clippy --workspace --all-targets -- -D warnings
# Rustdoc stays clean: a broken or private intra-doc link is an error.
RUSTDOCFLAGS="-D warnings" cargo doc -q --workspace --no-deps
# Durability gate, explicitly: the kill-point matrices (simulated crash
# at every commit boundary of save_plan and journaled migration), the
# corruption/truncation recovery tests, and the save→reload→replay
# bit-identity round-trip. These already ran inside `cargo test -q`;
# naming them here keeps the crash-consistency contract from silently
# dropping out of the suite.
cargo test -q -p mha-core persist::
cargo test -q -p mha-core kill_matrix
# The paper's mechanisms, by module: the cost model, lazy migration,
# grouping, online re-planning (its drift trigger sees a hot-spot move
# and stays quiet on steady windows), access patterns, spare rebuild,
# redirection, region building, RSSD and the four layout schemes.
cargo test -q -p mha-core --lib -- cost:: dynamic:: grouping:: online:: pattern:: rebuild:: redirect:: region:: rssd:: schemes::
# The migration journal, by name: one intent record per journaling call
# reads back as per-entry batches, a malformed record under a valid CRC
# is Corrupt, a version-3 per-entry journal is a VersionMismatch, and an
# add_pending killed at its intent record registers nothing.
cargo test -q -p mha-core --lib -- journal add_pending_killed_at_its_intent
cargo test -q -p mha-bench --test persist_roundtrip
cargo test -q -p mha --test properties persisted_tables
# Every example runs to completion. durable_pipeline saves a plan,
# reopens the store as a restarted process would, reloads and replays:
# it panics unless both runs are identical.
for example in examples/*.rs; do
    cargo run -q --release --example "$(basename "$example" .rs)" >/dev/null
done
# Front-end equivalence gate, explicitly: the parallel grouping path
# must stay bit-identical to serial, and the interval-slab DRT builder
# must keep matching the reference BTreeMap build loop (both also run
# inside `cargo test -q`; naming them pins the PR 5 contract).
cargo test -q -p mha-core grouping_serial_matches_parallel
cargo test -q -p mha-core drt_builder_equivalence
# Planner memory, by name: planning a 1024-loop LANL trace peaks under
# half its record bytes (one region's views at a time, k-means points
# streamed from the trace), its table holds at most 4 KiB (one repeat
# segment) and reloading it peaks under the 256 KiB load slack, while a
# table of random extents holds at most 32 B per entry plus 64 B per
# file (a counting allocator); count-then-fill pass 2 matches the
# per-chunk merge it replaced, views and residuals in order; the
# one-region planner matches the collect-all planner it replaced (every
# generator, excluded groups, a set alignment, k = 1, overlaps, an
# empty trace); and the streamed k-means matches the one over a feature
# vector bit for bit, either side of the parallel cutover, cold and
# seeded.
cargo test -q -p mha-core --test plan_memory
cargo test -q -p mha-core --lib -- pass2_count_then_fill_matches_the_per_chunk_merge \
    one_region_planner_matches_the_collect_all_oracle streamed_grouping_matches_the_feature_vector
# Migrator memory, by name (counting allocators): after 38,400 journaled
# redirects, all but 32 cancelled or migrated, the lazy migrator holds at
# most 54 B per live redirect or published entry, and a live vector
# halves once removals leave it a quarter full. Its sorted vectors
# hold 32 B per redirect and grow by doubling: at 2,049, 3,000 and 4,096
# live redirects from plans of 64 scattered extents it owns at most 65 B
# per redirect (just past a doubling, about what the BTreeMap it
# replaced owned) and at most 48 B on average. The live vectors must
# match the BTreeMap live set they replaced, step for step, on seeded
# draws of overlapping plans, accesses and drains.
cargo test -q -p mha-core --test migrator_memory
cargo test -q -p mha-core --test migrator_live_memory
cargo test -q -p mha-core --lib -- live_vectors_match_the_btree_live_set live_vectors_halve_at_a_quarter_full
# The online driver, by name: co-tenant pipelines keep their region
# files, MDS shards and generations apart, a dead store parks the
# pipeline instead of panicking, and `drain` leaves nothing pending.
cargo test -q -p mha-core --lib tenant::
# The flat DRT and the resolver's cursor seek must match the map-based reference table.
cargo test -q -p mha-core drt_oracle
# The segmented DRT (literal and repeat segments, built by push_sorted,
# the planner's run builder or insert, then split by inserts) must match
# the flat table it replaced in every reader, the resolver's cursor too.
cargo test -q -p mha-core drt_segments_match_the_flat_table
# A crash at every boundary of a multi-chunk save_tables must leave the old generation loading.
cargo test -q -p mha-core save_tables_kill_matrix
# Replay identity gate, explicitly: the per-server-lane core (the one
# production core, `CoreSel::Auto`) and the streaming-generator path
# must stay bit-identical to the serial reference loop
# (`CoreSel::Serial`, which only tests and perfbench run) across
# randomized traces, cluster shapes, layouts and fault plans (also
# inside `cargo test -q`; named to pin the contract). "Bit-identical"
# is `==` on the whole `ReplayReport`: every field and every server's
# stats and counters, the latency statistics by bit pattern.
cargo test -q -p pfs-sim --test sharded_equivalence
# Replay window, by name: the lane core walks each phase in fixed
# windows, so phases one record short of a window, exactly one, one
# past it and two plus one must stay bit-identical to the serial
# reference (fault-free, under faults, redundant with a server down,
# under straggler-aware dispatch, and streamed), and a streamed replay's heap
# may grow by at most 48 B per record of phase width (a counting
# allocator).
cargo test -q -p pfs-sim --lib window_edges
cargo test -q -p pfs-sim --test replay_memory
# Service memory, by name: queueing 256 jobs of 64 records for non-zero
# tenants allocates at most 32 B per job and no bytes per record (a
# counting allocator); the retag happens at dispatch.
cargo test -q -p pfs-sim --test service_memory
# Service report, by name: a report of 4 tenants × 32 jobs on 64 servers
# holds at most 512 B per job plus 128 B per tenant and server plus
# 4 KiB (a counting allocator); jobs keep no per-server stats, their
# tenant's summary holds the totals.
cargo test -q -p pfs-sim --test service_report_memory
# Stream state, by name: a 16,384-rank IOR phase batch holds at most 8 B
# per record plus 1 KiB (its run-encoded columns keep only the offsets),
# and building a 768H+256S cluster with 4,096 clients peaks at 16 B per
# fabric node plus 320 B per server (a counting allocator each).
cargo test -q -p iotrace --test batch_memory
# TSV memory, by name: parsing a 1024-loop LANL trace peaks at 24 B per
# record, half a record vector (a counting allocator).
cargo test -q -p iotrace --test tsv_memory
# Trace memory, by name: a trace holds its records as run-encoded
# columns: stream-1024's IOR prefix at most 8 B per record plus 1 KiB
# per phase, LANL App2 at most 16 B per record, a service-online-shaped
# skewed trace at most 24 B per record plus 1 KiB, and random one-record
# phases never more than a record vector's 48 B (a counting allocator).
cargo test -q -p iotrace --test trace_memory
cargo test -q -p pfs-sim --test cluster_memory
# Scale smoke: a 1024-server, ~1M-record streaming run with a
# reference == lane core == streamed whole-report identity assertion on
# a materialized prefix — catches panics, identity drift and memory blow-ups at the
# cluster sizes the full grid exercises.
cargo run -p mha-bench --release --bin scale -- --smoke
# Study smoke: every figure and study is a `figures` id with one flag
# surface, and an unknown id or option, or `--json` without a directory,
# is a usage error (exit 2) that names it. The quick run below covers
# the studies, each asserting its own bars inside the study:
# - fault: the degraded-cluster matrix runs end to end (empty-plan
#   bit-identity and replanning wins are asserted by the test suite);
# - online: the plan-while-running loop recovers from a phase shift at
#   least 2x sooner than plan-then-rerun, a quiet window costs <10% of a
#   cold plan, and the recovered bandwidth beats the unplanned layout;
# - service: the multi-tenant service is seeded-deterministic (the whole
#   `ServiceReport` reruns equal), co-tenants never perturb a tenant's
#   replay reports, and one tenant degenerates to a plain streaming
#   replay (whole reports equal);
# - redundancy: replicated and erasure-coded layouts survive a permanent
#   server loss with zero timeouts, healthy redundant replays match
#   striped MHA, and the journaled rebuild swaps every affected layout
#   onto the spare (its kill-point matrix lives in `mha-core rebuild::`);
# - straggler: straggler-aware dispatch is a bit-identical no-op
#   fault-free (whole reports equal), the serial reference and the lane
#   core agree in every cell, and it never loses to blind dispatch
#   under the migrating transient straggler.
# `--json` also drives the results/<figure id>.json writer (into the
# scratch directory the exit trap removes). The
# kill-matrix resume test checks a crash mid-service on the shared store.
cargo build -q --release -p mha-bench --bin figures
figures="${CARGO_TARGET_DIR:-target}/release/figures"
expect_usage fig99 "$figures" fig99
expect_usage --smoke "$figures" fig3 --smoke
expect_usage --json "$figures" fig3 --json
expect_usage --json "$figures" --json --quick fig3
"$figures" fault online service redundancy straggler --quick --json "$bench_work/figures" >/dev/null
cargo test -q -p mha-bench --test service_resume
# Degraded-equivalence gate, explicitly: the serial reference and the
# lane core must agree bit-for-bit (counters included) on randomized
# *degraded* redundant replays — replica failover and erasure decode included
# (also inside the sharded_equivalence run above; named to pin the
# redundancy contract).
cargo test -q -p pfs-sim --test sharded_equivalence degraded_redundant
# Scheduler-policy gates, explicitly: SeededShuffle must replay the
# exact pre-scheduler dispatch order, fault-free StragglerAware must be
# bit-identical to it, and the cores must agree under random scheduler
# policies crossed with fault plans (also inside `cargo test -q`;
# named to pin this PR's contract).
cargo test -q -p pfs-sim --test sched_policy
cargo test -q -p pfs-sim --test sharded_equivalence random_sched_policies
# No test, example or study run above may leave a store behind.
if find "$test_tmp" -maxdepth 1 -name 'mha-*' | grep .; then
    echo "error: the runs above left these files in the temp directory" >&2
    exit 1
fi
