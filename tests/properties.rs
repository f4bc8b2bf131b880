//! Seeded property tests on the core data structures and invariants,
//! spanning crates. Every property runs a fixed number of cases, case
//! `i` drawing its inputs from a generator seeded with `i`; a failing
//! case prints its seed.

use mha::mha_core::region::{Drt, DrtEntry, Rst};
use mha::mha_core::rssd::StripePair;
use mha::mha_core::{CostParams, ReqView};
use mha::pfs_sim::{LayoutSpec, ServerId};
use mha::storage_model::IoOp;
use mha::simrt::rng::{SeedSeq, SmallRng};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Cases per property unless the property says otherwise.
const CASES: u64 = 256;

/// Run `property` on `cases` seeded generators, naming the seed of the
/// first case that fails.
fn check(name: &str, cases: u64, property: impl Fn(&mut SmallRng)) {
    for seed in 0..cases {
        let mut rng = SeedSeq::new(seed).rng();
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut rng))) {
            eprintln!("{name}: failing seed {seed}");
            resume_unwind(panic);
        }
    }
}

/// 1..=6 HServers with stripe h, 0..=4 SServers with stripe s, both
/// stripes positive.
fn random_layout(rng: &mut SmallRng) -> LayoutSpec {
    let m = rng.gen_range(1usize..=6);
    let h = rng.gen_range(1u64..=64);
    let n = rng.gen_range(0usize..=4);
    let s = rng.gen_range(1u64..=128);
    let hs: Vec<ServerId> = (0..m).map(ServerId).collect();
    let ss: Vec<ServerId> = (m..m + n).map(ServerId).collect();
    LayoutSpec::hybrid(&hs, h * 1024, &ss, s * 1024)
}

fn paper_params(m: usize, n: usize) -> CostParams {
    CostParams {
        m,
        n,
        t: 1.0 / 117.0e6,
        alpha_h: 12.7e-3,
        beta_h: 1.0 / 90.0e6,
        alpha_sr: 80.0e-6,
        beta_sr: 1.0 / 700.0e6,
        alpha_sw: 170.0e-6,
        beta_sw: 1.0 / 450.0e6,
    }
}

/// map_extent partitions any extent exactly: lengths sum to the request
/// and there are no zero-length pieces.
#[test]
fn striping_partitions_extents() {
    check("striping_partitions_extents", CASES, |rng| {
        let layout = random_layout(rng);
        let offset = rng.gen_range(0u64..(1 << 30));
        let len = rng.gen_range(0u64..(8 << 20));
        let subs = layout.map_extent(offset, len);
        let total: u64 = subs.iter().map(|s| s.len).sum();
        assert_eq!(total, len);
        assert!(subs.iter().all(|s| s.len > 0));
    });
}

/// Mapping a contiguous file prefix yields dense, non-overlapping
/// per-server objects (each server's pieces tile [0, share)).
#[test]
fn striping_server_objects_are_dense() {
    check("striping_server_objects_are_dense", CASES, |rng| {
        let layout = random_layout(rng);
        let rounds = rng.gen_range(1u64..20);
        let len = layout.round_size() * rounds;
        let mut per_server: std::collections::BTreeMap<ServerId, Vec<(u64, u64)>> =
            Default::default();
        for s in layout.map_extent(0, len) {
            per_server.entry(s.server).or_default().push((s.server_offset, s.len));
        }
        for (server, mut spans) in per_server {
            spans.sort_unstable();
            let mut cursor = 0;
            for (o, l) in spans {
                assert_eq!(o, cursor);
                cursor = o + l;
            }
            assert_eq!(cursor, layout.stripe_of(server) * rounds);
        }
    });
}

/// per_server_load agrees with map_extent.
#[test]
fn per_server_load_matches_map() {
    check("per_server_load_matches_map", CASES, |rng| {
        let layout = random_layout(rng);
        let offset = rng.gen_range(0u64..(1 << 26));
        let len = rng.gen_range(1u64..(4 << 20));
        let loads = layout.per_server_load(offset, len);
        let total: u64 = loads.iter().map(|(_, b, _)| *b).sum();
        assert_eq!(total, len);
        let runs: u32 = loads.iter().map(|(_, _, r)| *r).sum();
        assert_eq!(runs as usize, layout.map_extent(offset, len).len());
    });
}

/// DRT translation covers any queried extent exactly once, whatever set
/// of non-overlapping entries was inserted.
#[test]
fn drt_translation_partitions_queries() {
    check("drt_translation_partitions_queries", CASES, |rng| {
        let count = rng.gen_range(0usize..40);
        let mut drt = Drt::new();
        let mut cursor = 0u64;
        for i in 0..count {
            // Entries left to right with random gaps: never overlapping.
            let off = cursor + rng.gen_range(0u64..64);
            let len = rng.gen_range(1u64..32);
            cursor = off + len;
            drt.insert(DrtEntry {
                o_file: mha::iotrace::FileId(0),
                o_offset: off,
                r_file: mha::iotrace::FileId(100 + (i as u32 % 5)),
                r_offset: (i as u64) * 4096,
                length: len,
            });
        }
        let query_off = rng.gen_range(0u64..2048);
        let query_len = rng.gen_range(1u64..512);
        let pieces = drt.translate(mha::iotrace::FileId(0), query_off, query_len);
        let total: u64 = pieces.iter().map(|p| p.len).sum();
        assert_eq!(total, query_len);
        assert!(pieces.iter().all(|p| p.len > 0));
    });
}

/// Inserting random (possibly overlapping) entries never corrupts the
/// table: accepted entries stay exactly retrievable.
#[test]
fn drt_insert_accept_reject_is_consistent() {
    check("drt_insert_accept_reject_is_consistent", CASES, |rng| {
        let count = rng.gen_range(1usize..60);
        let mut drt = Drt::new();
        let mut accepted: Vec<DrtEntry> = Vec::new();
        for i in 0..count {
            let e = DrtEntry {
                o_file: mha::iotrace::FileId(0),
                o_offset: rng.gen_range(0u64..256),
                r_file: mha::iotrace::FileId(100),
                r_offset: i as u64 * 128,
                length: rng.gen_range(1u64..64),
            };
            let overlaps_existing = accepted.iter().any(|a| {
                a.o_offset < e.o_offset + e.length && e.o_offset < a.o_offset + a.length
            });
            let inserted = drt.insert(e);
            assert_eq!(inserted, !overlaps_existing);
            if inserted {
                accepted.push(e);
            }
        }
        assert_eq!(drt.len(), accepted.len());
        for a in &accepted {
            let found = drt.lookup_exact(a.o_file, a.o_offset, a.length);
            assert_eq!(found, Some((a.r_file, a.r_offset)));
        }
    });
}

/// The Eq. 2 cost is monotone in request size and strictly positive.
#[test]
fn cost_monotone_and_positive() {
    check("cost_monotone_and_positive", CASES, |rng| {
        let len = rng.gen_range(1u64..(4 << 20));
        let conc = rng.gen_range(1u32..64);
        let h = rng.gen_range(0u64..64) * 4096;
        let s = rng.gen_range(1u64..128) * 4096;
        let params = paper_params(6, 2);
        let small = ReqView { offset: 0, len, op: IoOp::Read, concurrency: conc };
        let big = ReqView { offset: 0, len: len * 2, op: IoOp::Read, concurrency: conc };
        let cs = params.request_cost(&small, h, s);
        let cb = params.request_cost(&big, h, s);
        assert!(cs > 0.0);
        assert!(cb >= cs);
    });
}

/// kvstore: any sequence of puts/deletes replayed after reopen gives the
/// same final map (durability), even if garbage is appended to the log
/// (torn write).
#[test]
fn kvstore_durable_under_ops_and_torn_tail() {
    check("kvstore_durable_under_ops_and_torn_tail", 64, |rng| {
        use std::collections::HashMap;
        let ops: Vec<(u8, u8, bool)> = (0..rng.gen_range(1usize..60))
            .map(|_| (rng.gen_range(0u8..16), rng.gen_range(0u8..4), rng.gen_bool(0.5)))
            .collect();
        let garbage: Vec<u8> =
            (0..rng.gen_range(0usize..24)).map(|_| rng.gen_range(0u8..=255)).collect();
        let path = std::env::temp_dir().join(format!(
            "mha-prop-{}-{:x}",
            std::process::id(),
            ops.len() * 1000 + garbage.len()
        ));
        let _ = std::fs::remove_file(&path);
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        {
            let store = mha::kvstore::Store::open(
                &path,
                mha::kvstore::StoreOptions { sync_on_write: false, ..Default::default() },
            )
            .expect("open");
            for (k, v, is_put) in &ops {
                let key = vec![*k];
                if *is_put {
                    let val = vec![*v; 3];
                    store.put(&key, &val).expect("put");
                    model.insert(key, val);
                } else {
                    store.delete(&key).expect("delete");
                    model.remove(&key);
                }
            }
            store.sync().expect("sync");
        }
        // Torn write at crash.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).expect("append");
            f.write_all(&garbage).expect("garbage");
        }
        let store = mha::kvstore::Store::open_default(&path).expect("reopen");
        assert_eq!(store.len(), model.len());
        for (k, v) in &model {
            let got = store.get(k).expect("get");
            assert_eq!(got.as_deref(), Some(v.as_slice()));
        }
        let _ = std::fs::remove_file(&path);
    });
}

/// Grouping invariants: every point assigned, group ids dense, count
/// bounded by k, deterministic.
#[test]
fn grouping_invariants() {
    check("grouping_invariants", CASES, |rng| {
        use mha::mha_core::{group_requests, GroupingConfig, ReqFeature};
        let count = rng.gen_range(1usize..200);
        let points: Vec<ReqFeature> = (0..count)
            .map(|i| ReqFeature {
                size: rng.gen_range(1u64..(4 << 20)) as f64,
                concurrency: (1 + i % 9) as f64,
            })
            .collect();
        let k = rng.gen_range(1usize..12);
        let cfg = GroupingConfig { k, ..Default::default() };
        let g = group_requests(&points, &cfg);
        assert_eq!(g.assignment.len(), points.len());
        assert!(g.groups() >= 1);
        assert!(g.groups() <= k.max(points.len().min(k)));
        // Dense ids: every group id below groups() appears.
        for gid in 0..g.groups() {
            assert!(g.assignment.contains(&gid), "group {gid} empty");
        }
        // Deterministic.
        let g2 = group_requests(&points, &cfg);
        assert_eq!(g.assignment, g2.assignment);
    });
}

/// WAL scan never panics on arbitrary bytes and never reports a valid
/// length beyond the buffer.
#[test]
fn wal_scan_total_on_garbage() {
    check("wal_scan_total_on_garbage", CASES, |rng| {
        let bytes: Vec<u8> =
            (0..rng.gen_range(0usize..256)).map(|_| rng.gen_range(0u8..=255)).collect();
        let scan = mha::kvstore::wal::scan(&bytes);
        assert!(scan.valid_len as usize <= bytes.len());
        for rec in &scan.records {
            assert!((rec.offset as usize) < bytes.len().max(1));
        }
    });
}

/// Network fabric: transfer completion is monotone in size and never
/// earlier than the start time.
#[test]
fn fabric_transfer_monotone() {
    check("fabric_transfer_monotone", CASES, |rng| {
        use mha::netsim::{LinkParams, NetFabric, NodeId};
        use mha::simrt::SimTime;
        let bytes_a = rng.gen_range(1u64..(1 << 24));
        let extra = rng.gen_range(0u64..(1 << 24));
        let mut f1 = NetFabric::new(2, LinkParams::gigabit_ethernet());
        let mut f2 = NetFabric::new(2, LinkParams::gigabit_ethernet());
        let t0 = SimTime::from_nanos(1000);
        let small = f1.transfer(t0, NodeId(0), NodeId(1), bytes_a);
        let large = f2.transfer(t0, NodeId(0), NodeId(1), bytes_a + extra);
        assert!(small > t0);
        assert!(large >= small);
    });
}

/// HDD service time is monotone in request size at a fixed position and
/// never zero for nonzero requests.
#[test]
fn hdd_service_monotone() {
    check("hdd_service_monotone", CASES, |rng| {
        use mha::storage_model::{Device, HddModel};
        let len = rng.gen_range(1u64..(8 << 20));
        let offset = rng.gen_range(0u64..(100 << 30));
        let mut a = HddModel::sata2_250gb();
        let mut b = HddModel::sata2_250gb();
        let ta = a.service_time(IoOp::Read, offset, len);
        let tb = b.service_time(IoOp::Read, offset, len * 2);
        assert!(ta.as_nanos() > 0);
        assert!(tb >= ta);
    });
}

/// The closed-form decomposition kernel agrees with the map_extent
/// oracle on per-server (bytes, runs) totals for arbitrary layouts and
/// extents (the kernel reports in round order, the oracle in first-touch
/// order — compare as sorted sets).
#[test]
fn closed_form_load_matches_oracle() {
    check("closed_form_load_matches_oracle", CASES, |rng| {
        use mha::pfs_sim::LoadScratch;
        let layout = random_layout(rng);
        let offset = rng.gen_range(0u64..(1 << 26));
        let len = rng.gen_range(0u64..(4 << 20));
        let mut oracle = layout.per_server_load(offset, len);
        oracle.sort_unstable_by_key(|e| e.0);
        let mut scratch = LoadScratch::new();
        layout.per_server_load_into(offset, len, &mut scratch);
        let mut kernel: Vec<_> = scratch.entries().collect();
        kernel.sort_unstable_by_key(|e| e.0);
        assert_eq!(kernel, oracle);
    });
}

/// Branch-and-bound pruning is exact: the pruned search returns the same
/// (pair, cost) — bit-for-bit — as the exhaustive one, across random
/// regions and cluster shapes including the n = 0 (no SServers) and
/// h = 0 (SServers-only winner) extremes.
#[test]
fn pruned_rssd_is_exact() {
    check("pruned_rssd_is_exact", CASES, |rng| {
        use mha::mha_core::{rssd, RssdConfig};
        let (m, n) = loop {
            let (m, n) = (rng.gen_range(0usize..=6), rng.gen_range(0usize..=4));
            if m + n > 0 {
                break (m, n);
            }
        };
        let params = paper_params(m, n);
        let views: Vec<ReqView> = (0..rng.gen_range(1usize..40))
            .map(|i| ReqView {
                offset: i as u64 * 262_144,
                len: rng.gen_range(1u64..=64) * 4096,
                concurrency: rng.gen_range(1u32..10),
                op: if rng.gen_bool(0.5) { IoOp::Read } else { IoOp::Write },
            })
            .collect();
        let pruned = rssd(&views, &params, &RssdConfig::default());
        let plain = rssd(&views, &params, &RssdConfig { pruning: false, ..RssdConfig::default() });
        match (pruned, plain) {
            (Some(a), Some(b)) => {
                assert_eq!(a.pair, b.pair);
                assert_eq!(a.cost.to_bits(), b.cost.to_bits());
                assert_eq!(a.evaluated, b.evaluated, "grid size is prune-independent");
                assert_eq!(b.pruned, 0);
                assert!(a.pruned <= a.evaluated);
            }
            (None, None) => {}
            _ => panic!("pruning changed result presence"),
        }
    });
}

/// RSSD always returns a pair within bounds, on the step grid, with
/// s > h, for any nonempty uniform region.
#[test]
fn rssd_result_well_formed() {
    check("rssd_result_well_formed", CASES, |rng| {
        use mha::mha_core::{rssd, RssdConfig};
        let len = rng.gen_range(1u64..(2 << 20));
        let conc = rng.gen_range(1u32..32);
        let count = rng.gen_range(1usize..24);
        let params = CostParams {
            m: 6,
            n: 2,
            t: 1.0 / 117.0e6,
            alpha_h: 5.0e-3,
            beta_h: 1.1e-8,
            alpha_sr: 1.0e-4,
            beta_sr: 1.4e-9,
            alpha_sw: 2.0e-4,
            beta_sw: 2.2e-9,
        };
        let reqs: Vec<ReqView> = (0..count)
            .map(|i| ReqView { offset: i as u64 * len, len, op: IoOp::Write, concurrency: conc })
            .collect();
        let cfg = RssdConfig::default();
        let r = rssd(&reqs, &params, &cfg).expect("nonempty region");
        assert!(r.cost.is_finite() && r.cost > 0.0);
        assert!(r.pair.s > r.pair.h);
        assert_eq!(r.pair.h % cfg.step, 0);
        assert_eq!(r.pair.s % cfg.step, 0);
    });
}

// ------------------------------------------------- pipeline persistence --

/// Cases per pipeline-persistence property.
const PERSIST_CASES: u64 = 48;

/// Deterministic DRT/RST pair for the durability properties: `salt`
/// varies the content so different cases exercise different byte
/// patterns on disk.
fn persisted_tables(salt: u64) -> (Drt, Rst) {
    let mut drt = Drt::new();
    for i in 0..8u64 {
        assert!(drt.insert(DrtEntry {
            o_file: mha::iotrace::FileId(0),
            o_offset: i * 16384 + salt * 131_072,
            r_file: mha::iotrace::FileId(80_000 + (salt as u32)),
            r_offset: i * 8192,
            length: 4096 + salt * 512,
        }));
    }
    let mut rst = Rst::new();
    rst.set(
        mha::iotrace::FileId(80_000 + (salt as u32)),
        StripePair { h: 4096 * (salt + 1), s: 65_536 * (salt + 1) },
    );
    (drt, rst)
}

/// A single bit flip anywhere in the store file can never smuggle a
/// *different* table past the checksums: reloading yields a structured
/// error, "nothing committed", or the exact committed snapshot — never a
/// partial or mutated table. Recovery stays idempotent on whatever
/// survives.
#[test]
fn persisted_tables_survive_single_bit_flips() {
    check("persisted_tables_survive_single_bit_flips", PERSIST_CASES, |rng| {
        use mha::prelude::{recover, PipelineStore, TenantId};
        let salt = rng.gen_range(0u64..4);
        let flip_pos = rng.gen_range(0usize..4096);
        let flip_bit = rng.gen_range(0u32..8);
        let path = std::env::temp_dir().join(format!(
            "mha-prop-flip-{}-{salt}-{flip_pos}-{flip_bit}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let (drt, rst) = persisted_tables(salt);
        {
            let store = PipelineStore::open(&path).expect("open");
            store.save_tables(&drt, &rst).expect("save");
        }
        // Flip one bit somewhere in the file (position wrapped to size).
        {
            use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
            let mut f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .expect("reopen file");
            let len = f.metadata().expect("meta").len() as usize;
            assert!(len > 0, "a committed save leaves a nonempty log");
            let pos = flip_pos % len;
            let mut byte = [0u8; 1];
            f.seek(SeekFrom::Start(pos as u64)).expect("seek");
            f.read_exact(&mut byte).expect("read");
            byte[0] ^= 1 << flip_bit;
            f.seek(SeekFrom::Start(pos as u64)).expect("seek back");
            f.write_all(&byte).expect("write flipped");
        }
        let store = PipelineStore::open(&path).expect("reopen store");
        match store.load_tables() {
            Err(_) => {}   // structured rejection is a valid outcome
            Ok(None) => {} // the commit record was the casualty
            Ok(Some((d, r))) => {
                // All-or-nothing: only the exact committed snapshot loads.
                assert_eq!(&d, &drt);
                assert_eq!(&r, &rst);
            }
        }
        // Recovery never panics, and recovering twice is recovering once.
        let t0 = store.tenant(TenantId(0));
        if let Ok(first) = recover(t0) {
            let again = recover(t0).expect("recovery is idempotent");
            assert_eq!(again.rolled_forward, 0);
            assert_eq!(
                again.tables.is_some(),
                first.tables.is_some(),
                "second recovery changed table presence"
            );
        }
        let _ = std::fs::remove_file(&path);
    });
}

/// Truncating the store file at any point (a torn final write) falls
/// back to a complete committed generation: with gen A then gen B on
/// disk, every prefix loads exactly B, exactly A, or nothing.
#[test]
fn persisted_tables_survive_truncation() {
    check("persisted_tables_survive_truncation", PERSIST_CASES, |rng| {
        use mha::prelude::PipelineStore;
        let keep_fraction = rng.gen_range(0u64..=100);
        let path = std::env::temp_dir().join(format!(
            "mha-prop-trunc-{}-{keep_fraction}",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let (drt_a, rst_a) = persisted_tables(1);
        let (drt_b, rst_b) = persisted_tables(2);
        {
            let store = PipelineStore::open(&path).expect("open");
            store.save_tables(&drt_a, &rst_a).expect("save gen A");
            store.save_tables(&drt_b, &rst_b).expect("save gen B");
        }
        let full = std::fs::metadata(&path).expect("meta").len();
        let keep = full * keep_fraction / 100;
        {
            let f = std::fs::OpenOptions::new().write(true).open(&path).expect("reopen");
            f.set_len(keep).expect("truncate");
        }
        let store = PipelineStore::open(&path).expect("reopen store");
        match store.load_tables() {
            Ok(None) => {} // truncated before the first commit record
            Ok(Some((d, r))) => {
                let is_b = d == drt_b && r == rst_b;
                let is_a = d == drt_a && r == rst_a;
                assert!(is_a || is_b, "loaded tables match neither generation");
            }
            // A WAL-valid prefix always ends between records, so the
            // envelope layer has a complete generation or none.
            Err(e) => panic!("truncation produced {e}"),
        }
        let _ = std::fs::remove_file(&path);
    });
}
