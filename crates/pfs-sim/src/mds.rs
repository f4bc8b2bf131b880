//! Metadata server: file → layout mapping with lookup-cost accounting.
//!
//! In OrangeFS a client contacts the metadata service at open to fetch a
//! file's distribution before talking to data servers directly; MHA adds
//! its Region Stripe Table on the same node (§III-G). We model the MDS as
//! a map plus a FIFO service queue so heavy open traffic queues up.
//!
//! The table is sharded by tenant: file ids carry their tenant in the
//! high bits ([`iotrace::FileId::with_tenant`]), and each tenant's
//! `(file, layout)` rows live in their own sorted shard with their own
//! last-hit cursor, so one tenant's registration churn never invalidates
//! another's cursor locality. All legacy ids belong to tenant 0 — a
//! single-tenant MDS behaves bit-identically to the pre-sharded one.
//! The service *queue* stays shared: there is one metadata node, and
//! tenants contend on it exactly as clients contend in OrangeFS.

use crate::error::ReplayError;
use crate::layout::LayoutSpec;
use iotrace::{FileId, TenantId};
use simrt::{FifoResource, SimDuration, SimTime};
use std::cell::Cell;

/// Builder for a [`MetadataServer`] with validated defaults.
#[derive(Debug, Clone)]
pub(crate) struct MdsConfig {
    default_layout: LayoutSpec,
    lookup_cost: SimDuration,
}

impl MdsConfig {
    /// Configuration serving `default_layout` for files without an
    /// explicit entry. The lookup cost defaults to 300 µs — an OrangeFS
    /// getattr round trip on Gigabit Ethernet.
    pub(crate) fn new(default_layout: LayoutSpec) -> Self {
        MdsConfig { default_layout, lookup_cost: SimDuration::from_micros(300) }
    }

    /// Per-lookup service time charged through the MDS queue.
    #[must_use]
    pub(crate) fn lookup_cost(mut self, cost: SimDuration) -> Self {
        self.lookup_cost = cost;
        self
    }

    /// Build the server. Fails with [`ReplayError::InvalidCluster`] when
    /// the default layout spans no servers (possible only via a
    /// deserialized spec — every unregistered file would be unreachable)
    /// or the lookup cost exceeds 60 s (almost certainly a unit mixup:
    /// the paper-scale cost is hundreds of microseconds).
    pub(crate) fn build(self) -> Result<MetadataServer, ReplayError> {
        if self.default_layout.servers().count() == 0 {
            return Err(ReplayError::InvalidCluster(
                "MDS default layout must span at least one server".into(),
            ));
        }
        if self.lookup_cost > SimDuration::from_millis(60_000) {
            return Err(ReplayError::InvalidCluster(format!(
                "MDS lookup cost {} exceeds 60 s (milliseconds passed as seconds?)",
                self.lookup_cost
            )));
        }
        Ok(MetadataServer {
            shards: Vec::new(),
            default_layout: self.default_layout,
            lookup_cost: self.lookup_cost,
            queue: FifoResource::new(),
            shard_cursor: Cell::new(usize::MAX),
        })
    }
}

/// One tenant's `(file, layout)` rows, sorted by file id: registration
/// is rare and lookup is hot, so a flat sorted table (binary search over
/// dense memory) beats a `BTreeMap` tree walk. The last-hit cursor is
/// interior-mutable so read-only accessors stay `&self`; replayed traces
/// touch the same file in bursts, collapsing most searches to one
/// comparison.
#[derive(Debug)]
struct Shard {
    tenant: TenantId,
    layouts: Vec<(FileId, LayoutSpec)>,
    cursor: Cell<usize>,
}

/// The metadata server.
pub struct MetadataServer {
    /// Per-tenant shards, sorted by tenant id. Tenant-major order is
    /// also global-file-id order (the tenant sits in the high bits), so
    /// cross-shard iteration yields the same sorted sequence the flat
    /// pre-sharded table did.
    shards: Vec<Shard>,
    default_layout: LayoutSpec,
    lookup_cost: SimDuration,
    queue: FifoResource,
    /// Last-hit shard index (most traffic streaks within one tenant).
    shard_cursor: Cell<usize>,
}

impl MetadataServer {
    /// The shard holding `tenant`'s rows, if any.
    fn shard(&self, tenant: TenantId) -> Option<&Shard> {
        let c = self.shard_cursor.get();
        if let Some(s) = self.shards.get(c) {
            if s.tenant == tenant {
                return Some(s);
            }
        }
        let i = self.shards.binary_search_by_key(&tenant, |s| s.tenant).ok()?;
        self.shard_cursor.set(i);
        Some(&self.shards[i])
    }

    /// The shard holding `tenant`'s rows, created on first use.
    fn shard_mut(&mut self, tenant: TenantId) -> &mut Shard {
        let i = match self.shards.binary_search_by_key(&tenant, |s| s.tenant) {
            Ok(i) => i,
            Err(i) => {
                self.shards.insert(
                    i,
                    Shard { tenant, layouts: Vec::new(), cursor: Cell::new(usize::MAX) },
                );
                i
            }
        };
        self.shard_cursor.set(i);
        &mut self.shards[i]
    }

    /// Register (or replace) the layout of `file`.
    pub fn set_layout(&mut self, file: FileId, layout: LayoutSpec) {
        let shard = self.shard_mut(file.tenant());
        match shard.layouts.binary_search_by_key(&file, |e| e.0) {
            Ok(i) => shard.layouts[i].1 = layout,
            Err(i) => shard.layouts.insert(i, (file, layout)),
        }
    }

    /// Layout of `file` without charging a lookup (planner-side access).
    pub(crate) fn layout(&self, file: FileId) -> &LayoutSpec {
        match self.shard(file.tenant()).and_then(|s| s.slot(file).map(|i| &s.layouts[i].1)) {
            Some(l) => l,
            None => &self.default_layout,
        }
    }

    /// [`Self::lookup`] without cloning the layout: the replay fast path
    /// borrows the installed spec for the duration of one request instead
    /// of copying its segment table per open. Queue accounting is
    /// identical to [`Self::lookup`].
    pub(crate) fn lookup_ref(&mut self, now: SimTime, file: FileId) -> (&LayoutSpec, SimTime) {
        let done = self.queue.submit(now, self.lookup_cost);
        (self.layout(file), done)
    }

    /// Number of lookups served.
    pub(crate) fn lookups(&self) -> u64 {
        self.queue.served()
    }

    /// `tenant`'s installed `(file, layout)` rows, sorted by file id.
    pub fn tenant_layouts(
        &self,
        tenant: TenantId,
    ) -> impl Iterator<Item = (FileId, &LayoutSpec)> + '_ {
        self.shards
            .iter()
            .filter(move |s| s.tenant == tenant)
            .flat_map(|s| s.layouts.iter().map(|e| (e.0, &e.1)))
    }

    /// Clear queue statistics (keeps layouts).
    pub(crate) fn reset_queue(&mut self) {
        self.queue.reset();
    }
}

impl Shard {
    /// Table row holding `file`, trying the cursor before searching.
    fn slot(&self, file: FileId) -> Option<usize> {
        let c = self.cursor.get();
        if let Some(e) = self.layouts.get(c) {
            if e.0 == file {
                return Some(c);
            }
        }
        let i = self.layouts.binary_search_by_key(&file, |e| e.0).ok()?;
        self.cursor.set(i);
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::ServerId;

    fn mds() -> MetadataServer {
        MdsConfig::new(LayoutSpec::fixed(&[ServerId(0), ServerId(1)], 64 << 10))
            .lookup_cost(SimDuration::from_micros(300))
            .build()
            .unwrap()
    }

    #[test]
    fn default_layout_for_unknown_files() {
        let m = mds();
        assert_eq!(m.layout(FileId(7)).round_size(), 128 << 10);
    }

    #[test]
    fn builder_defaults_and_validation() {
        let m = MdsConfig::new(LayoutSpec::fixed(&[ServerId(0)], 4 << 10)).build().unwrap();
        let done = {
            let mut m = m;
            m.lookup_ref(SimTime::ZERO, FileId(0)).1
        };
        assert_eq!(done.as_nanos(), 300_000, "default lookup cost is 300 µs");
    }

    #[test]
    fn explicit_layout_overrides_default() {
        let mut m = mds();
        m.set_layout(FileId(1), LayoutSpec::fixed(&[ServerId(0)], 4 << 10));
        assert_eq!(m.layout(FileId(1)).round_size(), 4 << 10);
        assert_eq!(m.layout(FileId(2)).round_size(), 128 << 10);
        let rows: Vec<(FileId, u64)> =
            m.tenant_layouts(TenantId(0)).map(|(f, l)| (f, l.round_size())).collect();
        assert_eq!(rows, vec![(FileId(1), 4 << 10)]);
    }

    #[test]
    fn cursor_survives_arbitrary_access_order() {
        // Register out of order, then read in patterns that alternately
        // hit and miss the last-hit cursor; every answer must match the
        // registration, and unknown files must still get the default.
        let mut m = mds();
        for f in [9u32, 3, 7, 1, 5] {
            m.set_layout(FileId(f), LayoutSpec::fixed(&[ServerId(0)], u64::from(f) << 10));
        }
        for f in [1u32, 1, 5, 3, 9, 9, 7, 1, 5, 5, 3] {
            assert_eq!(m.layout(FileId(f)).round_size(), u64::from(f) << 10, "file {f}");
        }
        assert_eq!(m.layout(FileId(4)).round_size(), 128 << 10, "default for unknown");
        assert_eq!(m.layout(FileId(5)).round_size(), 5 << 10, "cursor valid after miss");
        // Replacement through the sorted table keeps ordering intact.
        m.set_layout(FileId(5), LayoutSpec::fixed(&[ServerId(1)], 77 << 10));
        assert_eq!(m.layout(FileId(5)).round_size(), 77 << 10);
        assert_eq!(m.tenant_layouts(TenantId(0)).count(), 5);
    }

    #[test]
    fn lookups_serialize_and_cost_time() {
        let mut m = mds();
        let t1 = m.lookup_ref(SimTime::ZERO, FileId(0)).1;
        let t2 = m.lookup_ref(SimTime::ZERO, FileId(0)).1;
        assert_eq!(t1.as_nanos(), 300_000);
        assert_eq!(t2.as_nanos(), 600_000);
        assert_eq!(m.lookups(), 2);
        m.reset_queue();
        assert_eq!(m.lookups(), 0);
    }

    #[test]
    fn tenant_shards_isolate_same_local_id() {
        let mut m = mds();
        let a = FileId::with_tenant(TenantId(1), FileId(42));
        let b = FileId::with_tenant(TenantId(2), FileId(42));
        m.set_layout(a, LayoutSpec::fixed(&[ServerId(0)], 4 << 10));
        m.set_layout(b, LayoutSpec::fixed(&[ServerId(1)], 8 << 10));
        assert_eq!(m.layout(a).round_size(), 4 << 10);
        assert_eq!(m.layout(b).round_size(), 8 << 10);
        // The other tenant's local 42 (tenant 0) still gets the default.
        assert_eq!(m.layout(FileId(42)).round_size(), 128 << 10);
        assert_eq!(m.tenant_layouts(TenantId(1)).count(), 1);
        assert_eq!(m.tenant_layouts(TenantId(2)).count(), 1);
        assert_eq!(m.tenant_layouts(TenantId(3)).count(), 0);
    }

    #[test]
    fn cross_tenant_iteration_is_global_id_order() {
        let mut m = mds();
        let ids = [
            FileId::with_tenant(TenantId(2), FileId(1)),
            FileId(9),
            FileId::with_tenant(TenantId(1), FileId(700)),
            FileId(3),
            FileId::with_tenant(TenantId(1), FileId(2)),
        ];
        for f in ids {
            m.set_layout(f, LayoutSpec::fixed(&[ServerId(0)], 4 << 10));
        }
        let got: Vec<FileId> =
            (0..3).flat_map(|t| m.tenant_layouts(TenantId(t)).map(|(f, _)| f)).collect();
        let mut want = ids.to_vec();
        want.sort();
        assert_eq!(got, want, "tenant-major order equals global file-id order");
    }

    #[test]
    fn interleaved_tenant_access_keeps_per_shard_cursors_honest() {
        let mut m = mds();
        for t in 0..4u32 {
            for f in [2u32, 5, 8] {
                m.set_layout(
                    FileId::with_tenant(TenantId(t), FileId(f)),
                    LayoutSpec::fixed(&[ServerId(0)], u64::from(t * 100 + f) << 10),
                );
            }
        }
        // Ping-pong across tenants: every probe must resolve within its
        // own shard despite constant shard-cursor churn.
        for (t, f) in [(0u32, 2u32), (3, 8), (1, 5), (1, 2), (3, 2), (0, 8), (2, 5), (2, 5)] {
            let got = m.layout(FileId::with_tenant(TenantId(t), FileId(f)));
            assert_eq!(got.round_size(), u64::from(t * 100 + f) << 10, "tenant {t} file {f}");
        }
    }

    #[test]
    fn absurd_lookup_cost_rejected() {
        let err = MdsConfig::new(LayoutSpec::fixed(&[ServerId(0)], 64 << 10))
            .lookup_cost(SimDuration::from_millis(90_000))
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("exceeds 60 s"), "{err}");
    }
}
