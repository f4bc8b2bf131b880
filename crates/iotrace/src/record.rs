//! The trace record schema.

use simrt::SimTime;
use storage_model::IoOp;

/// MPI rank of the issuing process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rank(pub u32);

/// Identifier of a logical file within a trace (the collector maps file
/// descriptors to stable ids at record time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

/// Identifier of a tenant in a multi-tenant layout service. Tenant 0 is
/// the implicit single-tenant namespace: every legacy file id already
/// lives there, so single-tenant flows are bit-identical with or without
/// tenancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

impl FileId {
    /// Bits reserved for the tenant-local file id. The high
    /// `32 - TENANT_SHIFT` bits carry the tenant, so one shared MDS /
    /// DRT key space holds every tenant's files without collisions.
    pub const TENANT_SHIFT: u32 = 24;

    /// The local id `local` inside `tenant`'s namespace.
    ///
    /// # Panics
    /// If `local` already carries tenant bits or `tenant` does not fit
    /// the high bits (at most `2^8 - 1` tenants).
    pub fn with_tenant(tenant: TenantId, local: FileId) -> FileId {
        assert!(
            local.0 < (1 << Self::TENANT_SHIFT),
            "local file id {} overflows the tenant-local namespace",
            local.0
        );
        assert!(
            tenant.0 < (1 << (32 - Self::TENANT_SHIFT)),
            "tenant id {} does not fit the tenant bits",
            tenant.0
        );
        FileId((tenant.0 << Self::TENANT_SHIFT) | local.0)
    }

    /// The tenant this id belongs to (0 for legacy / single-tenant ids).
    pub fn tenant(self) -> TenantId {
        TenantId(self.0 >> Self::TENANT_SHIFT)
    }

    /// The id within its tenant's namespace.
    pub fn local(self) -> FileId {
        FileId(self.0 & ((1 << Self::TENANT_SHIFT) - 1))
    }
}

/// One file operation, as captured by the IOSIG-like collector.
///
/// This mirrors the information the paper lists in §III-C: process ID, MPI
/// rank, file descriptor, request type, file offset, request size, and
/// time stamp. We additionally materialize the I/O `phase`: requests that
/// the application issues simultaneously (one per rank in a parallel I/O
/// call) share a phase, which is what the paper's "request concurrency"
/// feature counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated OS process id of the issuer.
    pub pid: u32,
    /// MPI rank of the issuer.
    pub rank: Rank,
    /// Logical file the request targets.
    pub file: FileId,
    /// Read or write.
    pub op: IoOp,
    /// Byte offset within the file.
    pub offset: u64,
    /// Request length in bytes.
    pub len: u64,
    /// Issue timestamp.
    pub ts: SimTime,
    /// I/O phase index: requests issued concurrently share a phase.
    pub phase: u32,
}

impl TraceRecord {
    /// One-past-the-end byte of the request.
    #[inline]
    pub(crate) fn end(&self) -> u64 {
        self.offset + self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(file: u32, offset: u64, len: u64) -> TraceRecord {
        TraceRecord {
            pid: 1,
            rank: Rank(0),
            file: FileId(file),
            op: IoOp::Read,
            offset,
            len,
            ts: SimTime::ZERO,
            phase: 0,
        }
    }

    #[test]
    fn end_is_exclusive() {
        assert_eq!(rec(0, 10, 5).end(), 15);
    }

    #[test]
    fn tenant_zero_is_the_identity_namespace() {
        let f = FileId(12345);
        assert_eq!(FileId::with_tenant(TenantId(0), f), f);
        assert_eq!(f.tenant(), TenantId(0));
        assert_eq!(f.local(), f);
    }

    #[test]
    fn tenant_namespaces_round_trip_and_never_collide() {
        let a = FileId::with_tenant(TenantId(3), FileId(7));
        let b = FileId::with_tenant(TenantId(7), FileId(3));
        assert_ne!(a, b);
        assert_eq!(a.tenant(), TenantId(3));
        assert_eq!(a.local(), FileId(7));
        assert_eq!(b.tenant(), TenantId(7));
        assert_eq!(b.local(), FileId(3));
    }

    #[test]
    #[should_panic(expected = "overflows the tenant-local namespace")]
    fn tenant_bits_in_local_id_rejected() {
        FileId::with_tenant(TenantId(1), FileId(1 << FileId::TENANT_SHIFT));
    }
}
