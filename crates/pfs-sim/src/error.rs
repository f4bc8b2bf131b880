//! Replay/session error type: every failure mode the session API can
//! report instead of panicking.

use storage_model::DeviceKind;

/// Why a replay (or the setup leading to it) could not run.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// A layout or fault plan referenced a server the cluster does not
    /// have.
    UnknownServer {
        /// Offending server index.
        server: usize,
        /// Number of servers in the cluster.
        servers: usize,
    },
    /// The cluster configuration itself is unusable.
    InvalidCluster(String),
    /// A fault plan targeted a server index outside the cluster.
    FaultTargetOutOfRange {
        /// Offending server index.
        server: usize,
        /// Number of servers in the cluster.
        servers: usize,
    },
    /// A fault plan's slowdown or link factor is not finite or is below
    /// 1 (see `simrt::FaultKind::bad_factor`).
    InvalidFaultFactor {
        /// Target server index.
        server: usize,
        /// The rejected factor.
        factor: f64,
    },
    /// A degraded-device profile was applied to the wrong medium (e.g.
    /// the worn-SSD profile on an HDD-backed server).
    ProfileMismatch {
        /// Target server index.
        server: usize,
        /// Profile name (see `simrt::DeviceProfile::name`).
        profile: &'static str,
        /// The medium actually backing the server.
        kind: DeviceKind,
    },
    /// A streaming payload was paired with `CoreSel::Serial`: the serial
    /// reference loop needs the whole trace materialized, so streams run
    /// only on the lane core (`CoreSel::Auto` or `CoreSel::Sharded`).
    StreamRequiresSharded,
    /// The session's [`simrt::SchedPolicy`] carries out-of-range knobs
    /// (see `SchedPolicy::validate`); the string is the reason.
    InvalidSchedPolicy(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::UnknownServer { server, servers } => {
                write!(f, "unknown server {server} (cluster has {servers})")
            }
            ReplayError::InvalidCluster(msg) => write!(f, "{msg}"),
            ReplayError::FaultTargetOutOfRange { server, servers } => write!(
                f,
                "fault plan targets server {server}, but the cluster has only {servers}"
            ),
            ReplayError::InvalidFaultFactor { server, factor } => write!(
                f,
                "fault plan slows server {server} by {factor}; a factor must be finite and ≥ 1"
            ),
            ReplayError::ProfileMismatch { server, profile, kind } => write!(
                f,
                "device profile {profile} does not fit server {server} (backed by {kind:?})"
            ),
            ReplayError::StreamRequiresSharded => write!(
                f,
                "a streaming payload cannot run on the serial reference core; use CoreSel::Auto or Sharded"
            ),
            ReplayError::InvalidSchedPolicy(reason) => {
                write!(f, "invalid scheduling policy: {reason}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_format_with_context() {
        let e = ReplayError::FaultTargetOutOfRange { server: 9, servers: 8 };
        assert!(e.to_string().contains('9') && e.to_string().contains('8'));
        let e = ReplayError::ProfileMismatch {
            server: 2,
            profile: "worn-ssd",
            kind: DeviceKind::Hdd,
        };
        assert!(e.to_string().contains("worn-ssd"));
        let e = ReplayError::InvalidCluster("cluster needs at least one server".into());
        assert_eq!(e.to_string(), "cluster needs at least one server");
    }
}
