//! Cluster assembly: servers + fabric + metadata service.

use crate::error::ReplayError;
use crate::layout::{LayoutSpec, ServerId};
use crate::mds::{MdsConfig, MetadataServer};
use crate::server::StorageServer;
use netsim::{LinkParams, NetFabric, NodeId};
use simrt::{DeviceProfile, FaultKind, FaultPlan, SimDuration};
use storage_model::{DeviceKind, HddModel, HddParams, ScaledDevice, SsdModel, SsdParams};

/// Cluster shape and hardware parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of HDD-backed servers.
    pub hservers: usize,
    /// Number of SSD-backed servers.
    pub sservers: usize,
    /// Number of compute (client) nodes.
    pub clients: usize,
    /// HDD model parameters.
    pub hdd: HddParams,
    /// SSD model parameters.
    pub ssd: SsdParams,
    /// NIC parameters (all nodes identical, per the paper's assumption).
    pub link: LinkParams,
    /// Metadata lookup service time.
    pub mds_lookup: SimDuration,
    /// Default stripe size for files without an optimized layout (the
    /// paper's 64 KB default).
    pub default_stripe: u64,
    /// Number of device-space slots files hash into on each server: each
    /// file's object lives in its own slot (6 GiB apart), so switching
    /// files costs a real head move. More slots spread files further
    /// across the platter; 40 covers a 240 GB usable span, matching the
    /// paper's 250 GB disks.
    pub device_slots: u64,
}

impl ClusterConfig {
    /// The paper's testbed: 6 HServers, 2 SServers, 8 compute nodes,
    /// Gigabit Ethernet, 64 KB default stripe.
    pub fn paper_default() -> Self {
        ClusterConfig {
            hservers: 6,
            sservers: 2,
            clients: 8,
            hdd: HddParams::sata2_250gb(),
            ssd: SsdParams::pcie_100gb(),
            link: LinkParams::gigabit_ethernet(),
            mds_lookup: SimDuration::from_micros(300),
            default_stripe: 64 << 10,
            device_slots: 40,
        }
    }

    /// Same testbed with a different H:S server split (Fig. 10 sweeps
    /// 7h:1s .. 4h:4s).
    pub fn with_ratio(hservers: usize, sservers: usize) -> Self {
        ClusterConfig { hservers, sservers, ..Self::paper_default() }
    }

    /// Total number of file servers.
    pub fn servers(&self) -> usize {
        self.hservers + self.sservers
    }
}

/// An assembled hybrid PFS cluster.
///
/// Fabric node numbering: clients occupy nodes `0..clients`, servers
/// `clients..clients+servers`, and the MDS the final node.
pub struct Cluster {
    config: ClusterConfig,
    servers: Vec<StorageServer>,
    fabric: NetFabric,
    mds: MetadataServer,
    /// Whether a fault plan's device/link faults have been materialized.
    faulted: bool,
}

impl Cluster {
    /// Build a cluster per `config`. Servers `0..hservers` are HServers,
    /// the rest SServers (matching the paper's S0–S5 = H, S6–S7 = S
    /// numbering in Fig. 8).
    ///
    /// # Panics
    /// On a shapeless config (no servers or no clients); use
    /// [`Cluster::try_new`] to get a [`ReplayError`] instead.
    pub fn new(config: ClusterConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`Cluster::new`].
    pub fn try_new(config: ClusterConfig) -> Result<Self, ReplayError> {
        if config.servers() == 0 {
            return Err(ReplayError::InvalidCluster(
                "cluster needs at least one server".into(),
            ));
        }
        if config.clients == 0 {
            return Err(ReplayError::InvalidCluster(
                "cluster needs at least one client".into(),
            ));
        }
        let nodes = config.clients + config.servers() + 1;
        let fabric = NetFabric::new(nodes, config.link);
        let mut servers = Vec::with_capacity(config.servers());
        for i in 0..config.servers() {
            let node = NodeId(config.clients + i);
            let device: storage_model::BoxedDevice = if i < config.hservers {
                Box::new(HddModel::new(config.hdd.clone()))
            } else {
                Box::new(SsdModel::new(config.ssd.clone()))
            };
            servers.push(StorageServer::new(ServerId(i), node, device));
        }
        let all: Vec<ServerId> = (0..config.servers()).map(ServerId).collect();
        let mds = MdsConfig::new(LayoutSpec::fixed(&all, config.default_stripe))
            .lookup_cost(config.mds_lookup)
            .build()?;
        Ok(Cluster { config, servers, fabric, mds, faulted: false })
    }

    /// Materialize the device and link faults of `plan` onto this
    /// cluster: stragglers wrap their device in a
    /// [`storage_model::ScaledDevice`], degraded profiles swap in worn
    /// hardware models, and slow links degrade the server's fabric node.
    /// Temporal faults (outages, permanent loss) are not handled here —
    /// the replay session drives those per sub-request.
    ///
    /// Applying is idempotent per cluster life: sessions check
    /// [`Cluster::faults_applied`] first. [`Cluster::reset`] keeps the
    /// degradation (it models hardware, not queue state).
    pub(crate) fn apply_fault_plan(&mut self, plan: &FaultPlan) -> Result<(), ReplayError> {
        let n = self.servers.len();
        if let Some(max) = plan.max_server() {
            if max >= n {
                return Err(ReplayError::FaultTargetOutOfRange { server: max, servers: n });
            }
        }
        // Validate factors and profile/medium agreement before touching
        // anything, so a failed apply leaves the cluster pristine.
        for f in &plan.faults {
            if let Some(factor) = f.kind.bad_factor() {
                return Err(ReplayError::InvalidFaultFactor { server: f.server, factor });
            }
            if let FaultKind::Degraded { profile } = f.kind {
                let kind = self.servers[f.server].kind();
                let fits = matches!(
                    (profile, kind),
                    (DeviceProfile::WornSsd, DeviceKind::Ssd)
                        | (DeviceProfile::AgedHdd, DeviceKind::Hdd)
                );
                if !fits {
                    return Err(ReplayError::ProfileMismatch {
                        server: f.server,
                        profile: profile.name(),
                        kind,
                    });
                }
            }
        }
        for f in &plan.faults {
            let server = &mut self.servers[f.server];
            match f.kind {
                FaultKind::Slowdown { factor } => {
                    if factor != 1.0 {
                        let inner = server.clone_device();
                        server.set_device(Box::new(ScaledDevice::new(inner, factor)));
                    }
                }
                FaultKind::SlowLink { factor } => {
                    if factor != 1.0 {
                        self.fabric.degrade_node(server.node(), factor);
                    }
                }
                FaultKind::Degraded { profile } => {
                    let device: storage_model::BoxedDevice = match profile {
                        DeviceProfile::WornSsd => {
                            Box::new(SsdModel::new(SsdParams::worn_pcie_100gb()))
                        }
                        DeviceProfile::AgedHdd => {
                            Box::new(HddModel::new(HddParams::aged_sata2_250gb()))
                        }
                    };
                    server.set_device(device);
                }
                FaultKind::Outage { .. } | FaultKind::Down { .. } => {}
            }
        }
        self.faulted = true;
        Ok(())
    }

    /// True once [`Cluster::apply_fault_plan`] has run on this cluster.
    pub(crate) fn faults_applied(&self) -> bool {
        self.faulted
    }

    /// Cluster configuration.
    pub(crate) fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// HServer ids.
    pub fn hserver_ids(&self) -> Vec<ServerId> {
        (0..self.config.hservers).map(ServerId).collect()
    }

    /// SServer ids.
    pub fn sserver_ids(&self) -> Vec<ServerId> {
        (self.config.hservers..self.config.servers()).map(ServerId).collect()
    }

    /// Fabric node of the client with rank `rank` (ranks wrap around the
    /// compute nodes, as when running more processes than nodes).
    pub(crate) fn client_node(&self, rank: u32) -> NodeId {
        NodeId(rank as usize % self.config.clients)
    }

    /// Shared access to the servers (reports).
    pub fn servers(&self) -> &[StorageServer] {
        &self.servers
    }

    /// Mutable pieces for the replay driver: servers, fabric, MDS.
    pub(crate) fn parts_mut(&mut self) -> (&mut [StorageServer], &mut NetFabric, &mut MetadataServer) {
        (&mut self.servers, &mut self.fabric, &mut self.mds)
    }

    /// The metadata server.
    pub fn mds(&self) -> &MetadataServer {
        &self.mds
    }

    /// Mutable metadata server (layout installation).
    pub fn mds_mut(&mut self) -> &mut MetadataServer {
        &mut self.mds
    }

    /// Reset all queues and device state, keeping installed layouts —
    /// start a fresh measurement run on the same configuration.
    pub(crate) fn reset(&mut self) {
        for s in &mut self.servers {
            s.reset();
        }
        self.fabric.reset();
        self.mds.reset_queue();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let c = Cluster::new(ClusterConfig::paper_default());
        assert_eq!(c.servers().len(), 8);
        assert_eq!(c.hserver_ids().len(), 6);
        assert_eq!(c.sserver_ids(), vec![ServerId(6), ServerId(7)]);
        assert_eq!(c.servers()[0].kind(), DeviceKind::Hdd);
        assert_eq!(c.servers()[7].kind(), DeviceKind::Ssd);
    }

    #[test]
    fn node_numbering_is_disjoint() {
        let c = Cluster::new(ClusterConfig::paper_default());
        let client_max = (0..8).map(|r| c.client_node(r).0).max().unwrap();
        let server_min = c.servers().iter().map(|s| s.node().0).min().unwrap();
        assert!(client_max < server_min, "clients and servers share no node");
    }

    #[test]
    fn ranks_wrap_over_clients() {
        let c = Cluster::new(ClusterConfig::paper_default());
        assert_eq!(c.client_node(0), c.client_node(8));
        assert_ne!(c.client_node(0), c.client_node(1));
    }

    #[test]
    fn ratio_builder_changes_split() {
        let c = Cluster::new(ClusterConfig::with_ratio(4, 4));
        assert_eq!(c.hserver_ids().len(), 4);
        assert_eq!(c.sserver_ids().len(), 4);
    }

    #[test]
    fn default_layout_spans_all_servers() {
        let c = Cluster::new(ClusterConfig::paper_default());
        let l = c.mds().layout(iotrace::FileId(0));
        assert_eq!(l.servers().count(), 8);
        assert_eq!(l.round_size(), 8 * (64 << 10));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_cluster_rejected() {
        Cluster::new(ClusterConfig { hservers: 0, sservers: 0, ..ClusterConfig::paper_default() });
    }

    #[test]
    fn try_new_reports_instead_of_panicking() {
        let err = Cluster::try_new(ClusterConfig {
            hservers: 0,
            sservers: 0,
            ..ClusterConfig::paper_default()
        })
        .map(|_| ())
        .unwrap_err();
        assert!(err.to_string().contains("at least one server"));
        let err =
            Cluster::try_new(ClusterConfig { clients: 0, ..ClusterConfig::paper_default() })
                .map(|_| ())
                .unwrap_err();
        assert!(err.to_string().contains("at least one client"));
        assert!(Cluster::try_new(ClusterConfig::paper_default()).is_ok());
    }

    #[test]
    fn fault_plan_materializes_device_and_link_faults() {
        use simrt::{FaultPlan, SimTime};
        use storage_model::IoOp;
        let mut faulted = Cluster::new(ClusterConfig::paper_default());
        let mut clean = Cluster::new(ClusterConfig::paper_default());
        let plan = FaultPlan::none().slow_server(0, 3.0).degraded(7, simrt::DeviceProfile::WornSsd);
        faulted.apply_fault_plan(&plan).unwrap();
        assert!(faulted.faults_applied());
        assert!(!clean.faults_applied());
        // Straggler HServer 0: same request takes 3x.
        let (fs, _, _) = faulted.parts_mut();
        let (cs, _, _) = clean.parts_mut();
        let tf = fs[0].serve(SimTime::ZERO, IoOp::Read, 0, 65536).since(SimTime::ZERO);
        let tc = cs[0].serve(SimTime::ZERO, IoOp::Read, 0, 65536).since(SimTime::ZERO);
        assert!((tf.as_secs_f64() - 3.0 * tc.as_secs_f64()).abs() < 1e-9);
        // Worn SServer 7: writes collapse, reads survive.
        let wf = fs[7].serve(SimTime::ZERO, IoOp::Write, 0, 1 << 20).since(SimTime::ZERO);
        let wc = cs[7].serve(SimTime::ZERO, IoOp::Write, 0, 1 << 20).since(SimTime::ZERO);
        assert!(wf.as_secs_f64() > 2.0 * wc.as_secs_f64(), "wf={wf:?} wc={wc:?}");
    }

    #[test]
    fn fault_plan_survives_reset() {
        use simrt::{FaultPlan, SimTime};
        use storage_model::IoOp;
        let mut c = Cluster::new(ClusterConfig::paper_default());
        c.apply_fault_plan(&FaultPlan::none().slow_server(0, 4.0)).unwrap();
        let before = {
            let (s, _, _) = c.parts_mut();
            s[0].serve(SimTime::ZERO, IoOp::Read, 0, 65536).since(SimTime::ZERO)
        };
        c.reset();
        let after = {
            let (s, _, _) = c.parts_mut();
            s[0].serve(SimTime::ZERO, IoOp::Read, 0, 65536).since(SimTime::ZERO)
        };
        assert_eq!(before.as_nanos(), after.as_nanos(), "degradation is hardware, not state");
        assert!(c.faults_applied());
    }

    #[test]
    fn fault_plan_out_of_range_rejected() {
        use crate::error::ReplayError;
        use simrt::FaultPlan;
        let mut c = Cluster::new(ClusterConfig::paper_default());
        let err = c.apply_fault_plan(&FaultPlan::none().slow_server(8, 2.0)).unwrap_err();
        assert_eq!(err, ReplayError::FaultTargetOutOfRange { server: 8, servers: 8 });
        assert!(!c.faults_applied(), "failed apply leaves the cluster pristine");
    }

    #[test]
    fn bad_fault_factors_are_rejected_before_anything_applies() {
        use crate::error::ReplayError;
        use simrt::{FaultPlan, SimTime};
        use storage_model::IoOp;
        let serve = |c: &mut Cluster| {
            let (s, _, _) = c.parts_mut();
            s[0].serve(SimTime::ZERO, IoOp::Read, 0, 65536).since(SimTime::ZERO)
        };
        let nominal = serve(&mut Cluster::new(ClusterConfig::paper_default()));
        for factor in [f64::NAN, 0.0, -2.0, 0.5] {
            // A good fault ahead of the bad one must not apply either.
            let good = FaultPlan::none().slow_server(0, 3.0);
            for plan in [good.clone().slow_server(1, factor), good.slow_link(1, factor)] {
                let mut c = Cluster::new(ClusterConfig::paper_default());
                match c.apply_fault_plan(&plan) {
                    Err(ReplayError::InvalidFaultFactor { server: 1, factor: got }) => {
                        assert_eq!(got.to_bits(), factor.to_bits());
                    }
                    other => panic!("factor {factor}: expected InvalidFaultFactor, got {other:?}"),
                }
                assert!(!c.faults_applied(), "failed apply leaves the cluster pristine");
                assert_eq!(serve(&mut c), nominal);
            }
        }
        // Factor 1 is nominal speed: accepted, and a no-op.
        let mut c = Cluster::new(ClusterConfig::paper_default());
        c.apply_fault_plan(&FaultPlan::none().slow_server(0, 1.0).slow_link(0, 1.0)).unwrap();
        assert!(c.faults_applied());
        assert_eq!(serve(&mut c), nominal);
        let node = c.servers()[0].node();
        assert_eq!(c.parts_mut().1.node_factor(node), 1.0);
    }

    #[test]
    fn degraded_profile_must_match_medium() {
        use crate::error::ReplayError;
        use simrt::{DeviceProfile, FaultPlan};
        let mut c = Cluster::new(ClusterConfig::paper_default());
        // Server 0 is an HServer; the worn-SSD profile cannot apply.
        let err =
            c.apply_fault_plan(&FaultPlan::none().degraded(0, DeviceProfile::WornSsd)).unwrap_err();
        assert_eq!(
            err,
            ReplayError::ProfileMismatch { server: 0, profile: "worn-ssd", kind: DeviceKind::Hdd }
        );
        // And the aged-HDD profile fits it.
        c.apply_fault_plan(&FaultPlan::none().degraded(0, DeviceProfile::AgedHdd)).unwrap();
        assert!(c.faults_applied());
    }
}
