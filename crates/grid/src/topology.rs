//! Hosts, sites and network links: the testbeds of the paper's
//! experiments, scaled to simulation units.
//!
//! Scaling conventions (documented in DESIGN.md):
//!
//! * **speed** is in solver work-units per simulated second; the paper's
//!   fastest dedicated node (a UTK cluster machine) is the reference at
//!   1000 units/s.
//! * **memory** is in model bytes as charged by the solver's clause
//!   database; 3 MB corresponds to the ~1 GB of a well-provisioned 2003
//!   host, so the paper's 128 MB join-minimum scales to ~0.4 MB.
//! * **links**: message sizes are model bytes too, so bandwidths are
//!   scaled to make a full split transfer (hundreds of model KB) take the
//!   tens-to-hundreds of seconds the paper reports for its 100s-of-MB
//!   messages.

use gridsat_nws::TraceConfig;

/// Identifies a node (host) in a testbed. The master is a node too.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Geographic site; links within a site are LAN, across sites WAN.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Site {
    Utk,
    Uiuc,
    Ucsd,
    Ucsb,
    BlueHorizon,
    /// Synthetic site for scaling studies beyond the paper's five real
    /// locations (`Testbed::scaling` builds grids of hundreds of these).
    Grid(u16),
}

/// Static description of one host.
#[derive(Clone, Debug)]
pub struct HostSpec {
    pub name: String,
    pub site: Site,
    /// Peak compute speed, work units per simulated second.
    pub speed: f64,
    /// Total memory in model bytes.
    pub memory: usize,
    /// Background-load model (None = dedicated).
    pub load: Option<TraceConfig>,
    /// Simulated seconds after experiment start when the host comes up
    /// (batch nodes join late).
    pub up_at: f64,
    /// Simulated second when the host goes away (`f64::INFINITY` = never).
    pub down_at: f64,
    /// Host runs a site sub-master (hierarchical control plane) instead
    /// of a solver client.
    pub broker: bool,
}

impl HostSpec {
    pub fn new(name: impl Into<String>, site: Site, speed: f64, memory: usize) -> HostSpec {
        HostSpec {
            name: name.into(),
            site,
            speed,
            memory,
            load: Some(TraceConfig::default()),
            up_at: 0.0,
            down_at: f64::INFINITY,
            broker: false,
        }
    }

    pub fn dedicated(mut self) -> HostSpec {
        self.load = None;
        self
    }

    pub fn as_broker(mut self) -> HostSpec {
        self.broker = true;
        self
    }

    pub fn with_window(mut self, up_at: f64, down_at: f64) -> HostSpec {
        self.up_at = up_at;
        self.down_at = down_at;
        self
    }
}

/// Link parameters between two nodes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    pub latency_s: f64,
    pub bandwidth_bytes_per_s: f64,
}

impl Link {
    /// Transfer time for a message of `bytes`.
    pub fn transfer_time(&self, bytes: usize) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bytes_per_s
    }
}

/// Network model: LAN within a site, WAN across sites.
#[derive(Clone, Copy, Debug)]
pub struct NetModel {
    pub lan: Link,
    pub wan: Link,
}

impl Default for NetModel {
    fn default() -> Self {
        NetModel {
            lan: Link {
                latency_s: 0.001,
                bandwidth_bytes_per_s: 40_000.0,
            },
            wan: Link {
                latency_s: 0.070,
                bandwidth_bytes_per_s: 4_000.0,
            },
        }
    }
}

impl NetModel {
    pub fn link(&self, a: Site, b: Site) -> Link {
        if a == b {
            self.lan
        } else {
            self.wan
        }
    }
}

/// A complete testbed: hosts (index = NodeId) plus the network model.
/// By convention node 0 is the master's host.
#[derive(Clone, Debug)]
pub struct Testbed {
    pub hosts: Vec<HostSpec>,
    pub net: NetModel,
    /// Base RNG seed for per-host load traces.
    pub load_seed: u64,
}

impl Testbed {
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Worker node ids (everything but the master at index 0).
    pub fn workers(&self) -> impl Iterator<Item = NodeId> + '_ {
        (1..self.hosts.len() as u32).map(NodeId)
    }

    fn shared(name: String, site: Site, speed: f64, memory: usize, mean_avail: f64) -> HostSpec {
        HostSpec {
            load: Some(TraceConfig {
                mean_availability: mean_avail,
                ..TraceConfig::default()
            }),
            ..HostSpec::new(name, site, speed, memory)
        }
    }

    /// The paper's first experiment testbed (Section 4): 34 shared hosts
    /// over three sites — two UTK clusters (one with "the best hardware
    /// configuration"), two UIUC clusters (one of slow 250 MHz PIIs with
    /// little memory), 8 UCSD desktops — plus the master's host at UCSD.
    pub fn grads() -> Testbed {
        let mut hosts = vec![HostSpec::new("master@ucsd", Site::Ucsd, 500.0, 3 << 20).dedicated()];
        for i in 0..8 {
            hosts.push(Self::shared(
                format!("utk-a{i}"),
                Site::Utk,
                1000.0,
                3 << 20,
                0.9,
            ));
        }
        for i in 0..6 {
            hosts.push(Self::shared(
                format!("utk-b{i}"),
                Site::Utk,
                700.0,
                5 << 19,
                0.85,
            ));
        }
        for i in 0..6 {
            hosts.push(Self::shared(
                format!("uiuc-a{i}"),
                Site::Uiuc,
                600.0,
                2 << 20,
                0.85,
            ));
        }
        for i in 0..6 {
            // the slow, poorly-provisioned cluster removed in experiment 2
            hosts.push(Self::shared(
                format!("uiuc-b{i}"),
                Site::Uiuc,
                250.0,
                1 << 20,
                0.8,
            ));
        }
        for i in 0..8 {
            hosts.push(Self::shared(
                format!("ucsd-{i}"),
                Site::Ucsd,
                500.0,
                3 << 19,
                0.75,
            ));
        }
        assert_eq!(hosts.len(), 35); // 34 workers + master
        Testbed {
            hosts,
            net: NetModel::default(),
            load_seed: 0x61d,
        }
    }

    /// The paper's second experiment testbed: a 16-node UIUC cluster,
    /// 3 UCSD desktops and 8 UCSB desktops (27 interactive hosts, slow
    /// machines removed), plus the master.
    pub fn set2() -> Testbed {
        let mut hosts = vec![HostSpec::new("master@ucsb", Site::Ucsb, 500.0, 3 << 20).dedicated()];
        for i in 0..16 {
            hosts.push(Self::shared(
                format!("uiuc-c{i}"),
                Site::Uiuc,
                800.0,
                5 << 19,
                0.9,
            ));
        }
        for i in 0..3 {
            hosts.push(Self::shared(
                format!("ucsd-{i}"),
                Site::Ucsd,
                500.0,
                3 << 19,
                0.8,
            ));
        }
        for i in 0..8 {
            hosts.push(Self::shared(
                format!("ucsb-{i}"),
                Site::Ucsb,
                600.0,
                2 << 20,
                0.85,
            ));
        }
        assert_eq!(hosts.len(), 28); // 27 workers + master
        Testbed {
            hosts,
            net: NetModel::default(),
            load_seed: 0x61d2,
        }
    }

    /// Append Blue Horizon batch nodes: `nodes` dedicated, fast,
    /// well-provisioned hosts that come up at `up_at` and leave at
    /// `up_at + window`. We model each 8-CPU node as one client; the
    /// 8 CPUs enter the processor-hour arithmetic only.
    pub fn with_blue_horizon(mut self, nodes: usize, up_at: f64, window: f64) -> Testbed {
        for i in 0..nodes {
            self.hosts.push(
                HostSpec::new(format!("bh-{i}"), Site::BlueHorizon, 1200.0, 4 << 20)
                    .dedicated()
                    .with_window(up_at, up_at + window),
            );
        }
        self
    }

    /// A synthetic scaling testbed: the root master alone on `Grid(0)`,
    /// `clients` dedicated solver hosts round-robined across `sites`
    /// synthetic sites, and — when `brokers` is true — one dedicated
    /// sub-master host per site placed right after the root. Every
    /// client-to-root hop crosses the WAN; client-to-sub-master hops
    /// stay on the site LAN, which is what the hierarchical control
    /// plane exploits.
    pub fn scaling(clients: usize, sites: usize, brokers: bool) -> Testbed {
        assert!(sites >= 1 && sites <= u16::MAX as usize);
        let mut hosts = vec![HostSpec::new("root", Site::Grid(0), 1000.0, 3 << 20).dedicated()];
        if brokers {
            for s in 0..sites {
                hosts.push(
                    HostSpec::new(format!("sm{s}"), Site::Grid(s as u16 + 1), 1000.0, 3 << 20)
                        .dedicated()
                        .as_broker(),
                );
            }
        }
        for i in 0..clients {
            let site = Site::Grid((i % sites) as u16 + 1);
            hosts.push(HostSpec::new(format!("c{i}"), site, 1000.0, 3 << 20).dedicated());
        }
        Testbed {
            hosts,
            net: NetModel::default(),
            load_seed: 0x5ca1e,
        }
    }

    /// Rescale every solver host's speed, leaving the root and any
    /// brokers at full tilt. Slow clients model commodity grid nodes:
    /// each cube occupies its host longer, so demand outruns capacity
    /// and the control plane — not solver throughput — becomes the
    /// bottleneck under test.
    pub fn with_client_speed(mut self, speed: f64) -> Testbed {
        for h in self.hosts.iter_mut().skip(1) {
            if !h.broker {
                h.speed = speed;
            }
        }
        self
    }

    /// A small uniform testbed for tests and examples.
    pub fn uniform(workers: usize, speed: f64, memory: usize) -> Testbed {
        let mut hosts = vec![HostSpec::new("master", Site::Ucsd, speed, memory).dedicated()];
        for i in 0..workers {
            hosts.push(HostSpec::new(format!("w{i}"), Site::Ucsd, speed, memory).dedicated());
        }
        Testbed {
            hosts,
            net: NetModel::default(),
            load_seed: 7,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grads_testbed_shape() {
        let t = Testbed::grads();
        assert_eq!(t.num_hosts(), 35);
        assert_eq!(t.workers().count(), 34);
        // the best cluster is UTK at reference speed
        let fastest = t.hosts.iter().map(|h| h.speed).fold(0.0, f64::max);
        assert_eq!(fastest, 1000.0);
        // the slow UIUC cluster is present
        assert!(t
            .hosts
            .iter()
            .any(|h| h.speed == 250.0 && h.memory == 1 << 20));
    }

    #[test]
    fn set2_testbed_shape() {
        let t = Testbed::set2();
        assert_eq!(t.workers().count(), 27);
        // no 250 MHz machines in set 2
        assert!(t.hosts.iter().all(|h| h.speed >= 500.0));
        let bh = t.with_blue_horizon(100, 118_800.0, 43_200.0);
        assert_eq!(bh.workers().count(), 127);
        let node = bh.hosts.last().unwrap();
        assert_eq!(node.site, Site::BlueHorizon);
        assert_eq!(node.up_at, 118_800.0);
        assert_eq!(node.down_at, 162_000.0);
        assert!(node.load.is_none(), "batch nodes run dedicated");
    }

    #[test]
    fn site_membership_by_testbed() {
        // every paper testbed keeps each host on exactly one known site,
        // and cluster naming matches its site assignment
        for t in [Testbed::grads(), Testbed::set2()] {
            for h in &t.hosts {
                let prefix_ok = match h.site {
                    Site::Utk => h.name.starts_with("utk"),
                    Site::Uiuc => h.name.starts_with("uiuc"),
                    Site::Ucsd => h.name.starts_with("ucsd") || h.name.contains("@ucsd"),
                    Site::Ucsb => h.name.starts_with("ucsb") || h.name.contains("@ucsb"),
                    Site::BlueHorizon => h.name.starts_with("bh"),
                    Site::Grid(_) => false,
                };
                assert!(prefix_ok, "{} on {:?}", h.name, h.site);
                assert!(!h.broker, "paper testbeds have no sub-masters");
            }
        }
        // grads spans exactly three sites
        let sites: std::collections::HashSet<_> =
            Testbed::grads().hosts.iter().map(|h| h.site).collect();
        assert_eq!(sites.len(), 3);
    }

    #[test]
    fn intra_vs_inter_site_latency() {
        let net = NetModel::default();
        // synthetic grid sites obey the same LAN/WAN rule as real ones
        assert_eq!(net.link(Site::Grid(3), Site::Grid(3)), net.lan);
        assert_eq!(net.link(Site::Grid(3), Site::Grid(4)), net.wan);
        assert_eq!(net.link(Site::Grid(1), Site::Ucsd), net.wan);
        assert!(net.lan.latency_s < net.wan.latency_s);
        // transfer time is monotone in message size on both link classes
        for link in [net.lan, net.wan] {
            assert!(link.transfer_time(2_000) > link.transfer_time(1_000));
        }
    }

    #[test]
    fn scaling_testbed_shape() {
        let flat = Testbed::scaling(100, 8, false);
        assert_eq!(flat.num_hosts(), 101);
        assert!(flat.hosts.iter().all(|h| !h.broker));
        // root is alone on Grid(0): all client traffic to it is WAN
        assert!(flat.hosts[1..].iter().all(|h| h.site != Site::Grid(0)));

        let hier = Testbed::scaling(100, 8, true);
        assert_eq!(hier.num_hosts(), 109);
        assert_eq!(hier.hosts.iter().filter(|h| h.broker).count(), 8);
        // sub-masters occupy nodes 1..=8, one per site
        for s in 0..8u16 {
            let h = &hier.hosts[1 + s as usize];
            assert!(h.broker);
            assert_eq!(h.site, Site::Grid(s + 1));
        }
        // each site holds the same ±1 number of clients
        let mut per_site = std::collections::HashMap::new();
        for h in hier.hosts.iter().filter(|h| !h.broker).skip(1) {
            *per_site.entry(h.site).or_insert(0usize) += 1;
        }
        assert_eq!(per_site.len(), 8);
        assert!(per_site.values().all(|&n| n == 12 || n == 13));
        // every host is dedicated so scaling runs are deterministic
        assert!(hier.hosts.iter().all(|h| h.load.is_none()));
    }

    #[test]
    fn client_speed_rescale_spares_the_control_plane() {
        let tb = Testbed::scaling(20, 4, true).with_client_speed(250.0);
        // root and the four brokers keep full speed
        assert_eq!(tb.hosts[0].speed, 1000.0);
        for h in tb.hosts.iter().filter(|h| h.broker) {
            assert_eq!(h.speed, 1000.0);
        }
        // every solver host slows down
        for h in tb.hosts[1..].iter().filter(|h| !h.broker) {
            assert_eq!(h.speed, 250.0);
        }
    }

    #[test]
    fn link_selection_and_transfer_time() {
        let net = NetModel::default();
        assert_eq!(net.link(Site::Utk, Site::Utk), net.lan);
        assert_eq!(net.link(Site::Utk, Site::Ucsd), net.wan);
        // a 400 model-KB split over WAN takes on the order of 100 s,
        // like the paper's 100s-of-MB messages
        let t = net.wan.transfer_time(400 << 10);
        assert!(t > 60.0 && t < 200.0, "{t}");
        // LAN is much faster
        assert!(net.lan.transfer_time(400 << 10) < t / 5.0);
    }
}
