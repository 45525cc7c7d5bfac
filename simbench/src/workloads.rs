//! The three benchmark workloads, all under the paper's airtime-fair
//! scheme. See README.md for why each was chosen.

use wifiq_mac::{
    App, Commands, Delivery, NetworkConfig, NodeAddr, Packet, Preset, SchemeKind, WifiNetwork,
};
use wifiq_phy::{AccessCategory, PhyRate};
use wifiq_sim::{Nanos, SimRng};
use wifiq_telemetry::Telemetry;
use wifiq_traffic::{AppMsg, FlowHandle, TrafficApp};

use crate::run::Outcome;

/// Simulated-time layout of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Untimed lead-in (TCP slow start, queues filling).
    pub warmup: Nanos,
    /// The steady window every metric is taken over.
    pub window: Nanos,
    /// Slice length of the traced run (`warmup` is a whole number of
    /// slices).
    pub slice: Nanos,
}

impl Plan {
    pub fn end(&self) -> Nanos {
        self.warmup + self.window
    }
}

/// One benchmark workload: a network configuration plus the traffic
/// that drives it, both made from the seed alone.
pub trait Workload {
    type Msg: Clone + std::fmt::Debug + Send + 'static;
    type App: App<Self::Msg>;

    /// Constructions timed per `setup_s` sample: constructions of a few
    /// milliseconds or less are timed in a batch and divided.
    fn setup_batch(&self) -> usize;

    fn plan(&self, smoke: bool) -> Plan;
    fn config(&self, seed: u64) -> NetworkConfig;
    /// Builds the traffic and seeds its first timers into `net`.
    fn install(&self, seed: u64, net: &mut WifiNetwork<Self::Msg>) -> Self::App;
    fn set_app_telemetry(&self, _app: &mut Self::App, _tele: &Telemetry) {}
    /// The ping-only station, left out of the Jain index.
    fn probe_station(&self) -> usize;
    fn is_ping(msg: &Self::Msg) -> bool;
    /// RTTs (ns) of the pings answered at or after `from`.
    fn ping_rtts(&self, app: &Self::App, from: Nanos) -> Vec<u64>;
    /// Workload-specific sanity bounds on the simulated outcome.
    fn check(&self, _app: &Self::App, _out: &Outcome) -> Result<(), String> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// thirty_tcp_ping: the fig09/10 testbed.

/// The 30-station testbed of the paper's Figures 9 and 10: 1 Mbps
/// legacy station 0, bulk TCP downloads to stations 0–28, pings to the
/// sparse station 29, the slow station and bulk station 1.
pub struct ThirtyTcpPing;

const SPARSE30: usize = 29;
/// Ping flows in `TrafficApp` order: sparse station 29, slow station 0,
/// bulk station 1.
const PINGS30: [usize; 3] = [SPARSE30, 0, 1];

impl Workload for ThirtyTcpPing {
    type Msg = AppMsg;
    type App = TrafficApp;

    fn setup_batch(&self) -> usize {
        200
    }

    fn plan(&self, smoke: bool) -> Plan {
        let (warmup, window) = if smoke { (2, 8) } else { (5, 80) };
        Plan {
            warmup: Nanos::from_secs(warmup),
            window: Nanos::from_secs(window),
            slice: Nanos::from_millis(100),
        }
    }

    fn config(&self, seed: u64) -> NetworkConfig {
        NetworkConfig::builder()
            .preset(Preset::Testbed30)
            .scheme(SchemeKind::AirtimeFair)
            .seed(seed)
            .build()
    }

    fn install(&self, seed: u64, net: &mut WifiNetwork<AppMsg>) -> TrafficApp {
        let mut app = TrafficApp::with_seed(seed);
        for sta in PINGS30 {
            app.add_ping(sta, Nanos::ZERO);
        }
        for sta in 0..SPARSE30 {
            app.add_tcp_down(sta, Nanos::ZERO);
        }
        app.install(net);
        app
    }

    fn set_app_telemetry(&self, app: &mut TrafficApp, tele: &Telemetry) {
        app.set_telemetry(tele);
    }

    fn probe_station(&self) -> usize {
        SPARSE30
    }

    fn is_ping(msg: &AppMsg) -> bool {
        matches!(msg, AppMsg::PingReq { .. } | AppMsg::PingRep { .. })
    }

    fn ping_rtts(&self, app: &TrafficApp, from: Nanos) -> Vec<u64> {
        (0..PINGS30.len())
            .flat_map(|h| app.ping(FlowHandle(h)).rtts_after(from))
            .map(|rtt| rtt.as_nanos())
            .collect()
    }

    fn check(&self, app: &TrafficApp, out: &Outcome) -> Result<(), String> {
        if out.jain < 0.9 {
            return Err(format!("airtime Jain {:.4} < 0.9", out.jain));
        }
        let sparse = app.ping(FlowHandle(0));
        let answered = sparse.rtts.len() as u64;
        if answered * 100 < sparse.sent * 99 {
            return Err(format!(
                "sparse station answered {answered} of {} pings (< 99%)",
                sparse.sent
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The floods: a benchmark-owned seeded generator plus a ping probe.

/// Payload of the flood workloads.
#[derive(Debug, Clone)]
pub enum FloodMsg {
    Data,
    PingReq,
    /// Echo reply carrying the request's creation time.
    PingRep {
        sent: Nanos,
    },
}

const TOK_FLOOD: u64 = 0;
const TOK_PROBE: u64 = 1;
/// The probe's flow id, outside the per-station data flow ids.
const PROBE_FLOW: u64 = 1 << 40;
/// The probe's ping interval (200 Hz, so a window holds well over the
/// 1,000 RTTs a p99 with ten samples beyond it needs).
const PROBE_EVERY: Nanos = Nanos::from_millis(5);
const PING_LEN: u64 = 98;
const MTU: u64 = 1500;
/// Flood packets sent per generator tick.
const BATCH: usize = 8;
/// Stream salt of the generator's RNG (independent of the network's).
const GEN_SALT: u64 = 0xB3AC_4F10;

/// A one-BSS flood workload of fast (MCS15) stations: an open-loop
/// generator sends `BATCH` MTU packets every `tick`, each between the
/// server and a flood station drawn uniformly from the seed, in one
/// direction. The last station carries no flood: the server pings it
/// every 5 ms, voice-marked. A best-effort ping would measure the flood
/// instead: on `downlink_100k` every flood station is itself sparse, so
/// a ping waits behind the whole AP backlog, and on `uplink_1k` a
/// best-effort AP wins about one contention round in 1,024.
#[derive(Clone, Copy)]
pub struct Flood {
    stations: usize,
    uplink: bool,
    tick: Nanos,
    /// Station uplink FIFO depth (packets per access category).
    station_fifo: usize,
    /// Constructions per `setup_s` sample.
    setup_batch: usize,
    /// Warm-up and window seconds: full run, then smoke run.
    secs: [(u64, u64); 2],
    /// Traced-run slice; long enough that the backlog scan between
    /// slices stays cheap next to the run.
    slice: Nanos,
}

/// 100,000 stations flooded downlink at about 192 Mbps (8 MTU packets
/// every 500 µs): setup-dominated, one-frame aggregates, no station
/// contention.
pub const DOWNLINK_100K: Flood = Flood {
    stations: 100_000,
    uplink: false,
    tick: Nanos::from_micros(500),
    station_fifo: 1000,
    setup_batch: 1,
    secs: [(2, 10), (1, 2)],
    slice: Nanos::from_millis(500),
};

/// 1,024 stations, every flood station backlogged on uplink (8 MTU
/// packets offered per ms against an 8-packet station FIFO, so each
/// FIFO stays full and delay reflects contention, not the window's
/// length): contention-dominated, the AP path nearly idle.
pub const UPLINK_1K: Flood = Flood {
    stations: 1024,
    uplink: true,
    tick: Nanos::from_millis(1),
    station_fifo: 8,
    setup_batch: 64,
    secs: [(2, 40), (1, 3)],
    slice: Nanos::from_millis(100),
};

/// The flood generator's state.
pub struct FloodApp {
    spec: Flood,
    rng: SimRng,
    next_id: u64,
    /// `(arrival, RTT)` of every answered ping.
    rtts: Vec<(Nanos, Nanos)>,
}

impl FloodApp {
    fn send(
        &mut self,
        cmds: &mut Commands<FloodMsg>,
        src: NodeAddr,
        dst: NodeAddr,
        flow: u64,
        now: Nanos,
        payload: FloodMsg,
    ) {
        let (len, ac) = match payload {
            FloodMsg::Data => (MTU, AccessCategory::Be),
            _ => (PING_LEN, AccessCategory::Vo),
        };
        self.next_id += 1;
        cmds.send(Packet {
            id: self.next_id,
            src,
            dst,
            flow,
            len,
            ac,
            created: now,
            enqueued: now,
            payload,
        });
    }
}

impl App<FloodMsg> for FloodApp {
    fn on_packet(
        &mut self,
        at: Delivery,
        pkt: Packet<FloodMsg>,
        now: Nanos,
        cmds: &mut Commands<FloodMsg>,
    ) {
        match (pkt.payload, at) {
            (FloodMsg::PingReq, Delivery::AtStation(i)) => {
                let reply = FloodMsg::PingRep { sent: pkt.created };
                self.send(
                    cmds,
                    NodeAddr::Station(i),
                    NodeAddr::Server,
                    PROBE_FLOW,
                    now,
                    reply,
                );
            }
            (FloodMsg::PingRep { sent }, Delivery::AtServer) => {
                self.rtts.push((now, now.saturating_sub(sent)));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, token: u64, now: Nanos, cmds: &mut Commands<FloodMsg>) {
        let spec = self.spec;
        if token == TOK_PROBE {
            let dst = NodeAddr::Station(spec.probe_station());
            self.send(
                cmds,
                NodeAddr::Server,
                dst,
                PROBE_FLOW,
                now,
                FloodMsg::PingReq,
            );
            cmds.set_timer(TOK_PROBE, now + PROBE_EVERY);
            return;
        }
        for _ in 0..BATCH {
            let sta = self.rng.index(spec.probe_station());
            let (src, dst) = if spec.uplink {
                (NodeAddr::Station(sta), NodeAddr::Server)
            } else {
                (NodeAddr::Server, NodeAddr::Station(sta))
            };
            self.send(cmds, src, dst, sta as u64, now, FloodMsg::Data);
        }
        cmds.set_timer(TOK_FLOOD, now + spec.tick);
    }
}

impl Workload for Flood {
    type Msg = FloodMsg;
    type App = FloodApp;

    fn setup_batch(&self) -> usize {
        self.setup_batch
    }

    fn plan(&self, smoke: bool) -> Plan {
        let (warmup, window) = self.secs[usize::from(smoke)];
        Plan {
            warmup: Nanos::from_secs(warmup),
            window: Nanos::from_secs(window),
            slice: self.slice,
        }
    }

    fn config(&self, seed: u64) -> NetworkConfig {
        NetworkConfig::builder()
            .stations_at(self.stations, PhyRate::fast_station())
            .scheme(SchemeKind::AirtimeFair)
            .station_fifo_limit(self.station_fifo)
            .seed(seed)
            .build()
    }

    fn install(&self, seed: u64, net: &mut WifiNetwork<FloodMsg>) -> FloodApp {
        net.seed_timer(TOK_FLOOD, Nanos::ZERO);
        net.seed_timer(TOK_PROBE, Nanos::from_millis(1));
        FloodApp {
            spec: *self,
            rng: SimRng::stream(seed, GEN_SALT),
            next_id: 0,
            rtts: Vec::new(),
        }
    }

    /// Stations `0..probe` carry the flood; the last one is the probe.
    fn probe_station(&self) -> usize {
        self.stations - 1
    }

    fn is_ping(msg: &FloodMsg) -> bool {
        !matches!(msg, FloodMsg::Data)
    }

    fn ping_rtts(&self, app: &FloodApp, from: Nanos) -> Vec<u64> {
        app.rtts
            .iter()
            .filter(|(at, _)| *at >= from)
            .map(|(_, rtt)| rtt.as_nanos())
            .collect()
    }
}
