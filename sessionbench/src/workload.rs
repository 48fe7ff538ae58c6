//! The three workloads: their seeded inputs, set-up, and the measured
//! loop that drives the stack through `Fabric::run_round` or the
//! `ServeEngine` submission path.
//!
//! Every run splits its results in two. *Simulated* metrics
//! ([`SimMetrics`]) come from a fixed deterministic prefix of the work
//! (the first `sim_units` rounds or tickets) and repeat exactly for a
//! seed; *host* metrics ([`HostMetrics`]) time everything the run
//! executed.

use milback::batch::derive_seed;
use milback::net::{ap_line, net_roster, Fabric, NetConfig, RoundReport};
use milback::serve::{
    roster, Outcome, Resolution, ServeConfig, ServeEngine, ServeReport, SessionRequest,
    TrafficConfig, TrafficSchedule, Workload,
};
use milback::session::FailureKind;
use milback::{Fidelity, Network};
use milback_rf::geometry::{Point, Pose};
use std::time::{Duration, Instant};

use crate::host::{median, quantile, ratio};

/// Localization fixes further than this from the truth count as gross
/// errors and fail a `serve_localize` run.
const GROSS_RANGE_ERR_M: f64 = 0.5;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 48-node, 2-AP fabric with drift and parked-neighbour
    /// interference, §15 mix, 2 workers.
    FabricDense,
    /// 6-node serving, localize-only, clean, offered load 0.75, inline.
    ServeLocalize,
    /// 6-node serving, payload-heavy, faulted, adaptive, offered load
    /// 1.5, 2 workers.
    ServePayloadFaults,
}

impl Kind {
    pub const ALL: [Kind; 3] = [
        Kind::FabricDense,
        Kind::ServeLocalize,
        Kind::ServePayloadFaults,
    ];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::FabricDense => "fabric_dense",
            Kind::ServeLocalize => "serve_localize",
            Kind::ServePayloadFaults => "serve_payload_faults",
        }
    }
}

/// Size of one workload instance. [`Spec::full`] is what the benchmark
/// runs; tests shrink it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub kind: Kind,
    pub nodes: usize,
    pub threads: usize,
    /// Rounds (fabric) or tickets (serve) in the deterministic prefix
    /// the simulated metrics are computed over.
    pub sim_units: usize,
}

impl Spec {
    pub fn full(kind: Kind) -> Spec {
        match kind {
            Kind::FabricDense => Spec {
                kind,
                nodes: 48,
                threads: 2,
                sim_units: 6,
            },
            Kind::ServeLocalize => Spec {
                kind,
                nodes: 6,
                threads: 1,
                sim_units: 600,
            },
            Kind::ServePayloadFaults => Spec {
                kind,
                nodes: 6,
                threads: 2,
                sim_units: 300,
            },
        }
    }

    /// The same workload at `threads` workers.
    pub fn with_threads(self, threads: usize) -> Spec {
        Spec { threads, ..self }
    }
}

/// The fabric policy of `fabric_dense`: paper defaults (§15 mix, 16 B
/// payloads, three parked interferers) plus 0.15 m drift per round.
fn net_config() -> NetConfig {
    NetConfig {
        drift_step_m: 0.15,
        interference: true,
        max_interferers: 3,
        adaptive: false,
        ..NetConfig::milback(Fidelity::Fast)
    }
}

/// Serving policy: the §15 engine defaults (16-deep buffer, 30 ms
/// virtual service, one virtual worker), adaptive on for the faulted
/// workload.
fn serve_config(kind: Kind) -> ServeConfig {
    ServeConfig {
        adaptive: kind == Kind::ServePayloadFaults,
        ..ServeConfig::milback()
    }
}

/// Traffic of the serve workloads. Offered load = rate × 30 ms ÷ 1
/// virtual worker: 0.75 and 1.5.
fn traffic(kind: Kind, nodes: usize, sessions: usize) -> TrafficConfig {
    match kind {
        Kind::ServePayloadFaults => TrafficConfig {
            nodes,
            sessions,
            rate_hz: 50.0,
            localize_fraction: 0.2,
            uplink_fraction: 0.7,
            payload_len: 16,
            fault_intensity: 0.5,
        },
        _ => TrafficConfig {
            nodes,
            sessions,
            rate_hz: 25.0,
            localize_fraction: 1.0,
            uplink_fraction: 0.0,
            payload_len: 16,
            fault_intensity: 0.0,
        },
    }
}

/// Requests generated per serve run: far more than a run can execute,
/// so the measured loop is bounded by time, never by the schedule.
const SCHEDULE_LEN: usize = 100_000;

/// The serve warm-up epoch: every node once per service class the
/// workload uses, on a clean channel, one second apart so nothing is
/// shed. Its composition does not depend on the seed, which keeps
/// `setup_s` comparable across seeds.
fn warmup_schedule(kind: Kind, nodes: usize, master_seed: u64) -> TrafficSchedule {
    let classes: &[Workload] = match kind {
        Kind::ServePayloadFaults => &[Workload::Localize, Workload::Downlink, Workload::Uplink],
        _ => &[Workload::Localize],
    };
    let requests = classes
        .iter()
        .flat_map(|&workload| (0..nodes).map(move |node| (node, workload)))
        .enumerate()
        .map(|(i, (node, workload))| SessionRequest {
            node,
            arrival_s: i as f64,
            workload,
            payload_len: 16,
            intensity: 0.0,
        })
        .collect();
    TrafficSchedule {
        master_seed,
        requests,
    }
}

/// Seed of every workload's node roster: the deployment is fixed. A
/// seed-drawn roster would add the spread between deployments (how many
/// of the 48 fabric nodes are weak border nodes) to every figure, which
/// swamps the host-speed changes the benchmark exists to show.
pub const ROSTER_SEED: u64 = 1;

/// Master seed of the fabric's traffic. A fabric round draws each
/// node's session class from `(master, round, node)`, and a round with
/// more uplink slots costs up to 1.5x more host time, so a seed-drawn
/// master spreads `sessions_per_s` by ±25% across seeds from the class
/// mix alone. The fabric therefore keeps one traffic pattern and the
/// seed permutes which roster pose each node slot occupies: every run
/// serves the same deployment with the same class mix per round, while
/// the pairing of poses with session classes, drift offsets and channel
/// noise streams changes with the seed.
pub const FABRIC_MASTER: u64 = 0xFAB5_EED5;

/// Fisher–Yates shuffle of `v`, driven by `seed`.
fn permute<T>(v: &mut [T], seed: u64) {
    for i in (1..v.len()).rev() {
        let j = (derive_seed(seed, i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// A workload's inputs, a pure function of `(spec, seed)`.
#[derive(Debug, Clone, PartialEq)]
pub enum Inputs {
    Fabric {
        aps: Vec<Point>,
        poses: Vec<Pose>,
        master: u64,
    },
    Serve {
        poses: Vec<Pose>,
        warmup: TrafficSchedule,
        schedule: TrafficSchedule,
    },
}

impl Inputs {
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        match spec.kind {
            Kind::FabricDense => {
                let aps = ap_line(2, 4.0);
                let mut poses = net_roster(spec.nodes, &aps, ROSTER_SEED);
                permute(&mut poses, derive_seed(seed, 1));
                Inputs::Fabric {
                    aps,
                    poses,
                    master: FABRIC_MASTER,
                }
            }
            kind => {
                let len = SCHEDULE_LEN.max(spec.sim_units);
                Inputs::Serve {
                    poses: roster(spec.nodes, ROSTER_SEED),
                    warmup: warmup_schedule(kind, spec.nodes, derive_seed(seed, 3)),
                    schedule: TrafficSchedule::generate(
                        &traffic(kind, spec.nodes, len),
                        derive_seed(seed, 2),
                    ),
                }
            }
        }
    }

    /// Node poses (global frame for the fabric).
    pub fn poses(&self) -> &[Pose] {
        match self {
            Inputs::Fabric { poses, .. } | Inputs::Serve { poses, .. } => poses,
        }
    }
}

/// A constructed, warmed system under test.
pub enum System {
    Fabric(Box<Fabric>),
    Serve(Box<ServeEngine>),
}

/// Builds the system and runs its warm-up pass (one fabric round, or
/// one short serving epoch). The time this takes is `setup_s`.
pub fn setup(spec: &Spec, inputs: &Inputs) -> System {
    match inputs {
        Inputs::Fabric { aps, poses, master } => {
            let mut fabric = Fabric::new(aps, poses, net_config());
            fabric.reseed(*master);
            fabric.run_round(spec.threads);
            System::Fabric(Box::new(fabric))
        }
        Inputs::Serve { poses, warmup, .. } => {
            let mut engine = ServeEngine::new(poses, serve_config(spec.kind));
            engine.serve_schedule(warmup, spec.threads);
            System::Serve(Box::new(engine))
        }
    }
}

/// Simulated results of the deterministic prefix. Exact for a seed:
/// compared bitwise across runs, traced vs untraced, and thread counts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimMetrics {
    /// Sessions (fabric slots or serve tickets) in the prefix.
    pub sessions: u64,
    pub delivered_ratio: f64,
    pub fix_ratio: f64,
    pub failed_ratio: f64,
    /// Serve only (fabric poses drift privately, so there is no truth).
    pub range_err_p50_cm: f64,
    pub range_err_p95_cm: f64,
    /// Fabric only.
    pub goodput_kbps: f64,
    pub airtime_ms_per_session: f64,
    pub overrun_ratio: f64,
    pub handoffs_per_round: f64,
    pub overruns_per_round: f64,
    /// Serve only.
    pub shed_ratio: f64,
    pub field2_shed_ratio: f64,
    pub reject_ratio: f64,
    pub mode_attempts_per_session: f64,
    pub payload_attempts_per_session: f64,
    /// FNV-1a over the prefix's per-session records.
    pub digest: u64,
}

/// Wall-clock results of everything a run executed.
#[derive(Debug, Clone, Default)]
pub struct HostMetrics {
    /// Sessions executed in the measured loop (warm-up excluded).
    pub sessions: u64,
    /// Requests submitted (serve) or slots scheduled (fabric).
    pub submitted: u64,
    /// Benchmark-timed wall of the measured loop, seconds.
    pub wall_s: f64,
    /// Per-session latency median and tail, ms (see README).
    pub p50_ms: f64,
    pub p99_ms: f64,
    /// Samples behind the latency figures.
    pub latency_samples: u64,
    /// Fabric rounds or serve drains dispatched.
    pub dispatches: u64,
    /// Serve: 1 − Σ session latency ÷ (drain wall × workers).
    pub overhead_frac: f64,
    /// Fabric: mean `run_round` wall, seconds.
    pub round_s: f64,
    /// Heap acquisitions during the measured loop.
    pub allocs: u64,
    /// Fabric: wall of each measured round, seconds, and its uplink
    /// slots (the dominant per-session cost).
    pub round_walls: Vec<(f64, u32)>,
}

/// Outcome of one measured run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub sim: SimMetrics,
    pub host: HostMetrics,
    /// Correctness failures; empty when every check passed.
    pub errors: Vec<String>,
    /// Requests that never reached a valid terminal resolution.
    pub unresolved: u64,
}

#[inline]
fn fnv(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
}

const FNV_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Runs the measured loop on a warmed system for at least `budget` and
/// at least the spec's prefix, then checks and aggregates the results.
pub fn measure(spec: &Spec, inputs: &Inputs, sys: &mut System, budget: Duration) -> RunResult {
    match (sys, inputs) {
        (System::Fabric(f), Inputs::Fabric { .. }) => measure_fabric(spec, f, budget),
        (
            System::Serve(e),
            Inputs::Serve {
                poses, schedule, ..
            },
        ) => measure_serve(spec, e, poses, schedule, budget),
        _ => unreachable!("system and inputs come from the same spec"),
    }
}

/// Restarts a warmed system at the start of its measured work: the
/// fabric is re-keyed and its warm-up round replayed, so the next round
/// is round 1 again. The serve engine needs nothing (`measure` begins
/// a fresh epoch).
pub fn rewind(spec: &Spec, inputs: &Inputs, sys: &mut System) {
    if let (System::Fabric(f), Inputs::Fabric { master, .. }) = (sys, inputs) {
        f.reseed(*master);
        f.run_round(spec.threads);
    }
}

fn measure_fabric(spec: &Spec, fabric: &mut Fabric, budget: Duration) -> RunResult {
    let n = fabric.nodes();
    let mut errors = Vec::new();
    let mut sim = SimMetrics::default();
    let mut host = HostMetrics::default();
    let mut per_session_ms = Vec::new();
    let (mut delivered, mut fixes, mut f2_attempts, mut completed) = (0u64, 0u64, 0u64, 0u64);
    let (mut bits, mut schedule_s, mut airtime_s) = (0u64, 0.0f64, 0.0f64);
    let (mut overruns, mut handoffs) = (0u64, 0u64);
    let mut digest = FNV_INIT;
    let mut wall = Duration::ZERO;
    let a0 = crate::host::allocs();
    let mut rounds = 0usize;
    while rounds < spec.sim_units || wall < budget {
        let t0 = Instant::now();
        let report: RoundReport = fabric.run_round(spec.threads);
        let dt = t0.elapsed();
        wall += dt;
        rounds += 1;
        per_session_ms.push(dt.as_secs_f64() * 1e3 * spec.threads as f64 / n as f64);
        if report.sessions != n {
            errors.push(format!(
                "round {}: {} sessions for {n} nodes",
                report.round, report.sessions
            ));
        }
        // One outcome per node, in node order, adding up to the report.
        let mut uplinks = 0;
        let mut sums = [0u64; 5];
        for i in 0..n {
            let o = fabric.outcome(i);
            uplinks += (o.workload == Workload::Uplink) as u32;
            if o.node != i {
                errors.push(format!(
                    "round {}: slot {i} holds node {}",
                    report.round, o.node
                ));
            }
            for (sum, v) in sums.iter_mut().zip([
                o.completed as u64,
                o.delivered as u64,
                (o.fix_range_bits != u64::MAX) as u64,
                o.overrun as u64,
                u64::from(o.delivered_bits),
            ]) {
                *sum += v;
            }
            if rounds > spec.sim_units {
                continue;
            }
            let localize = o.workload == Workload::Localize;
            delivered += o.delivered as u64;
            completed += o.completed as u64;
            fixes += (o.fix_range_bits != u64::MAX) as u64;
            f2_attempts += (localize || o.completed) as u64;
            airtime_s += o.airtime_s;
        }
        let want = [
            report.completed as u64,
            report.delivered as u64,
            report.fixes as u64,
            report.overruns as u64,
            report.delivered_bits,
        ];
        if sums != want {
            errors.push(format!(
                "round {}: outcomes sum to {sums:?}, report says {want:?}",
                report.round
            ));
        }
        host.round_walls.push((dt.as_secs_f64(), uplinks));
        if rounds <= spec.sim_units {
            bits += report.delivered_bits;
            schedule_s += report.round_airtime_s;
            overruns += report.overruns as u64;
            handoffs += report.handoffs as u64;
            digest = fnv(digest, report.digest);
        }
    }
    host.allocs = crate::host::allocs() - a0;
    let sessions = (spec.sim_units * n) as f64;
    sim.sessions = sessions as u64;
    sim.delivered_ratio = delivered as f64 / sessions;
    sim.fix_ratio = ratio(fixes as f64, f2_attempts as f64);
    sim.failed_ratio = (sessions - completed as f64) / sessions;
    sim.goodput_kbps = ratio(bits as f64, schedule_s) / 1e3;
    sim.airtime_ms_per_session = airtime_s * 1e3 / sessions;
    sim.overrun_ratio = overruns as f64 / sessions;
    sim.overruns_per_round = overruns as f64 / spec.sim_units as f64;
    sim.handoffs_per_round = handoffs as f64 / spec.sim_units as f64;
    sim.digest = digest;

    host.sessions = (rounds * n) as u64;
    host.submitted = host.sessions;
    host.wall_s = wall.as_secs_f64();
    host.dispatches = rounds as u64;
    host.round_s = host.wall_s / rounds as f64;
    host.latency_samples = rounds as u64;
    host.p99_ms = quantile(&mut per_session_ms, 0.99);
    host.p50_ms = median(&mut per_session_ms);
    RunResult {
        sim,
        host,
        errors,
        unresolved: 0,
    }
}

fn measure_serve(
    spec: &Spec,
    engine: &mut ServeEngine,
    poses: &[Pose],
    schedule: &TrafficSchedule,
    budget: Duration,
) -> RunResult {
    let mut errors = Vec::new();
    let threads = spec.threads;
    // The body of `ServeEngine::serve_schedule`, with the submission
    // loop bounded by time instead of by the schedule's end.
    let a0 = crate::host::allocs();
    let t0 = Instant::now();
    engine.begin_epoch(schedule.master_seed);
    let mut submitted = 0usize;
    for &req in &schedule.requests {
        if submitted >= spec.sim_units && t0.elapsed() >= budget {
            break;
        }
        engine.submit(req, threads);
        submitted += 1;
    }
    engine.drain(threads);
    let report: ServeReport = engine.report();
    let wall_s = t0.elapsed().as_secs_f64();
    let allocs = crate::host::allocs() - a0;

    // Exactly-once resolution of every ticket, in ticket order.
    let res = engine.resolutions();
    let mut unresolved = submitted.abs_diff(res.len()) as u64;
    if res.len() != submitted {
        errors.push(format!(
            "{} resolutions for {submitted} submitted tickets",
            res.len()
        ));
    }
    for (i, r) in res.iter().enumerate() {
        if r.ticket != i || !r.resolved() {
            unresolved += 1;
            if errors.len() < 8 {
                errors.push(format!(
                    "ticket {i}: {:?} (ticket field {})",
                    r.outcome, r.ticket
                ));
            }
        }
    }
    if report.submitted != submitted {
        errors.push(format!(
            "report counts {} submitted, benchmark submitted {submitted}",
            report.submitted
        ));
    }

    let truth: Vec<f64> = poses
        .iter()
        .map(|&p| Network::new(p, serve_config(spec.kind).fidelity, 0).true_range())
        .collect();
    let sim = serve_sim(
        spec,
        &res[..spec.sim_units.min(res.len())],
        &truth,
        &mut errors,
    );

    let executed = (report.completed + report.failed) as u64;
    let workers = threads.max(1) as f64;
    let busy_s = report.mean_latency_us * executed as f64 / 1e6;
    let host = HostMetrics {
        sessions: executed,
        submitted: submitted as u64,
        wall_s,
        p50_ms: report.p50_latency_us / 1e3,
        p99_ms: report.p99_latency_us / 1e3,
        latency_samples: executed,
        dispatches: submitted.div_ceil(serve_config(spec.kind).queue_capacity) as u64,
        overhead_frac: 1.0 - ratio(busy_s, report.wall_s * workers),
        round_s: 0.0,
        allocs,
        round_walls: Vec::new(),
    };
    RunResult {
        sim,
        host,
        errors,
        unresolved,
    }
}

/// Simulated metrics of a serve prefix. `truth` holds each node's true
/// range; fixes beyond [`GROSS_RANGE_ERR_M`] on the clean localize
/// workload are reported as errors.
fn serve_sim(
    spec: &Spec,
    prefix: &[Resolution],
    truth: &[f64],
    errors: &mut Vec<String>,
) -> SimMetrics {
    let n = prefix.len() as f64;
    let mut m = SimMetrics {
        sessions: prefix.len() as u64,
        ..SimMetrics::default()
    };
    let (mut delivered, mut fixes, mut f2_attempts) = (0u64, 0u64, 0u64);
    let (mut failed, mut shed, mut rejected, mut f2_shed) = (0u64, 0u64, 0u64, 0u64);
    let (mut exchanges, mut mode_attempts, mut payload_attempts) = (0u64, 0u64, 0u64);
    let mut errs_cm = Vec::new();
    let mut digest = FNV_INIT;
    for r in prefix {
        let executed = matches!(r.outcome, Outcome::Completed | Outcome::Failed(_));
        let localize = r.workload == Workload::Localize;
        delivered += r.delivered as u64;
        f2_shed += r.shed as u64;
        match r.outcome {
            Outcome::Failed(_) => failed += 1,
            Outcome::Shed => shed += 1,
            Outcome::Rejected => rejected += 1,
            _ => {}
        }
        if executed && localize {
            f2_attempts += 1;
        }
        if r.outcome == Outcome::Completed && !localize && !r.shed {
            f2_attempts += 1;
        }
        if executed && !localize {
            exchanges += 1;
            mode_attempts += u64::from(r.mode_attempts);
            payload_attempts += u64::from(r.payload_attempts);
        }
        if r.fix_range_bits != u64::MAX {
            fixes += 1;
            let err_m = (f64::from_bits(r.fix_range_bits) - truth[r.node]).abs();
            if spec.kind == Kind::ServeLocalize && (err_m.is_nan() || err_m > GROSS_RANGE_ERR_M) {
                errors.push(format!(
                    "ticket {}: fix {:.3} m off the true range {:.3} m",
                    r.ticket, err_m, truth[r.node]
                ));
            }
            errs_cm.push(err_m * 100.0);
        }
        let outcome = match r.outcome {
            Outcome::Pending => 0,
            Outcome::Completed => 1,
            Outcome::Failed(FailureKind::ModeDetect) => 2,
            Outcome::Failed(FailureKind::Payload) => 3,
            Outcome::Shed => 4,
            Outcome::Rejected => 5,
        };
        for w in [
            r.node as u64,
            r.node_seq as u64,
            outcome,
            r.shed as u64,
            u64::from(r.mode_attempts),
            u64::from(r.payload_attempts),
            u64::from(r.chirps_used),
            u64::from(r.degradations),
            r.delivered as u64,
            r.fix_range_bits,
        ] {
            digest = fnv(digest, w);
        }
    }
    m.delivered_ratio = ratio(delivered as f64, n);
    m.fix_ratio = ratio(fixes as f64, f2_attempts as f64);
    m.failed_ratio = ratio((failed + shed + rejected) as f64, n);
    m.shed_ratio = ratio(shed as f64, n);
    m.field2_shed_ratio = ratio(f2_shed as f64, n);
    m.reject_ratio = ratio(rejected as f64, n);
    m.mode_attempts_per_session = ratio(mode_attempts as f64, exchanges as f64);
    m.payload_attempts_per_session = ratio(payload_attempts as f64, exchanges as f64);
    m.range_err_p95_cm = quantile(&mut errs_cm, 0.95);
    m.range_err_p50_cm = median(&mut errs_cm);
    m.digest = digest;
    m
}
