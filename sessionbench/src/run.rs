//! One benchmark invocation: argument parsing, the untraced run that
//! gives the end-to-end metrics, and the traced run that gives the
//! per-layer metrics.

use milback::batch::derive_seed;
use milback::serve::{TrafficSchedule, Workload};
use milback_rf::geometry::{Point, Pose};
use milback_telemetry as telemetry;
use std::time::{Duration, Instant};

use crate::host::{calib_us, median, peak_rss_mb, ratio};
use crate::json::{result_line, Metric};
use crate::replay::{replay, ReplayItem, STAGES};
use crate::workload::{measure, rewind, setup, Inputs, Kind, RunResult, Spec, System};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Requests (or fabric nodes) the stage replay draws from.
const REPLAY_ITEMS: usize = 12;

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("bad {what} `{value}`");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Kind::parse(&value).ok_or_else(|| bad("workload"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("seed"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("seconds"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(bad("seconds"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("trace")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// What an invocation prints: report lines, then the result line.
#[derive(Debug, Clone)]
pub struct Output {
    pub report: Vec<String>,
    pub metrics: Vec<Metric>,
    pub correct: bool,
    pub result_line: String,
}

/// Runs the full-size workload named by `args`.
pub fn run(args: &Args) -> Output {
    let budget = Duration::from_secs_f64(args.seconds);
    run_spec(&Spec::full(args.workload), args.seed, budget, args.trace)
}

/// Runs one workload instance: the untraced run (end-to-end metrics) or
/// the traced run (per-layer metrics).
pub fn run_spec(spec: &Spec, seed: u64, budget: Duration, trace: bool) -> Output {
    let inputs = Inputs::generate(spec, seed);
    telemetry::set_enabled(false);
    if trace {
        traced(spec, &inputs, budget)
    } else {
        untraced(spec, &inputs, budget)
    }
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Simulated results whose meaning is workload-specific, printed by
/// both runs and reported per-layer by the traced one. A figure a
/// workload cannot measure reads 0 (see README).
fn scoped_figures(r: &RunResult) -> Vec<Metric> {
    let s = &r.sim;
    vec![
        m("failed_ratio", s.failed_ratio, "ratio"),
        m("session_p99_ms", r.host.p99_ms, "ms"),
        m(
            "session.latency_samples",
            r.host.latency_samples as f64,
            "count",
        ),
        m("goodput_kbps", s.goodput_kbps, "kbit/s"),
        m("airtime_ms_per_session", s.airtime_ms_per_session, "ms"),
        m("overrun_ratio", s.overrun_ratio, "ratio"),
        m("range_err_p50_cm", s.range_err_p50_cm, "cm"),
        m("range_err_p95_cm", s.range_err_p95_cm, "cm"),
    ]
}

fn finish(
    kind: Kind,
    mut report: Vec<String>,
    metrics: Vec<Metric>,
    extra: &[Metric],
    errors: &[String],
    attempted: u64,
    failed: u64,
) -> Output {
    let correct = errors.is_empty() && failed == 0 && attempted > 0;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.push(format!(
        "workload {} (host parallelism {cores})",
        kind.name()
    ));
    for x in metrics.iter().chain(extra) {
        report.push(format!(
            "  {:<40} {:>16} {}",
            x.name,
            crate::json::number(x.value),
            x.unit
        ));
    }
    report.push(format!("  ops_attempted {attempted}  ops_failed {failed}"));
    for e in errors {
        report.push(format!("CHECK FAILED: {e}"));
    }
    Output {
        result_line: result_line(correct, attempted, failed, &metrics),
        report,
        metrics,
        correct,
    }
}

/// The untraced run: `SETUP_REPS` timed set-ups, then the measured loop
/// with telemetry off.
fn untraced(spec: &Spec, inputs: &Inputs, budget: Duration) -> Output {
    let calib_before = calib_us();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut sys = None;
    let mut setup_rss = 0.0;
    for k in 0..SETUP_REPS {
        drop(sys.take());
        let t0 = Instant::now();
        sys = Some(setup(spec, inputs));
        setup_s.push(t0.elapsed().as_secs_f64());
        if k == 0 {
            setup_rss = peak_rss_mb().unwrap_or(0.0);
        }
    }
    let mut sys = sys.expect("at least one set-up");
    let r = measure(spec, inputs, &mut sys, budget);
    let calib_after = calib_us();
    let h = &r.host;
    let metrics = vec![
        m("sessions_per_s", ratio(h.sessions as f64, h.wall_s), "1/s"),
        m("session_p50_ms", h.p50_ms, "ms"),
        m("setup_s", median(&mut setup_s), "s"),
        m("delivered_ratio", r.sim.delivered_ratio, "ratio"),
        m("fix_ratio", r.sim.fix_ratio, "ratio"),
    ];
    let mut extra = scoped_figures(&r);
    extra.extend([
        m("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MiB"),
        m("mem.setup_rss_mb", setup_rss, "MiB"),
        m("host.calib_us", 0.5 * (calib_before + calib_after), "us"),
    ]);
    let mut report = Vec::new();
    if !h.round_walls.is_empty() {
        let walls: Vec<String> = h
            .round_walls
            .iter()
            .map(|(w, up)| format!("{w:.3}s/{up}up"))
            .collect();
        report.push(format!("rounds (wall/uplink slots): {}", walls.join(" ")));
    }
    let mut errors = r.errors.clone();
    for x in &metrics {
        if !(x.value.is_finite() && x.value > 0.0) {
            errors.push(format!("{} = {} is not a positive number", x.name, x.value));
        }
    }
    finish(
        spec.kind,
        report,
        metrics,
        &extra,
        &errors,
        h.submitted,
        r.unresolved,
    )
}

/// Counter value from a snapshot, 0 when absent.
fn counter(snap: &telemetry::Snapshot, name: &str) -> f64 {
    snap.counters.get(name).copied().unwrap_or(0) as f64
}

/// hit ÷ (hit + miss) of a cache's `.hit.local`/`.miss.local` pair.
fn hit_ratio(snap: &telemetry::Snapshot, prefix: &str) -> f64 {
    let hit = counter(snap, &format!("{prefix}.hit.local"));
    let miss = counter(snap, &format!("{prefix}.miss.local"));
    ratio(hit, hit + miss)
}

/// t(1 worker) ÷ (2 · t(2 workers)) over one fabric round or one
/// serving epoch of the schedule's first requests. The 2-worker pass
/// runs first, right after the traced pass on the same pool, so neither
/// side pays a cold start.
fn parallel_efficiency(spec: &Spec, inputs: &Inputs, sys: &mut System) -> f64 {
    let mut time = |threads: usize| -> f64 {
        let t0 = Instant::now();
        match (&mut *sys, inputs) {
            (System::Fabric(f), Inputs::Fabric { master, .. }) => {
                f.reseed(*master);
                f.run_round(threads);
            }
            (System::Serve(e), Inputs::Serve { schedule, .. }) => {
                let n = if spec.kind == Kind::ServeLocalize {
                    64
                } else {
                    24
                };
                let n = n.min(spec.sim_units);
                let sub = TrafficSchedule {
                    master_seed: schedule.master_seed,
                    requests: schedule.requests[..n.min(schedule.requests.len())].to_vec(),
                };
                e.serve_schedule(&sub, threads);
            }
            _ => unreachable!("system and inputs come from the same spec"),
        }
        t0.elapsed().as_secs_f64()
    };
    let t2 = time(2);
    let t1 = time(1);
    ratio(t1, 2.0 * t2)
}

/// Replay requests and the poses they run at (AP at the origin). Serve:
/// the schedule's first requests with their session seeds. Fabric: the
/// first nodes at their roster poses in their nearest AP's frame, cycling
/// through the three session classes.
fn replay_plan(inputs: &Inputs) -> (Vec<Pose>, Vec<ReplayItem>) {
    match inputs {
        Inputs::Fabric { aps, poses, master } => {
            // Each node in the frame of its nearest AP.
            let local: Vec<Pose> = poses
                .iter()
                .map(|p| {
                    let ap = aps
                        .iter()
                        .min_by(|a, b| {
                            a.distance_to(&p.position)
                                .total_cmp(&b.distance_to(&p.position))
                        })
                        .expect("at least one AP");
                    Pose::new(
                        Point::new(p.position.x - ap.x, p.position.y - ap.y),
                        p.facing,
                    )
                })
                .collect();
            let classes = [Workload::Localize, Workload::Downlink, Workload::Uplink];
            let items = (0..REPLAY_ITEMS.min(poses.len()))
                .map(|k| ReplayItem {
                    node: k,
                    seed: derive_seed(*master, k as u64),
                    workload: classes[k % 3],
                })
                .collect();
            (local, items)
        }
        Inputs::Serve {
            poses, schedule, ..
        } => {
            let items = schedule
                .requests
                .iter()
                .take(REPLAY_ITEMS)
                .enumerate()
                .map(|(ticket, r)| ReplayItem {
                    node: r.node,
                    seed: derive_seed(schedule.master_seed, ticket as u64),
                    workload: r.workload,
                })
                .collect();
            (poses.clone(), items)
        }
    }
}

/// The traced run: an untraced and a traced pass over the same
/// deterministic prefix (their simulated results must match), a
/// 1-vs-2-worker timing, and the stage replay.
fn traced(spec: &Spec, inputs: &Inputs, budget: Duration) -> Output {
    let calib_before = calib_us();
    let mut sys = setup(spec, inputs);
    let setup_rss = peak_rss_mb().unwrap_or(0.0);
    let pass = budget.mul_f64(0.3);

    let u = measure(spec, inputs, &mut sys, pass);
    let run_rss = peak_rss_mb().unwrap_or(0.0);
    rewind(spec, inputs, &mut sys);
    telemetry::set_enabled(true);
    telemetry::reset();
    let t = measure(spec, inputs, &mut sys, pass);
    let snap = telemetry::snapshot();
    telemetry::set_enabled(false);

    let mut errors = u.errors.clone();
    errors.extend(t.errors.iter().cloned());
    if u.sim != t.sim {
        errors.push(format!(
            "simulated results differ between untraced and traced runs: {:?} vs {:?}",
            u.sim, t.sim
        ));
    }

    let efficiency = parallel_efficiency(spec, inputs, &mut sys);
    drop(sys);
    let (poses, items) = replay_plan(inputs);
    let rp = replay(&poses, &items, budget.mul_f64(0.3));
    if rp.payload_mismatches > 0 {
        errors.push(format!(
            "{} of {} CRC-passing replayed payloads differ from the bytes sent",
            rp.payload_mismatches, rp.crc_passed
        ));
    }
    let calib_after = calib_us();

    let sessions = t.host.sessions.max(1) as f64;
    let chirps = 5.0;
    let fft_count = snap
        .histograms
        .get("dsp.fft.size")
        .map_or(0.0, |h| h.count as f64);
    let per_session = |h: &crate::workload::HostMetrics| ratio(h.wall_s, h.sessions as f64);
    let mut metrics: Vec<Metric> = STAGES
        .iter()
        .zip(rp.stage_ms)
        .map(|(&name, v)| m(name, v, "ms"))
        .collect();
    metrics.extend([
        m("replay.coverage_localize", rp.coverage[0], "ratio"),
        m("replay.coverage_downlink", rp.coverage[1], "ratio"),
        m("replay.coverage_uplink", rp.coverage[2], "ratio"),
        m("replay.session_localize_ms", rp.session_ms[0], "ms"),
        m("replay.session_downlink_ms", rp.session_ms[1], "ms"),
        m("replay.session_uplink_ms", rp.session_ms[2], "ms"),
        m(
            "ap.field2_bursts_per_session",
            counter(&snap, "ap.dechirp.spectra") / (2.0 * chirps) / sessions,
            "count",
        ),
        m(
            "session.mode_attempts_per_session",
            u.sim.mode_attempts_per_session,
            "count",
        ),
        m(
            "session.payload_attempts_per_session",
            u.sim.payload_attempts_per_session,
            "count",
        ),
        m("serve.overhead_frac", u.host.overhead_frac, "ratio"),
        m("serve.shed_ratio", u.sim.shed_ratio, "ratio"),
        m("serve.field2_shed_ratio", u.sim.field2_shed_ratio, "ratio"),
        m("serve.reject_ratio", u.sim.reject_ratio, "ratio"),
        m("net.round_s", u.host.round_s, "s"),
        m(
            "net.interference_rays_per_session",
            counter(&snap, "net.interference.neighbors") / sessions,
            "count",
        ),
        m("net.handoffs_per_round", u.sim.handoffs_per_round, "count"),
        m("net.overruns_per_round", u.sim.overruns_per_round, "count"),
        m("batch.parallel_efficiency", efficiency, "ratio"),
        m(
            "batch.steals_per_round",
            counter(&snap, "core.batch.steal.local") / t.host.dispatches.max(1) as f64,
            "count",
        ),
        m(
            "rf.ray_cache_hit_ratio",
            hit_ratio(&snap, "rf.ray.cache"),
            "ratio",
        ),
        m(
            "rf.scene_cache_hit_ratio",
            hit_ratio(&snap, "rf.scene.cache"),
            "ratio",
        ),
        m(
            "rf.port_cache_hit_ratio",
            hit_ratio(&snap, "rf.port.cache"),
            "ratio",
        ),
        m("dsp.fft_per_session", fft_count / sessions, "count"),
        m(
            "dsp.plan_cache_hit_ratio",
            hit_ratio(&snap, "dsp.plan_cache"),
            "ratio",
        ),
        m(
            "dsp.template_hit_ratio",
            hit_ratio(&snap, "dsp.template"),
            "ratio",
        ),
        m("peak_rss_mb", run_rss, "MiB"),
        m("mem.setup_rss_mb", setup_rss, "MiB"),
        m(
            "mem.allocs_per_session",
            ratio(u.host.allocs as f64, u.host.sessions as f64),
            "count",
        ),
        m(
            "telemetry.overhead_frac",
            ratio(per_session(&t.host), per_session(&u.host)) - 1.0,
            "ratio",
        ),
        m("host.calib_us", 0.5 * (calib_before + calib_after), "us"),
    ]);
    metrics.extend(scoped_figures(&u));
    for x in &metrics {
        if !x.value.is_finite() {
            errors.push(format!("{} = {} is not finite", x.name, x.value));
        }
    }
    let attempted = u.host.submitted + t.host.submitted;
    let failed = u.unresolved + t.unresolved;
    finish(
        spec.kind,
        Vec::new(),
        metrics,
        &[],
        &errors,
        attempted,
        failed,
    )
}
