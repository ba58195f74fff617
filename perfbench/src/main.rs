//! Benchmark command line: runs one workload (or all) and prints its metrics.
//!
//! ```text
//! hl-perfbench --workload <fleet_get|migrate_cycle|churn_zipf|all>
//!              [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs an untimed warm-up, then repeats the workload on the same seed
//! until `--seconds` have passed (at least [`MIN_REPS`] times). Every
//! repetition must answer every request, match the byte oracle, show
//! zero tracecheck findings and repeat the first repetition's simulated
//! outcome and trace digest bit for bit; `churn_zipf` must also match
//! the policy harness's own replay of each stream.
//! With `--trace 0` the last stdout line is a JSON object carrying the
//! end-to-end metrics; with `--trace 1` repetitions alternate between
//! untraced and per-call-timed, and it carries the per-layer metrics.
//! Human-readable lines above it give every metric with its unit,
//! clock and sample count. Exit status is 0 only for a correct run.

use std::process::ExitCode;
use std::time::Instant;

use hl_perfbench::{churn, cycle, fleet, ratio, secs, Layer, Rep, SimOutcome, ANCHOR_REF_NS, MB};

/// Fewest untraced repetitions per run.
const MIN_REPS: usize = 3;
/// Fewest traced repetitions per traced run.
const MIN_TRACED_REPS: usize = 2;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    FleetGet,
    MigrateCycle,
    ChurnZipf,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::FleetGet,
        Workload::MigrateCycle,
        Workload::ChurnZipf,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::FleetGet => "fleet_get",
            Workload::MigrateCycle => "migrate_cycle",
            Workload::ChurnZipf => "churn_zipf",
        }
    }

    fn default_seed(self) -> u64 {
        match self {
            Workload::FleetGet => fleet::DEFAULT_SEED,
            Workload::MigrateCycle => cycle::DEFAULT_SEED,
            Workload::ChurnZipf => churn::DEFAULT_SEED,
        }
    }
}

/// The clock a metric is read from.
#[derive(Clone, Copy)]
enum Clock {
    /// The `hl-sim` device model: repeats exactly for a seed.
    Sim,
    /// What the Rust costs to run on this host.
    Host,
    /// A ratio of counts.
    Count,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Sim => "sim",
            Clock::Host => "host",
            Clock::Count => "count",
        }
    }
}

/// End-to-end metrics: `(name, unit, clock, gated)`. The gated ones are
/// defined on every workload, never zero, and move with the seed, and
/// they form the `--trace 0` JSON. The rest travel with the per-layer
/// JSON: they apply to some workloads only (writes, migration, fetch,
/// write amplification, host MB/s), are the same for every seed
/// (`read_p50_ms` on `migrate_cycle` and `churn_zipf` is one cached
/// read), or are zero by design (`failed_frac`).
const E2E: [(&str, &str, Clock, bool); 13] = [
    ("setup_s", "s", Clock::Host, true),
    ("read_p50_ms", "ms", Clock::Sim, false),
    ("read_p99_ms", "ms", Clock::Sim, true),
    ("write_p50_ms", "ms", Clock::Sim, false),
    ("write_p95_ms", "ms", Clock::Sim, false),
    ("sim_makespan_s", "s", Clock::Sim, true),
    ("migrate_mb_s", "MB/s", Clock::Sim, false),
    ("fetch_mb_s", "MB/s", Clock::Sim, false),
    ("write_amp", "x", Clock::Sim, false),
    ("host_us_per_op", "us", Clock::Host, true),
    ("host_mb_s", "MB/s", Clock::Host, false),
    ("peak_rss_mb", "MB", Clock::Host, true),
    ("failed_frac", "frac", Clock::Count, false),
];

/// Per-layer metrics printed by a traced run: `(name, unit, clock)`.
const PER_LAYER: [(&str, &str, Clock); 62] = [
    ("read_p50_ms", "ms", Clock::Sim),
    ("write_p50_ms", "ms", Clock::Sim),
    ("write_p95_ms", "ms", Clock::Sim),
    ("migrate_mb_s", "MB/s", Clock::Sim),
    ("fetch_mb_s", "MB/s", Clock::Sim),
    ("write_amp", "x", Clock::Sim),
    ("host_mb_s", "MB/s", Clock::Host),
    ("read_p95_ms", "ms", Clock::Sim),
    ("server.proto_ns_per_frame", "ns", Clock::Host),
    ("server.tenant_p95_spread", "x", Clock::Sim),
    ("requests.coalesce_ratio", "frac", Clock::Count),
    ("requests.tenant_admits", "count", Clock::Count),
    ("requests.tenant_throttles", "count", Clock::Count),
    ("requests.wait_demand_s", "s", Clock::Sim),
    ("requests.wait_copyout_s", "s", Clock::Sim),
    ("requests.reqq_hwm", "count", Clock::Count),
    ("requests.devq_hwm", "count", Clock::Count),
    ("service.demand_fetches", "count", Clock::Count),
    ("service.copyouts", "count", Clock::Count),
    ("service.fetch_s", "s", Clock::Sim),
    ("service.copyout_s", "s", Clock::Sim),
    ("service.drive_util_max", "frac", Clock::Sim),
    ("service.drive_util_mean", "frac", Clock::Sim),
    ("service.affinity_hits", "count", Clock::Count),
    ("service.retries", "count", Clock::Count),
    ("segcache.hit_ratio", "frac", Clock::Count),
    ("segcache.ejections", "count", Clock::Count),
    ("segcache.stalls", "count", Clock::Count),
    ("segcache.eject_host_ms", "ms", Clock::Host),
    ("segcache.eject_sim_s", "s", Clock::Sim),
    ("lfs.write_host_us", "us", Clock::Host),
    ("lfs.read_host_us", "us", Clock::Host),
    ("lfs.sync_host_ms", "ms", Clock::Host),
    ("lfs.write_sim_s", "s", Clock::Sim),
    ("lfs.read_sim_s", "s", Clock::Sim),
    ("lfs.sync_sim_s", "s", Clock::Sim),
    ("lfs.buffer_hit_ratio", "frac", Clock::Count),
    ("lfs.partials_written", "count", Clock::Count),
    ("lfs.blocks_written", "count", Clock::Count),
    ("migrator.host_ms", "ms", Clock::Host),
    ("migrator.sim_s", "s", Clock::Sim),
    ("migrator.blocks_migrated", "count", Clock::Count),
    ("migrator.passes", "count", Clock::Count),
    ("cleaner.host_ms", "ms", Clock::Host),
    ("cleaner.sim_s", "s", Clock::Sim),
    ("cleaner.blocks_cleaned", "count", Clock::Count),
    ("cleaner.segs_reclaimed", "count", Clock::Count),
    ("cleaner.blocks_per_seg", "x", Clock::Count),
    ("tcleaner.host_ms", "ms", Clock::Host),
    ("tcleaner.sim_s", "s", Clock::Sim),
    ("tcleaner.passes", "count", Clock::Count),
    ("footprint.swaps", "count", Clock::Count),
    ("footprint.swap_s", "s", Clock::Sim),
    ("footprint.transfer_s", "s", Clock::Sim),
    ("footprint.bytes_read", "B", Clock::Count),
    ("footprint.bytes_written", "B", Clock::Count),
    ("vdev.disk_bytes_written", "B", Clock::Count),
    ("vdev.disk_seek_s", "s", Clock::Sim),
    ("vdev.disk_transfer_s", "s", Clock::Sim),
    ("trace.events_per_op", "count", Clock::Count),
    ("bench.trace_overhead_frac", "frac", Clock::Host),
    ("bench.other_host_ms", "ms", Clock::Host),
];

struct Args {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workloads = match val.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![*Workload::ALL
                        .iter()
                        .find(|w| w.name() == name)
                        .ok_or(format!("unknown workload {name}"))?],
                }
            }
            "--seed" => args.seed = Some(val.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !args.seconds.is_finite() || args.seconds < 0.0 {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Peak resident set of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn run_once(
    w: Workload,
    seed: u64,
    traced: bool,
    cycle_input: Option<&cycle::Input>,
) -> (Rep, Option<Vec<churn::Fingerprint>>) {
    match w {
        Workload::FleetGet => (fleet::run(seed, traced), None),
        Workload::MigrateCycle => (cycle::run(traced, cycle_input.expect("cycle input")), None),
        Workload::ChurnZipf => {
            let (rep, fp) = churn::run(seed, traced);
            (rep, Some(fp))
        }
    }
}

/// Everything a run measured on one workload.
struct Measured {
    reference: SimOutcome,
    untraced: Vec<Rep>,
    traced: Vec<Rep>,
    /// Operations attempted and failed across measured repetitions.
    attempted: u64,
    failed: u64,
    /// Problems that make the run incorrect.
    problems: Vec<String>,
    /// Host-speed anchor samples, ns, from every repetition.
    anchor: Vec<f64>,
}

impl Measured {
    /// `ANCHOR_REF_NS` ÷ the run's median anchor: multiplies a host time
    /// measured in this run into reference-host units.
    fn scale(&self) -> f64 {
        ANCHOR_REF_NS / median(self.anchor.clone())
    }

    /// The median over `reps` of a host time, in reference-host units.
    fn host_time(&self, reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
        host_median(reps, f) * self.scale()
    }
}

fn measure(w: Workload, seed: u64, seconds: f64, trace: bool) -> Measured {
    // The cycle's input is the same for every repetition of a seed, so
    // it is generated once, outside any repetition's set-up.
    let cycle_input = (w == Workload::MigrateCycle).then(|| cycle::Input::new(seed));
    // Warm-up: the first pass through a process's allocator and page
    // faults costs more than a later one, so it is not timed. On churn
    // the policy harness's own replay of every stream is the warm-up and
    // the drift reference.
    let warm = Instant::now();
    let drift_ref = match w {
        Workload::FleetGet => {
            hl_server::fleet::run_fleet(&fleet::config(seed));
            None
        }
        Workload::MigrateCycle => {
            cycle::run(false, cycle_input.as_ref().expect("cycle input"));
            None
        }
        Workload::ChurnZipf => Some(churn::reference(seed)),
    };
    println!("warm-up host_s={:.6}", warm.elapsed().as_secs_f64());

    // The first measured repetition is the reference every later one
    // must repeat bit for bit.
    let mut reference: Option<SimOutcome> = None;
    let (mut untraced, mut traced_reps) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut problems, mut anchor) = (Vec::new(), Vec::new());
    let t0 = Instant::now();
    for i in 0.. {
        let enough = untraced.len() >= MIN_REPS && (!trace || traced_reps.len() >= MIN_TRACED_REPS);
        if enough && t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let traced = trace && i % 2 == 1;
        let (rep, fp) = run_once(w, seed, traced, cycle_input.as_ref());
        anchor.extend_from_slice(&rep.anchor_ns);
        println!(
            "rep {i} traced={} setup_s={:.6} work_s={:.6}",
            u8::from(traced),
            rep.setup_ns as f64 / 1e9,
            rep.work_ns as f64 / 1e9
        );
        let s = &rep.sim;
        attempted += s.attempted;
        let mut rep_failed = s.failed;
        if s.failed > 0 {
            problems.push(format!("{} failed operations", s.failed));
        }
        if let Some(first) = s.findings.first() {
            problems.push(format!(
                "{} tracecheck findings, first: {first}",
                s.findings.len()
            ));
        }
        if let (Some(got), Some(want)) = (&fp, &drift_ref) {
            if got != want {
                problems.push(format!(
                    "replay drifted from the policy harness: {got:?} vs {want:?}"
                ));
                rep_failed = s.attempted;
            }
        }
        match &reference {
            None => reference = Some(s.clone()),
            Some(r) if r != s => {
                problems.push(format!(
                    "simulated outcome drifted between repeats of seed {seed}"
                ));
                rep_failed = s.attempted;
            }
            Some(_) => {}
        }
        failed += rep_failed;
        if traced {
            traced_reps.push(rep);
        } else {
            untraced.push(rep);
        }
    }
    Measured {
        reference: reference.expect("at least one repetition"),
        untraced,
        traced: traced_reps,
        attempted,
        failed,
        problems,
        anchor,
    }
}

/// Host metrics over a set of repetitions: the median of each.
fn host_median(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(reps.iter().map(f).collect())
}

fn layer_host(m: &Measured, layer: Layer, per_call: bool) -> f64 {
    let i = layer as usize;
    m.host_time(&m.traced, |r| {
        let ns = r.layer_host_ns[i] as f64;
        if per_call {
            ratio(ns, r.layer_calls[i] as f64) / 1e3
        } else {
            ns / 1e6
        }
    })
}

/// One printed metric: value and sample count, or `None` where the
/// workload does not define it.
type Value = Option<(f64, u64)>;

fn e2e_value(name: &str, m: &Measured, rss: f64) -> Value {
    let r = &m.reference;
    let reps = &m.untraced;
    let n = reps.len() as u64;
    match name {
        "setup_s" => Some((m.host_time(reps, |r| r.setup_ns as f64 / 1e9), n)),
        "sim_makespan_s" => Some((secs(r.makespan_us), 1)),
        "host_us_per_op" => Some((
            m.host_time(reps, |x| x.work_ns as f64 / 1e3 / x.sim.attempted as f64),
            n,
        )),
        "host_mb_s" if r.user_bytes > 0 => Some((
            r.user_bytes as f64 / MB / m.host_time(reps, |x| x.work_ns as f64 / 1e9),
            n,
        )),
        "peak_rss_mb" => Some((rss, 1)),
        "failed_frac" => Some((ratio(m.failed as f64, m.attempted as f64), m.attempted)),
        _ => r.get(name).map(|v| (v.value, v.n)),
    }
}

fn layer_value(name: &str, m: &Measured) -> Value {
    let t = &m.traced;
    let n = t.len() as u64;
    let host = |layer, per_call| Some((layer_host(m, layer, per_call), n));
    let sim = |layer: Layer| {
        m.reference
            .layer_sim_us
            .map(|s| (secs(s[layer as usize]), 1))
    };
    match name {
        "lfs.write_host_us" => host(Layer::LfsWrite, true),
        "lfs.read_host_us" => host(Layer::LfsRead, true),
        "lfs.sync_host_ms" => host(Layer::LfsSync, false),
        "migrator.host_ms" => host(Layer::Migrator, false),
        "cleaner.host_ms" => host(Layer::Cleaner, false),
        "tcleaner.host_ms" => host(Layer::Tcleaner, false),
        "segcache.eject_host_ms" => host(Layer::Segcache, false),
        "bench.other_host_ms" => Some((
            m.host_time(t, |r| {
                (r.work_ns as f64 - r.layer_host_ns.iter().sum::<u64>() as f64) / 1e6
            }),
            n,
        )),
        "bench.trace_overhead_frac" => {
            let traced = host_median(t, |r| r.work_ns as f64);
            let untraced = host_median(&m.untraced, |r| r.work_ns as f64);
            Some((traced / untraced - 1.0, n))
        }
        "server.proto_ns_per_frame" => {
            let xs: Vec<f64> = t.iter().filter_map(|r| r.proto_ns_per_frame).collect();
            (!xs.is_empty()).then(|| (median(xs) * m.scale(), n))
        }
        _ => match Layer::ALL.iter().find(|l| l.sim_name() == name) {
            Some(&l) => sim(l),
            None => e2e_value(name, m, 0.0),
        },
    }
}

fn print_line(kind: &str, name: &str, unit: &str, clock: Clock, v: Value) {
    match v {
        Some((x, n)) => println!(
            "{kind:<6} {name:<28} {x:>16.6} {unit:<6} [{}] n={n}",
            clock.label()
        ),
        None => println!(
            "{kind:<6} {name:<28} {:>16} {unit:<6} [{}] not defined on this workload",
            "n/a",
            clock.label()
        ),
    }
}

/// Runs one workload and returns its JSON metric entries, whether it
/// was correct, and the attempted/failed counts.
fn run_workload(w: Workload, args: &Args) -> (Vec<(String, f64, &'static str)>, bool, u64, u64) {
    let seed = args.seed.unwrap_or(w.default_seed());
    println!(
        "== {} seed={seed} seconds={} trace={}",
        w.name(),
        args.seconds,
        u8::from(args.trace)
    );
    let m = measure(w, seed, args.seconds, args.trace);
    let rss = peak_rss_mb();
    let r = &m.reference;
    println!(
        "reps untraced={} traced={} digest={:016x} tracecheck_findings={} attempted={} failed={}",
        m.untraced.len(),
        m.traced.len(),
        r.digest,
        r.findings.len(),
        m.attempted,
        m.failed
    );
    println!(
        "host anchor median {:.3} ms over {} samples; host times below are scaled by {:.4} \
         into reference-host units",
        median(m.anchor.clone()) / 1e6,
        m.anchor.len(),
        m.scale()
    );
    if let Some(layers) = r.layer_sim_us {
        let sum: u64 = layers.iter().sum();
        println!(
            "layer sim sum {} us == sim makespan {} us: {}",
            sum,
            r.makespan_us,
            sum == r.makespan_us
        );
    }
    let mut json = Vec::new();
    let mut problems = m.problems.clone();
    // Per-layer metrics a workload never reaches read 0; a gated metric
    // must be defined, and every value must be a finite number.
    let mut emit = |name: &str, unit, v: Value, required: bool| match v {
        Some((x, _)) if x.is_finite() => json.push((name.to_string(), x, unit)),
        None if !required => json.push((name.to_string(), 0.0, unit)),
        _ => problems.push(format!("{name} is {v:?}")),
    };
    if !args.trace {
        for (name, unit, clock, gated) in E2E {
            let v = e2e_value(name, &m, rss);
            print_line("e2e", name, unit, clock, v);
            if gated {
                emit(name, unit, v, true);
            }
        }
    } else {
        for (name, unit, clock) in PER_LAYER {
            let v = layer_value(name, &m);
            print_line("layer", name, unit, clock, v);
            emit(name, unit, v, false);
        }
    }
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    (json, problems.is_empty(), m.attempted, m.failed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: hl-perfbench --workload <fleet_get|migrate_cycle|churn_zipf|all> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let many = args.workloads.len() > 1;
    let mut metrics = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for &w in &args.workloads {
        let (json, ok, a, f) = run_workload(w, &args);
        correct &= ok;
        attempted += a;
        failed += f;
        for (name, value, unit) in json {
            let key = if many {
                format!("{}.{name}", w.name())
            } else {
                name
            };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
