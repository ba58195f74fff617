//! End-to-end and per-layer benchmark of the HighLight reproduction.
//!
//! Three workloads drive the crates through their public APIs:
//! [`fleet`] (`fleet_get`), [`cycle`] (`migrate_cycle`) and [`churn`]
//! (`churn_zipf`). Each repetition returns a [`Rep`]: a deterministic
//! [`SimOutcome`] on the `hl-sim` clock, which must repeat bit for bit
//! for one seed, and host-clock timings, which carry the noise. The
//! binary (`src/main.rs`) repeats a workload for the requested time and
//! prints the medians; `README.md` in this directory lists every metric.

pub mod churn;
pub mod cycle;
pub mod fleet;
pub mod meter;

use hl_sim::SimTime;

pub use meter::{Layer, Meter};

/// One named value on the simulated clock (or derived from the device
/// model), with the number of samples behind it.
#[derive(Clone, Debug, PartialEq)]
pub struct SimValue {
    /// Metric name.
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Samples behind it (1 for totals and counts).
    pub n: u64,
}

/// The deterministic part of one repetition: every field must be
/// identical across repeats of one seed.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutcome {
    /// Engine trace digest (the combined shard digest for the fleet).
    pub digest: u64,
    /// Tracecheck findings (must be none).
    pub findings: Vec<String>,
    /// Client operations attempted.
    pub attempted: u64,
    /// Client operations that failed: error responses, lost tickets,
    /// unanswered requests and byte-oracle mismatches.
    pub failed: u64,
    /// User bytes the client operations moved.
    pub user_bytes: u64,
    /// Simulated time the workload spent waiting on the system, µs.
    pub makespan_us: SimTime,
    /// Per-layer simulated µs; they sum to `makespan_us` exactly.
    /// `None` where the calls happen inside one opaque entry point.
    pub layer_sim_us: Option<[SimTime; 7]>,
    /// Every other simulated-clock or device-model metric.
    pub values: Vec<SimValue>,
}

impl SimOutcome {
    /// Looks a value up by name.
    pub fn get(&self, name: &str) -> Option<&SimValue> {
        self.values.iter().find(|v| v.name == name)
    }
}

/// What one repetition of a workload produced.
#[derive(Clone, Debug)]
pub struct Rep {
    /// The deterministic outcome.
    pub sim: SimOutcome,
    /// Host ns of set-up (each workload's `run` says what it covers).
    pub setup_ns: u64,
    /// Host ns of the workload proper.
    pub work_ns: u64,
    /// Host ns inside timed calls, per layer (traced repetitions only).
    pub layer_host_ns: [u64; 7],
    /// Timed calls per layer.
    pub layer_calls: [u64; 7],
    /// Host ns per protocol frame encoded and decoded (traced fleet
    /// repetitions only).
    pub proto_ns_per_frame: Option<f64>,
    /// Host-speed anchor samples taken during the repetition, ns.
    pub anchor_ns: Vec<f64>,
}

/// The anchor's time on the reference host (a 2-vCPU x86-64 VM), ns.
pub const ANCHOR_REF_NS: f64 = 20e6;

/// Host-speed anchor: ns for a fixed integer-mixing pass over a 1 MiB
/// buffer, running no repository code. Workloads sample it before every
/// fleet, stream or cycle, outside the timed work; every host time a
/// run reports is multiplied by `ANCHOR_REF_NS` over the samples'
/// median, so a host that runs slower for a whole run shifts the
/// reported numbers less.
pub fn anchor_ns() -> f64 {
    let mut buf = vec![0u64; 1 << 17];
    let t0 = std::time::Instant::now();
    let mut x = 0x243f_6a88_85a3_08d3u64;
    for _ in 0..80 {
        for w in buf.iter_mut() {
            x = (x ^ *w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
            *w = x;
        }
    }
    std::hint::black_box(&buf);
    t0.elapsed().as_nanos() as f64
}

/// `p`-th percentile of a sorted slice by nearest rank (the rule
/// `hl_server::fleet` uses for its report).
pub fn pct(sorted: &[SimTime], p: usize) -> SimTime {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) * p + 50) / 100]
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Bytes per MiB, the benchmark's MB.
pub const MB: f64 = (1u64 << 20) as f64;

/// Simulated µs to seconds.
pub fn secs(us: SimTime) -> f64 {
    us as f64 / 1e6
}

/// The `k` seeds of a repetition's independent sub-runs (fleets or
/// streams): `seed` itself first, then steps of the golden ratio.
pub fn sub_seeds(seed: u64, k: u64) -> Vec<u64> {
    (0..k)
        .map(|j| seed.wrapping_add(j.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect()
}

/// A small deterministic generator for workload inputs (SplitMix64).
pub struct SplitMix(u64);

impl SplitMix {
    /// Seeds the generator.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Counters summed over every `HighLight` instance a repetition ran
/// (`churn_zipf` replays several streams, each on a fresh rig), turned
/// into metrics only after summing so ratios stay ratios of totals.
#[derive(Default)]
pub struct Totals {
    /// Per-layer simulated µs, merged from each instance's [`Meter`].
    pub sim_us: [SimTime; 7],
    /// Per-layer host ns.
    pub host_ns: [u64; 7],
    /// Per-layer calls.
    pub calls: [u64; 7],
    /// Per-read simulated latency, µs.
    pub reads: Vec<SimTime>,
    /// Per-write simulated latency, µs.
    pub writes: Vec<SimTime>,
    /// Byte-oracle mismatches.
    pub mismatches: u64,
    /// User bytes moved by reads and writes.
    pub user_bytes: u64,
    /// User bytes written (write-amplification denominator).
    pub written_bytes: u64,
    /// Migration passes that moved data.
    pub migrations: u64,
    /// Disk-cleaner passes that reclaimed segments.
    pub disk_cleans: u64,
    /// Tertiary-volume cleaning passes.
    pub tclean_passes: u64,
    /// Host-speed anchor samples, ns.
    pub anchor_ns: Vec<f64>,
    digests: Vec<u64>,
    findings: Vec<String>,
    trace_events: u64,
    device_bytes: u64,
    // Service process and request queues.
    coalesced: u64,
    demand_fetches: u64,
    tenant_admits: u64,
    tenant_throttles: u64,
    wait_demand: SimTime,
    wait_copyout: SimTime,
    reqq_hwm: u64,
    devq_hwm: u64,
    copyouts: u64,
    fetch_time: SimTime,
    copyout_time: SimTime,
    affinity_hits: u64,
    retries: u64,
    drive_busy: Vec<SimTime>,
    // Segment cache.
    cache_hits: u64,
    cache_misses: u64,
    ejections: u64,
    stalls: u64,
    // Jukebox and disk.
    fp: hl_footprint::FpStats,
    disk: hl_vdev::DiskStats,
    // LFS.
    lfs: hl_lfs::LfsStats,
}

impl Totals {
    /// Adds one instance's per-layer meter.
    pub fn add_meter(&mut self, m: &Meter) {
        for i in 0..7 {
            self.sim_us[i] += m.sim_us[i];
            self.host_ns[i] += m.host_ns[i];
            self.calls[i] += m.calls[i];
        }
    }

    /// Adds one instance's engine, jukebox, disk and LFS counters.
    pub fn add_instance(
        &mut self,
        hl: &mut highlight::HighLight,
        jukebox: &dyn hl_footprint::Footprint,
        disk: &hl_vdev::Disk,
    ) {
        let tio = hl.tio();
        let s = tio.stats();
        self.coalesced += s.coalesced_fetches;
        self.demand_fetches += s.demand_fetches;
        self.tenant_admits += s.tenant_admits;
        self.tenant_throttles += s.tenant_throttles;
        self.wait_demand += s.wait_demand;
        self.wait_copyout += s.wait_copyout;
        self.reqq_hwm = self.reqq_hwm.max(s.reqq_hwm as u64);
        self.devq_hwm = self.devq_hwm.max(s.devq_hwm as u64);
        self.copyouts += s.copyouts;
        self.fetch_time += s.fetch_time;
        self.copyout_time += s.copyout_time;
        self.affinity_hits += s.affinity_hits;
        self.retries += s.retries;
        let drives = jukebox.drives().min(s.drive_busy.len());
        self.drive_busy.resize(drives.max(self.drive_busy.len()), 0);
        for (acc, b) in self.drive_busy.iter_mut().zip(&s.drive_busy[..drives]) {
            *acc += b;
        }

        let c = tio.cache().borrow().stats();
        self.cache_hits += c.hits;
        self.cache_misses += c.misses;
        self.ejections += c.ejections;
        self.stalls += c.stalls;

        let f = jukebox.stats();
        self.fp.swaps += f.swaps;
        self.fp.swap_time += f.swap_time;
        self.fp.transfer_time += f.transfer_time;
        self.fp.bytes_read += f.bytes_read;
        self.fp.bytes_written += f.bytes_written;
        let d = disk.stats();
        self.disk.bytes_written += d.bytes_written;
        self.disk.seek_time += d.seek_time;
        self.disk.transfer_time += d.transfer_time;
        self.device_bytes += d.bytes_written + f.bytes_written;

        let l = hl.lfs().stats();
        self.lfs.cache_hits += l.cache_hits;
        self.lfs.cache_misses += l.cache_misses;
        self.lfs.partials_written += l.partials_written;
        self.lfs.blocks_written += l.blocks_written;
        self.lfs.blocks_migrated += l.blocks_migrated;
        self.lfs.blocks_cleaned += l.blocks_cleaned;
        self.lfs.segs_reclaimed += l.segs_reclaimed;

        self.trace_events += tio.tracer().len();
        self.digests.push(tio.trace_digest());
        self.findings
            .extend(tio.trace_findings().iter().map(|f| f.to_string()));
    }

    /// Simulated time spent inside calls, µs.
    pub fn makespan_us(&self) -> SimTime {
        self.sim_us.iter().sum()
    }

    /// The repetition's [`Rep`], with `extra` values appended.
    pub fn into_rep(mut self, setup_ns: u64, work_ns: u64, extra: Vec<SimValue>) -> Rep {
        self.reads.sort_unstable();
        self.writes.sort_unstable();
        let (nr, nw) = (self.reads.len() as u64, self.writes.len() as u64);
        let makespan_us = self.makespan_us();
        let busy: Vec<f64> = self
            .drive_busy
            .iter()
            .map(|&b| ratio(b as f64, makespan_us as f64))
            .collect();
        let (fp, disk, lfs) = (&self.fp, &self.disk, &self.lfs);
        let v = |name, value, n| SimValue { name, value, n };
        let mut values = vec![
            v("read_p50_ms", pct(&self.reads, 50) as f64 / 1e3, nr),
            v("read_p95_ms", pct(&self.reads, 95) as f64 / 1e3, nr),
            v("read_p99_ms", pct(&self.reads, 99) as f64 / 1e3, nr),
            v("write_p50_ms", pct(&self.writes, 50) as f64 / 1e3, nw),
            v("write_p95_ms", pct(&self.writes, 95) as f64 / 1e3, nw),
            v(
                "write_amp",
                ratio(self.device_bytes as f64, self.written_bytes as f64),
                1,
            ),
            v("migrator.passes", self.migrations as f64, 1),
            v("cleaner.passes", self.disk_cleans as f64, 1),
            v("tcleaner.passes", self.tclean_passes as f64, 1),
            v(
                "requests.coalesce_ratio",
                ratio(
                    self.coalesced as f64,
                    (self.coalesced + self.demand_fetches) as f64,
                ),
                1,
            ),
            v("requests.tenant_admits", self.tenant_admits as f64, 1),
            v("requests.tenant_throttles", self.tenant_throttles as f64, 1),
            v("requests.wait_demand_s", secs(self.wait_demand), 1),
            v("requests.wait_copyout_s", secs(self.wait_copyout), 1),
            v("requests.reqq_hwm", self.reqq_hwm as f64, 1),
            v("requests.devq_hwm", self.devq_hwm as f64, 1),
            v("service.demand_fetches", self.demand_fetches as f64, 1),
            v("service.copyouts", self.copyouts as f64, 1),
            v("service.fetch_s", secs(self.fetch_time), 1),
            v("service.copyout_s", secs(self.copyout_time), 1),
            v(
                "service.drive_util_max",
                busy.iter().cloned().fold(0.0, f64::max),
                1,
            ),
            v(
                "service.drive_util_mean",
                ratio(busy.iter().sum(), busy.len() as f64),
                1,
            ),
            v("service.affinity_hits", self.affinity_hits as f64, 1),
            v("service.retries", self.retries as f64, 1),
            v(
                "segcache.hit_ratio",
                ratio(
                    self.cache_hits as f64,
                    (self.cache_hits + self.cache_misses) as f64,
                ),
                1,
            ),
            v("segcache.ejections", self.ejections as f64, 1),
            v("segcache.stalls", self.stalls as f64, 1),
            v("footprint.swaps", fp.swaps as f64, 1),
            v("footprint.swap_s", secs(fp.swap_time), 1),
            v("footprint.transfer_s", secs(fp.transfer_time), 1),
            v("footprint.bytes_read", fp.bytes_read as f64, 1),
            v("footprint.bytes_written", fp.bytes_written as f64, 1),
            v("vdev.disk_bytes_written", disk.bytes_written as f64, 1),
            v("vdev.disk_seek_s", secs(disk.seek_time), 1),
            v("vdev.disk_transfer_s", secs(disk.transfer_time), 1),
            v("lfs.buffer_hit_ratio", lfs.hit_ratio(), 1),
            v("lfs.partials_written", lfs.partials_written as f64, 1),
            v("lfs.blocks_written", lfs.blocks_written as f64, 1),
            v("migrator.blocks_migrated", lfs.blocks_migrated as f64, 1),
            v("cleaner.blocks_cleaned", lfs.blocks_cleaned as f64, 1),
            v("cleaner.segs_reclaimed", lfs.segs_reclaimed as f64, 1),
            v(
                "cleaner.blocks_per_seg",
                ratio(lfs.blocks_cleaned as f64, lfs.segs_reclaimed as f64),
                1,
            ),
            v(
                "trace.events_per_op",
                ratio(self.trace_events as f64, (nr + nw) as f64),
                1,
            ),
        ];
        values.extend(extra);
        // One digest over every instance, in run order.
        let digest = self
            .digests
            .iter()
            .fold(0u64, |acc, &d| acc.rotate_left(17) ^ d);
        Rep {
            sim: SimOutcome {
                digest,
                findings: self.findings,
                attempted: nr + nw,
                failed: self.mismatches,
                user_bytes: self.user_bytes,
                makespan_us,
                layer_sim_us: Some(self.sim_us),
                values,
            },
            setup_ns,
            work_ns,
            layer_host_ns: self.host_ns,
            layer_calls: self.calls,
            proto_ns_per_frame: None,
            anchor_ns: self.anchor_ns,
        }
    }
}
