//! Per-call accounting on both clocks.
//!
//! Every call the benchmark makes into the system under test goes
//! through [`Meter::call`], tagged with the layer it enters. The
//! call's whole simulated duration lands in that layer's bucket, so
//! the buckets partition the workload's simulated makespan exactly.
//! Host time is taken per call only when the meter is traced: the
//! untraced run reads one `Instant` around the whole workload.

use std::time::Instant;

use hl_sim::{Clock, SimTime};

/// The layer a timed call enters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `create` and `write` into the LFS log.
    LfsWrite,
    /// `read` (tertiary-resident blocks demand-fetch underneath).
    LfsRead,
    /// `sync` and `drop_caches`.
    LfsSync,
    /// Migration: `migrate_file`, `seal_staging`, `drain_copyouts`,
    /// `Migrator::run_once` and backpressure `migrate_bytes`.
    Migrator,
    /// Cache-line ejection (`eject_all`).
    Segcache,
    /// `policy::disk_clean_once`.
    Cleaner,
    /// Tertiary volume cleaning: slot census, victim pick, `clean_volume`.
    Tcleaner,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::LfsWrite,
        Layer::LfsRead,
        Layer::LfsSync,
        Layer::Migrator,
        Layer::Segcache,
        Layer::Cleaner,
        Layer::Tcleaner,
    ];

    /// Metric-name prefix of the layer's simulated-time bucket.
    pub fn sim_name(self) -> &'static str {
        match self {
            Layer::LfsWrite => "lfs.write_sim_s",
            Layer::LfsRead => "lfs.read_sim_s",
            Layer::LfsSync => "lfs.sync_sim_s",
            Layer::Migrator => "migrator.sim_s",
            Layer::Segcache => "segcache.eject_sim_s",
            Layer::Cleaner => "cleaner.sim_s",
            Layer::Tcleaner => "tcleaner.sim_s",
        }
    }
}

/// Per-layer totals of one workload repetition.
pub struct Meter {
    clock: Clock,
    traced: bool,
    /// Simulated µs spent inside calls, per layer.
    pub sim_us: [SimTime; 7],
    /// Host ns spent inside calls, per layer (zero when untraced).
    pub host_ns: [u64; 7],
    /// Calls made, per layer.
    pub calls: [u64; 7],
}

impl Meter {
    /// A meter reading `clock`; `traced` turns on per-call host timers.
    pub fn new(clock: Clock, traced: bool) -> Meter {
        Meter {
            clock,
            traced,
            sim_us: [0; 7],
            host_ns: [0; 7],
            calls: [0; 7],
        }
    }

    /// Runs `f` as one call into `layer`; returns its result and its
    /// simulated duration in µs.
    pub fn call<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> (R, SimTime) {
        let i = layer as usize;
        let t0 = self.clock.now();
        let h0 = self.traced.then(Instant::now);
        let r = f();
        if let Some(h0) = h0 {
            self.host_ns[i] += h0.elapsed().as_nanos() as u64;
        }
        let dt = self.clock.now() - t0;
        self.sim_us[i] += dt;
        self.calls[i] += 1;
        (r, dt)
    }

    /// Simulated µs across every layer.
    pub fn sim_total(&self) -> SimTime {
        self.sim_us.iter().sum()
    }
}
