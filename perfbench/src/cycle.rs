//! `migrate_cycle`: the paper's §7 path on `Rig::paper()` (RZ57 disk,
//! HP 6300 changer, 40 MB platters, 80 cache lines).
//!
//! One ~96 MiB object is written in ~64 KiB `write`s, synced, migrated
//! whole (inode included), sealed and copied out, ejected from the
//! segment cache with the buffer cache dropped, and read back cold in
//! ~64 KiB `read`s, every byte checked against the input. Streaming bulk
//! work: the LFS segment writer (checksums included), migration staging,
//! copy-out and whole-segment demand fetch dominate; the object spans
//! three platters, so robot swaps are part of the fetch. No cleaning,
//! no server.

use std::time::Instant;

use highlight::MigrateStats;
use hl_bench::rigs::Rig;

use crate::{anchor_ns, ratio, secs, Layer, Meter, Rep, SimValue, SplitMix, Totals, MB};

/// Segment-cache lines, as in the paper's Table 3 rig.
pub const CACHE_LINES: u32 = 80;
/// The seed the workload is tuned on.
pub const DEFAULT_SEED: u64 = 7;
/// A seed kept for re-checking claims made on the default one.
pub const HELD_OUT_SEED: u64 = 1009;
/// Nominal object size.
pub const OBJECT_BYTES: usize = 96 << 20;
/// Nominal call size; each call's size is drawn from ±1/8 around it.
pub const CALL_BYTES: u64 = 64 << 10;

/// The seeded inputs: object bytes and the write and read call sizes.
pub struct Input {
    /// Object contents (the byte oracle).
    pub data: Vec<u8>,
    /// Sizes of successive `write` calls; they sum to `data.len()`.
    pub writes: Vec<usize>,
    /// Sizes of successive `read` calls; they sum to `data.len()`.
    pub reads: Vec<usize>,
}

fn call_sizes(rng: &mut SplitMix, total: usize) -> Vec<usize> {
    let (lo, hi) = (CALL_BYTES - CALL_BYTES / 8, CALL_BYTES + CALL_BYTES / 8);
    let mut out = Vec::new();
    let mut left = total;
    while left > 0 {
        let n = (rng.range(lo, hi) as usize).min(left);
        out.push(n);
        left -= n;
    }
    out
}

impl Input {
    /// Generates the inputs for `seed`.
    pub fn new(seed: u64) -> Input {
        let mut rng = SplitMix::new(seed);
        // The object size moves by up to one call with the seed, so no
        // simulated time is the same for every seed.
        let len = OBJECT_BYTES + rng.range(0, CALL_BYTES) as usize;
        let mut data = vec![0u8; len];
        for chunk in data.chunks_mut(8) {
            let w = rng.next_u64().to_le_bytes();
            chunk.copy_from_slice(&w[..chunk.len()]);
        }
        let writes = call_sizes(&mut rng, len);
        let reads = call_sizes(&mut rng, len);
        Input {
            data,
            writes,
            reads,
        }
    }
}

/// Runs the workload once on `input`. The input is the same for every
/// repetition of a seed, so its generation is left to the caller and
/// set-up is the rig build and mkfs/mount.
pub fn run(traced: bool, input: &Input) -> Rep {
    let anchor = anchor_ns();
    let s0 = Instant::now();
    let rig = Rig::paper();
    let mut hl = rig.highlight(CACHE_LINES);
    let data = &input.data[..];
    let setup_ns = s0.elapsed().as_nanos() as u64;

    let clock = hl.clock();
    let start = clock.now();
    let mut m = Meter::new(clock.clone(), traced);
    let mut t = Totals::default();
    let mut buf = vec![0u8; (CALL_BYTES + CALL_BYTES / 8) as usize];

    let w0 = Instant::now();
    let (ino, _) = m.call(Layer::LfsWrite, || hl.create("/obj").expect("create"));
    let mut off = 0usize;
    for &n in &input.writes {
        let chunk = &data[off..off + n];
        let (r, dt) = m.call(Layer::LfsWrite, || hl.write(ino, off as u64, chunk));
        r.expect("write");
        t.writes.push(dt);
        off += n;
    }
    m.call(Layer::LfsSync, || hl.sync().expect("sync"));
    let migrate_from = m.sim_us[Layer::Migrator as usize];
    m.call(Layer::Migrator, || {
        hl.migrate_file("/obj", true, None).expect("migrate")
    });
    m.call(Layer::Migrator, || {
        hl.seal_staging(&mut MigrateStats::default()).expect("seal")
    });
    m.call(Layer::Migrator, || hl.drain_copyouts().expect("drain"));
    let migrate_us = m.sim_us[Layer::Migrator as usize] - migrate_from;
    m.call(Layer::Segcache, || hl.eject_all());
    m.call(Layer::LfsSync, || hl.drop_caches());
    let mut off = 0usize;
    for &n in &input.reads {
        let (r, dt) = m.call(Layer::LfsRead, || hl.read(ino, off as u64, &mut buf[..n]));
        t.reads.push(dt);
        if r.expect("read") != n || buf[..n] != data[off..off + n] {
            t.mismatches += 1;
        }
        off += n;
    }
    let work_ns = w0.elapsed().as_nanos() as u64;

    assert_eq!(
        m.sim_total(),
        clock.now() - start,
        "every simulated µs of the cycle is inside a timed call"
    );
    let len = data.len() as u64;
    let fetch_us = m.sim_us[Layer::LfsRead as usize];
    t.user_bytes = len;
    t.written_bytes = len;
    t.migrations = 1;
    t.anchor_ns.push(anchor);
    t.add_meter(&m);
    t.add_instance(&mut hl, &rig.jukebox, &rig.disk);
    let mb = len as f64 / MB;
    let extra = vec![
        SimValue {
            name: "migrate_mb_s",
            value: ratio(mb, secs(migrate_us)),
            n: 1,
        },
        SimValue {
            name: "fetch_mb_s",
            value: ratio(mb, secs(fetch_us)),
            n: 1,
        },
    ];
    t.into_rep(setup_ns, work_ns, extra)
}
