//! `churn_zipf`: writes beside reads. `OpStream::zipf_churn` (48 files,
//! 1200 ops, 128 KiB) is replayed through the `HighLight` façade on the
//! policy harness's small, hostile rig under its `paper_baseline` arm
//! (STP migrator, greedy cleaner, LRU ejection), with maintenance every
//! 8 ops exactly as `hl_bench::policies::run_policy_arm` does it.
//!
//! The working set far outsizes the 4-line segment cache and about one
//! op in eight is a rewrite, so the segment cache, service process and
//! jukebox that `fleet_get` drives with client reads are driven here by
//! migration and cleaning instead.
//!
//! The replay is a copy of `run_policy_arm` with every call metered;
//! [`tests`] pins it to the original (trace digest, write
//! amplification, cache hits and misses) so the timers measure the same
//! program the policy ablation does.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use highlight::migrator::{Migrator, StpPolicy};
use highlight::{policy, tcleaner, HighLight, HlConfig};
use hl_bench::policies::{
    oracle_bytes, standard_arms, ArmReport, ArmSpec, MigKind, CACHE_SEGS, DISK_SEGS,
    SLOTS_PER_VOLUME, VOLUMES,
};
use hl_footprint::{Footprint, Jukebox, JukeboxConfig};
use hl_lfs::error::LfsError;
use hl_lfs::types::Ino;
use hl_sim::{Clock, SimTime};
use hl_vdev::{BlockDev, Disk, DiskProfile};
use hl_workload::ops::{Op, OpStream};

use crate::{anchor_ns, ratio, sub_seeds, Layer, Meter, Rep, Totals};

/// Files in the stream.
pub const FILES: u32 = 48;
/// Replayed operations per stream after the initial creates.
pub const OPS: u32 = 160;
/// Streams one repetition replays, each from its own seed on a fresh rig.
pub const STREAMS: u64 = 24;
/// Base file length.
pub const FILE_LEN: u32 = 128 << 10;
/// The seed the workload is tuned on (the policy harness's churn seed).
pub const DEFAULT_SEED: u64 = 0xC0FFEE;
/// A seed kept for re-checking claims made on the default one.
pub const HELD_OUT_SEED: u64 = 4242;
/// Maintenance cadence, as in the policy harness.
const MAINT_EVERY: usize = 8;

/// The workload's op stream under `seed`.
pub fn stream(seed: u64) -> OpStream {
    OpStream::zipf_churn(seed, FILES, OPS, FILE_LEN)
}

/// Free tertiary slots remaining across volumes still being filled (the
/// policy harness's private helper, copied).
fn free_tertiary_slots(hl: &mut HighLight) -> u32 {
    let map = hl.map();
    let tseg = hl.tseg();
    let tseg = tseg.borrow();
    (0..map.volumes)
        .map(|vol| {
            let v = tseg.volume(vol);
            if v.full {
                0
            } else {
                map.segs_per_volume.saturating_sub(v.next_slot)
            }
        })
        .sum()
}

/// Reads `ino` whole as one call into the LFS and checks it against
/// `expect`; returns whether it matched and the call's simulated µs.
fn verify_read(
    m: &mut Meter,
    hl: &mut HighLight,
    ino: Ino,
    expect: &[u8],
    buf: &mut [u8],
) -> (bool, SimTime) {
    let buf = &mut buf[..expect.len()];
    let (r, dt) = m.call(Layer::LfsRead, || hl.read(ino, 0, buf));
    let n = r.expect("read replay file");
    (n == expect.len() && buf[..] == expect[..], dt)
}

/// What the drift guard compares against `ArmReport`.
#[derive(Debug, PartialEq)]
pub struct Fingerprint {
    /// Engine trace digest.
    pub trace_digest: u64,
    /// Segment-cache hits.
    pub hits: u64,
    /// Segment-cache misses.
    pub misses: u64,
    /// Write amplification, bit for bit.
    pub write_amp_bits: u64,
    /// Reads verified against the oracle.
    pub verified: u64,
}

impl Fingerprint {
    /// The same fields of a policy-harness report.
    pub fn of_arm(r: &ArmReport) -> Fingerprint {
        Fingerprint {
            trace_digest: r.trace_digest,
            hits: r.hits,
            misses: r.misses,
            write_amp_bits: r.write_amp.to_bits(),
            verified: r.oracle_verified,
        }
    }
}

/// The policy harness's `paper_baseline` arm: STP migration, greedy
/// cleaning, LRU ejection.
fn paper_baseline() -> ArmSpec {
    let arm = standard_arms()[0];
    assert!(
        arm.name == "paper_baseline" && arm.migration == MigKind::Stp,
        "the harness's first arm is the STP paper baseline"
    );
    arm
}

/// The seeds of the streams one repetition replays; the default seed's
/// first stream is the policy ablation's.
pub fn stream_seeds(seed: u64) -> Vec<u64> {
    sub_seeds(seed, STREAMS)
}

/// The policy harness's own fingerprint for the stream of seed `s`.
fn reference_stream(s: u64) -> Fingerprint {
    Fingerprint::of_arm(&hl_bench::policies::run_policy_arm(
        &stream(s),
        &paper_baseline(),
    ))
}

/// The policy harness's own fingerprints for the workload's streams.
pub fn reference(seed: u64) -> Vec<Fingerprint> {
    stream_seeds(seed)
        .into_iter()
        .map(reference_stream)
        .collect()
}

/// Host ns of one stream's set-up and replay.
struct StreamHost {
    setup_ns: u64,
    work_ns: u64,
}

/// Replays one stream on a fresh rig, adding what it measured to `t`.
fn replay(seed: u64, traced: bool, t: &mut Totals) -> (StreamHost, Fingerprint) {
    let s0 = Instant::now();
    let stream = stream(seed);
    // Every version's bytes are generated up front, so the timed replay
    // holds no input generation.
    let mut oracle: BTreeMap<(u32, u32), Vec<u8>> = BTreeMap::new();
    for op in &stream.ops {
        if let Op::Write { file, version, len } = *op {
            oracle.insert((file, version), oracle_bytes(file, version, len));
        }
    }
    let clock = Clock::new();
    let disk = Rc::new(Disk::new(
        DiskProfile::RZ57,
        (2 + (CACHE_SEGS + DISK_SEGS) * 256 + 5) as u64,
        None,
    ));
    let jukebox = Jukebox::new(
        JukeboxConfig {
            volumes: VOLUMES,
            segments_per_volume: SLOTS_PER_VOLUME,
            ..JukeboxConfig::hp6300_paper()
        },
        None,
    );
    let arm = paper_baseline();
    let mut cfg = HlConfig::paper(clock.clone(), CACHE_SEGS);
    cfg.eject = arm.eject;
    cfg.lfs.cleaner_policy = arm.cleaning.builtin();
    HighLight::mkfs(
        disk.clone() as Rc<dyn BlockDev>,
        Rc::new(jukebox.clone()),
        cfg.clone(),
    )
    .expect("mkfs");
    let mut hl = HighLight::mount(
        disk.clone() as Rc<dyn BlockDev>,
        Rc::new(jukebox.clone()),
        cfg,
    )
    .expect("mount");
    let mut migrator = Migrator::with_policy(Box::new(StpPolicy::paper()));
    migrator.low_water_segs = 6;
    migrator.high_water_segs = 7;
    let cleaning = arm.cleaning.build();
    let cleaning = cleaning.as_ref();
    let setup_ns = s0.elapsed().as_nanos() as u64;

    let start = clock.now();
    let mut m = Meter::new(clock.clone(), traced);
    let mut advanced = 0u64;
    let mut model: BTreeMap<u32, (u32, u32)> = BTreeMap::new();
    let mut inos: BTreeMap<u32, Ino> = BTreeMap::new();
    let mut buf = vec![0u8; (FILE_LEN + 6 * 4096) as usize];
    let reads_before = t.reads.len();

    let w0 = Instant::now();
    for (i, op) in stream.ops.iter().enumerate() {
        match *op {
            Op::Write { file, version, len } => {
                let mut lat = 0;
                let ino = match inos.get(&file) {
                    Some(&ino) => ino,
                    None => {
                        let (ino, dt) = m.call(Layer::LfsWrite, || {
                            hl.create(&format!("/f{file}")).expect("create replay file")
                        });
                        lat += dt;
                        inos.insert(file, ino);
                        ino
                    }
                };
                let data = &oracle[&(file, version)];
                // Backpressure: a full log blocks the writer until the
                // migration daemon frees space, so the write's latency
                // includes the forced pass.
                let (r, dt) = m.call(Layer::LfsWrite, || hl.write(ino, 0, data));
                lat += dt;
                match r {
                    Ok(()) => {}
                    Err(LfsError::NoSpace) => {
                        let (r, dt) = m.call(Layer::LfsSync, || hl.sync());
                        r.expect("backpressure sync");
                        lat += dt;
                        let (r, dt) =
                            m.call(Layer::Migrator, || migrator.migrate_bytes(&mut hl, 4 << 20));
                        r.expect("backpressure migration");
                        lat += dt;
                        t.migrations += 1;
                        let (r, dt) = m.call(Layer::LfsWrite, || hl.write(ino, 0, data));
                        r.expect("write replay file after backpressure");
                        lat += dt;
                    }
                    Err(e) => panic!("write replay file: {e:?}"),
                }
                t.writes.push(lat);
                t.user_bytes += len as u64;
                t.written_bytes += len as u64;
                model.insert(file, (version, len));
            }
            Op::Read { file } => {
                if let Some(&(version, len)) = model.get(&file) {
                    let expect = &oracle[&(file, version)];
                    let (ok, dt) = verify_read(&mut m, &mut hl, inos[&file], expect, &mut buf);
                    t.reads.push(dt);
                    t.mismatches += u64::from(!ok);
                    t.user_bytes += len as u64;
                }
            }
            Op::Advance { micros } => {
                clock.advance_by(micros);
                advanced += micros;
            }
        }

        if (i + 1) % MAINT_EVERY == 0 {
            m.call(Layer::LfsSync, || hl.sync().expect("sync replay"));
            let (moved, _) = m.call(Layer::Migrator, || {
                migrator.run_once(&mut hl).expect("migration pass")
            });
            if moved.blocks > 0 {
                t.migrations += 1;
            }
            if hl.lfs().clean_segs() < migrator.low_water_segs {
                let (r, _) = m.call(Layer::Cleaner, || {
                    policy::disk_clean_once(&mut hl, cleaning).expect("disk clean")
                });
                if r.is_some_and(|r| r.segs_cleaned > 0) {
                    t.disk_cleans += 1;
                }
            }
            let (free, _) = m.call(Layer::Tcleaner, || free_tertiary_slots(&mut hl));
            if free <= SLOTS_PER_VOLUME {
                let (victim, _) = m.call(Layer::Tcleaner, || {
                    tcleaner::select_victim_volume_with(&mut hl, cleaning)
                });
                if let Some(vol) = victim {
                    // NoSpace is a deferral, not a failure: survivors
                    // need staging room, and the daemon retries after
                    // the migrator frees some.
                    let (r, _) = m.call(Layer::Tcleaner, || tcleaner::clean_volume(&mut hl, vol));
                    match r {
                        Ok(_) => t.tclean_passes += 1,
                        Err(LfsError::NoSpace) => {}
                        Err(e) => panic!("tertiary clean: {e:?}"),
                    }
                }
            }
        }
    }
    m.call(Layer::LfsSync, || hl.sync().expect("final sync"));
    // Final oracle sweep: every live file reads back its last version.
    for (&file, &(version, len)) in &model {
        let expect = &oracle[&(file, version)];
        let (ok, dt) = verify_read(&mut m, &mut hl, inos[&file], expect, &mut buf);
        t.reads.push(dt);
        t.mismatches += u64::from(!ok);
        t.user_bytes += len as u64;
    }
    let work_ns = w0.elapsed().as_nanos() as u64;

    assert_eq!(
        m.sim_total(),
        clock.now() - start - advanced,
        "every simulated µs outside scripted advances is inside a timed call"
    );
    let device_bytes = disk.stats().bytes_written + jukebox.stats().bytes_written;
    let cache = hl.tio().cache().borrow().stats();
    let fingerprint = Fingerprint {
        trace_digest: hl.tio().trace_digest(),
        hits: cache.hits,
        misses: cache.misses,
        write_amp_bits: ratio(device_bytes as f64, stream.bytes_written() as f64).to_bits(),
        verified: (t.reads.len() - reads_before) as u64,
    };
    t.add_meter(&m);
    t.add_instance(&mut hl, &jukebox, &disk);
    (StreamHost { setup_ns, work_ns }, fingerprint)
}

/// Runs the workload once: every stream of `seed`, each on a fresh rig.
/// Also returns each stream's drift-guard fingerprint.
pub fn run(seed: u64, traced: bool) -> (Rep, Vec<Fingerprint>) {
    let mut t = Totals::default();
    let (mut setup_ns, mut work_ns) = (0, 0);
    let mut prints = Vec::new();
    for s in stream_seeds(seed) {
        t.anchor_ns.push(anchor_ns());
        let (host, fp) = replay(s, traced, &mut t);
        setup_ns += host.setup_ns;
        work_ns += host.work_ns;
        prints.push(fp);
    }
    (t.into_rep(setup_ns, work_ns, Vec::new()), prints)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The replay drift guard: the metered replay is the policy
    /// harness's replay, on the first streams of the default and
    /// held-out seeds (every run of the benchmark checks all of them).
    #[test]
    fn metered_replay_matches_the_policy_harness() {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            for s in stream_seeds(seed).into_iter().take(3) {
                let mut t = Totals::default();
                let (_, got) = replay(s, true, &mut t);
                assert_eq!(got, reference_stream(s), "stream seed {s}");
                assert_eq!(t.mismatches, 0, "stream seed {s}: byte oracle");
                let rep = t.into_rep(0, 0, Vec::new());
                assert!(rep.sim.findings.is_empty(), "{:?}", rep.sim.findings);
            }
        }
    }
}
