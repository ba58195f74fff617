//! `fleet_get`: closed loops of 1000 protocol clients × 4 `Get`s
//! through `hl_server::fleet::run_fleet`, on the `BENCH_server.json`
//! sweep geometry; one repetition runs [`FLEETS`] fleets from seeds
//! derived from the workload seed.
//!
//! The only workload through `hl-server` (proto, pool, shards), the
//! tenant fair queue, the scheduler with thousands of actors, and
//! duplicate-fetch coalescing. It never reaches the LFS writer,
//! checksums, buffer cache, cleaner or migrator.
//!
//! `run_fleet` builds its engine and runs every layer inside one call,
//! so only what `FleetReport` exposes, the protocol codec and the engine
//! build are reachable from here; the split of host time across
//! scheduler, pool and engine waits for an in-program ledger.

use std::time::Instant;

use highlight::segcache::EjectPolicy;
use hl_server::fleet::{run_fleet, FleetConfig};
use hl_server::pool::PoolKind;
use hl_server::proto::{self, Req, RequestFrame, ResponseFrame};
use hl_server::shard::{ShardSpec, ShardedEngine};
use hl_sim::time::MS;
use hl_sim::Scheduler;
use hl_workload::{TenantMix, ZipfStore};

use crate::{anchor_ns, ratio, sub_seeds, Rep, SimOutcome, SimValue};

/// The seed the workload is tuned on (the `BENCH_server.json` seed).
pub const DEFAULT_SEED: u64 = 1993;
/// A seed kept for re-checking claims made on the default one.
pub const HELD_OUT_SEED: u64 = 2027;

/// Fleets one repetition runs, each from its own seed.
pub const FLEETS: u64 = 4;

/// The workload's fleet configuration under `seed`.
pub fn config(seed: u64) -> FleetConfig {
    FleetConfig {
        seed,
        clients: 1000,
        requests_per_client: 4,
        tenants: 8,
        pool: PoolKind::SharedQueue,
        workers: 8,
        shards: 4,
        spec: ShardSpec {
            volumes: 8,
            segments_per_volume: 32,
            cache_lines: 64,
            drives: 4,
        },
        zipf_exponent: 0.9,
        think: 200 * MS,
        open_loop: None,
        storm: None,
        weights: Vec::new(),
        eject: EjectPolicy::Lru,
    }
}

/// The request frames the fleet's clients send, rebuilt from the same
/// tenant mix and per-tenant Zipf streams `run_fleet` draws from.
fn request_frames(cfg: &FleetConfig) -> Vec<RequestFrame> {
    let objects = cfg.shards as u64 * cfg.spec.objects();
    let mix = TenantMix::new(
        cfg.seed,
        cfg.tenants,
        0,
        1,
        cfg.spec.volumes,
        cfg.spec.segments_per_volume,
        cfg.think,
    );
    let mut stores: Vec<ZipfStore> = (0..cfg.tenants)
        .map(|t| {
            ZipfStore::new(
                cfg.seed ^ (t as u64).wrapping_mul(0xa076_1d64_78bd_642f),
                objects as u32,
                cfg.zipf_exponent,
            )
        })
        .collect();
    let mut frames = Vec::new();
    for c in 0..cfg.clients {
        let t = c as usize % mix.tenants.len();
        for i in 0..cfg.requests_per_client {
            frames.push(RequestFrame {
                tenant: mix.tenants[t].id,
                req_id: ((c as u64) << 32) | (i as u64 + 1),
                req: Req::Get {
                    obj: stores[t].next_object() as u64,
                },
            });
        }
    }
    frames
}

/// Host ns to encode and decode every request the fleet sends and a
/// response to each; returns the ns and the frames handled.
fn proto_ns(frames: &[RequestFrame]) -> (f64, f64) {
    let t0 = Instant::now();
    let mut buf = Vec::with_capacity(64);
    let mut check = 0u64;
    for f in frames {
        buf.clear();
        proto::encode_request(f, &mut buf);
        let (got, _) = proto::decode_request(&buf)
            .expect("well-formed request")
            .expect("whole request");
        buf.clear();
        proto::encode_response(
            &ResponseFrame {
                req_id: got.req_id,
                result: Ok(got.req_id),
            },
            &mut buf,
        );
        let (resp, _) = proto::decode_response(&buf)
            .expect("well-formed response")
            .expect("whole response");
        check = check.wrapping_add(std::hint::black_box(resp.req_id));
    }
    let ns = t0.elapsed().as_nanos() as f64;
    std::hint::black_box(check);
    (ns, (2 * frames.len()) as f64)
}

/// Runs the workload once: every fleet of `seed`, one after another.
///
/// `FleetReport` keeps percentiles, not samples, so the repetition's
/// latency percentiles are the mean over its fleets of each fleet's.
pub fn run(seed: u64, traced: bool) -> Rep {
    let (mut setup_ns, mut work_ns) = (0u64, 0u64);
    let (mut attempted, mut failed, mut makespan_us) = (0u64, 0u64, 0u64);
    let (mut completed, mut demand, mut coalesced) = (0u64, 0u64, 0u64);
    let (mut admits, mut throttles) = (0u64, 0u64);
    let (mut p50, mut p95, mut p99, mut spread) = (0.0, 0.0, 0.0, 0.0);
    let mut digest = 0u64;
    let mut findings = Vec::new();
    let (mut codec_ns, mut codec_frames) = (0.0, 0.0);
    // The default seed's first fleet is `BENCH_server.json`'s.
    let seeds = sub_seeds(seed, FLEETS);
    let mut anchor = Vec::new();
    for &s in &seeds {
        anchor.push(anchor_ns());
        let cfg = config(s);
        // `run_fleet` builds its engine inside itself; the same build is
        // timed here as its own call so set-up shows on its own.
        let s0 = Instant::now();
        {
            let mut sched: Scheduler<()> = Scheduler::new();
            let engine = ShardedEngine::build_with_eject(
                cfg.seed, cfg.shards, cfg.spec, &mut sched, cfg.eject,
            );
            std::hint::black_box(&engine);
        }
        setup_ns += s0.elapsed().as_nanos() as u64;

        let w0 = Instant::now();
        let r = run_fleet(&cfg);
        work_ns += w0.elapsed().as_nanos() as u64;

        let asked = cfg.clients as u64 * cfg.requests_per_client as u64;
        attempted += asked;
        failed += r.errors + r.lost_tickets + asked.saturating_sub(r.completed);
        makespan_us += r.end_time;
        completed += r.completed;
        demand += r.demand_fetches;
        coalesced += r.coalesced_fetches;
        admits += r.tenant_admits;
        throttles += r.tenant_throttles;
        p50 += r.p50 as f64;
        p95 += r.p95 as f64;
        p99 += r.p99 as f64;
        let p95s = r.per_tenant.values().map(|t| t.p95 as f64);
        let worst = p95s.clone().fold(0.0, f64::max);
        let best = p95s.fold(f64::INFINITY, f64::min);
        spread += ratio(worst, best);
        digest = digest.rotate_left(17) ^ r.digest;
        findings.extend(
            (0..r.findings).map(|i| format!("fleet seed {s}: shard finding {i} (counted only)")),
        );
        if traced {
            let (ns, frames) = proto_ns(&request_frames(&cfg));
            codec_ns += ns;
            codec_frames += frames;
        }
    }
    let k = seeds.len() as f64;
    let hits = completed.saturating_sub(demand + coalesced);
    let v = |name, value, n| SimValue { name, value, n };
    let values = vec![
        v("read_p50_ms", p50 / k / 1e3, completed),
        v("read_p95_ms", p95 / k / 1e3, completed),
        v("read_p99_ms", p99 / k / 1e3, completed),
        v("server.tenant_p95_spread", spread / k, completed),
        v(
            "requests.coalesce_ratio",
            ratio(coalesced as f64, (demand + coalesced) as f64),
            1,
        ),
        v("requests.tenant_admits", admits as f64, 1),
        v("requests.tenant_throttles", throttles as f64, 1),
        v("service.demand_fetches", demand as f64, 1),
        v(
            "segcache.hit_ratio",
            ratio(hits as f64, completed as f64),
            1,
        ),
    ];
    Rep {
        sim: SimOutcome {
            digest,
            findings,
            attempted,
            failed,
            user_bytes: 0,
            makespan_us,
            layer_sim_us: None,
            values,
        },
        setup_ns,
        work_ns,
        layer_host_ns: [0; 7],
        layer_calls: [0; 7],
        proto_ns_per_frame: traced.then(|| codec_ns / codec_frames),
        anchor_ns: anchor,
    }
}
