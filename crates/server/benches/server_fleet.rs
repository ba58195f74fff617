//! Client-fleet server benchmark (DESIGN.md §6h).
//!
//! Runs closed-loop protocol client fleets of increasing size against
//! the sharded engine through two worker-pool disciplines (plus the
//! naive one-worker-per-connection baseline at the smallest size),
//! reporting client-observed p50/p95/p99 latency per client count.
//! Gates, printed for CI:
//!
//! * every run replays with zero tracecheck findings and zero lost
//!   tickets;
//! * the 1000-client run is byte-stable — an identical rerun produces
//!   the same combined trace digest;
//! * coalescing holds at the server layer — N concurrent gets of one
//!   cold object cost exactly one media read;
//! * fairness — with a prefetch-storm tenant sharing the server, the
//!   victim tenant's demand p95 degrades at most 2x over running solo.
//!
//! Each row also records `steps_per_request`: scheduler steps (every
//! actor, engine included) per answered request, the host-side cost
//! that event-driven workers keep low; `ci.sh` gates it at 1000 clients.
//!
//! Emits `BENCH_server.json` at the repository root.

use std::path::Path;

use hl_server::fleet::{run_fleet, FleetConfig, FleetReport, StormConfig};
use hl_server::pool::PoolKind;
use hl_server::shard::ShardSpec;
use highlight::segcache::EjectPolicy;

const MS: u64 = 1_000;

/// The scale-sweep geometry: 4 shards of 8 volumes x 32 slots, 1024
/// objects total, 4 drives and 64 cache lines per shard.
fn sweep_config(pool: PoolKind, clients: u32) -> FleetConfig {
    FleetConfig {
        seed: 1993,
        clients,
        requests_per_client: 2,
        tenants: 8,
        pool,
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

/// The fairness rig: one shard, scarce drives, so the storm and the
/// victim genuinely contend for media.
fn fairness_config(tenants: u32, clients: u32) -> FleetConfig {
    FleetConfig {
        seed: 77,
        clients,
        requests_per_client: 4,
        tenants,
        pool: PoolKind::SharedQueue,
        workers: 4,
        shards: 1,
        spec: ShardSpec {
            volumes: 6,
            segments_per_volume: 16,
            cache_lines: 24,
            drives: 2,
        },
        zipf_exponent: 0.9,
        think: 100 * MS,
        open_loop: None,
        storm: None,
        weights: Vec::new(),
        eject: EjectPolicy::Lru,
    }
}

fn gate(name: &str, r: &FleetReport) {
    assert_eq!(r.findings, 0, "{name}: tracecheck findings");
    assert_eq!(r.lost_tickets, 0, "{name}: lost tickets");
    assert_eq!(r.errors, 0, "{name}: protocol errors");
    println!("{name}: Tracecheck: 0 findings");
}

fn row_json(r: &FleetReport) -> String {
    format!(
        "{{\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"completed\":{},\
         \"errors\":{},\"lost_tickets\":{},\"tracecheck_findings\":{},\
         \"tenant_admits\":{},\"tenant_throttles\":{},\"steals\":{},\
         \"demand_fetches\":{},\"coalesced_fetches\":{},\
         \"end_time_us\":{},\"steps_per_request\":{:.1},\
         \"trace_digest\":\"{:016x}\"}}",
        r.p50,
        r.p95,
        r.p99,
        r.completed,
        r.errors,
        r.lost_tickets,
        r.findings,
        r.tenant_admits,
        r.tenant_throttles,
        r.steals,
        r.demand_fetches,
        r.coalesced_fetches,
        r.end_time,
        r.sched_steps as f64 / r.completed.max(1) as f64,
        r.digest,
    )
}

fn main() {
    // ---- Scale sweep: latency percentiles vs client count. ---------
    let counts = [100u32, 400, 1000];
    let pools = [PoolKind::SharedQueue, PoolKind::WorkStealing];
    let mut sweep: Vec<(PoolKind, u32, FleetReport)> = Vec::new();
    println!("pool           clients  completed   p50(ms)   p95(ms)   p99(ms)  steals");
    for &pool in &pools {
        for &clients in &counts {
            let cfg = sweep_config(pool, clients);
            let r = run_fleet(&cfg);
            gate(&format!("fleet {}/{}", pool.label(), clients), &r);
            assert_eq!(
                r.completed,
                (cfg.clients * cfg.requests_per_client) as u64,
                "{}/{}: every request answered",
                pool.label(),
                clients
            );
            println!(
                "{:<14} {:>7} {:>10} {:>9.1} {:>9.1} {:>9.1} {:>7}",
                pool.label(),
                clients,
                r.completed,
                r.p50 as f64 / 1e3,
                r.p95 as f64 / 1e3,
                r.p99 as f64 / 1e3,
                r.steals
            );
            sweep.push((pool, clients, r));
        }
    }
    // Naive baseline: one worker per connection, smallest fleet only.
    let naive_cfg = sweep_config(PoolKind::Naive, 100);
    let naive = run_fleet(&naive_cfg);
    gate("fleet naive/100", &naive);
    println!(
        "{:<14} {:>7} {:>10} {:>9.1} {:>9.1} {:>9.1} {:>7}",
        "naive",
        100,
        naive.completed,
        naive.p50 as f64 / 1e3,
        naive.p95 as f64 / 1e3,
        naive.p99 as f64 / 1e3,
        naive.steals
    );

    // ---- Determinism: the 1000-client run is byte-stable. ----------
    let big = sweep
        .iter()
        .find(|(p, c, _)| *p == PoolKind::SharedQueue && *c == 1000)
        .map(|(_, _, r)| r.clone())
        .expect("1000-client run present");
    let replay = run_fleet(&sweep_config(PoolKind::SharedQueue, 1000));
    let deterministic = replay.digest == big.digest && replay.end_time == big.end_time;
    println!(
        "Determinism check (1000 clients, two runs): digest {:016x} == {:016x} -> {}",
        big.digest, replay.digest, deterministic
    );

    // ---- Server-layer coalescing: one cold object, many clients. ---
    let mut co_cfg = FleetConfig::small(3, PoolKind::SharedQueue);
    co_cfg.clients = 64;
    co_cfg.requests_per_client = 1;
    co_cfg.tenants = 1;
    co_cfg.think = 0;
    co_cfg.zipf_exponent = 50.0; // degenerate: everyone draws one object
    let co = run_fleet(&co_cfg);
    gate("fleet coalesce/64", &co);
    let coalesced_ok = co.demand_fetches == 1 && co.completed == 64;
    println!(
        "Coalescing check (64 concurrent gets of one cold object): {} media read(s), {} coalesced -> {}",
        co.demand_fetches, co.coalesced_fetches, coalesced_ok
    );

    // ---- Fairness: prefetch-storm tenant vs demand tenant. ---------
    // Solo: the victim tenant alone (its clients and draw sequence are
    // identical in both runs — streams are per-tenant).
    let solo = run_fleet(&fairness_config(1, 8));
    gate("fleet fairness-solo", &solo);
    let mut storm_cfg = fairness_config(2, 16);
    storm_cfg.storm = Some(StormConfig {
        tenant: 1,
        width: 8,
    });
    let storm = run_fleet(&storm_cfg);
    gate("fleet fairness-storm", &storm);
    let solo_p95 = solo.per_tenant[&0].p95;
    let storm_p95 = storm.per_tenant[&0].p95;
    let ratio = storm_p95 as f64 / solo_p95.max(1) as f64;
    let fairness_ok = ratio <= 2.0;
    println!(
        "Fairness check (victim demand p95 under storm): solo {:.1} ms, storm {:.1} ms, ratio {:.2} <= 2.0 -> {} ({} throttles, {} admits)",
        solo_p95 as f64 / 1e3,
        storm_p95 as f64 / 1e3,
        ratio,
        fairness_ok,
        storm.tenant_throttles,
        storm.tenant_admits
    );

    println!("Fleet checks");
    println!("  every_request_answered          true");
    println!("  deterministic_at_1000_clients   {deterministic}");
    println!("  coalescing_holds_at_server      {coalesced_ok}");
    println!("  fairness_p95_within_2x          {fairness_ok}");
    assert!(deterministic, "1000-client fleet must be byte-stable");
    assert!(coalesced_ok, "server-layer coalescing regressed");
    assert!(fairness_ok, "storm starved the victim tenant");

    // ---- BENCH_server.json ----------------------------------------
    let mut pool_objs: Vec<String> = Vec::new();
    for &pool in &pools {
        let rows: Vec<String> = sweep
            .iter()
            .filter(|(p, _, _)| *p == pool)
            .map(|(_, c, r)| format!("\"{}\":{}", c, row_json(r)))
            .collect();
        pool_objs.push(format!("\"{}\":{{{}}}", pool.label(), rows.join(",")));
    }
    pool_objs.push(format!("\"naive\":{{\"100\":{}}}", row_json(&naive)));
    let json = format!(
        "{{\"server_fleet\":{{{}}},\"coalescing\":{{\"clients\":64,\"media_reads\":{},\"coalesced\":{}}},\
         \"fairness\":{{\"solo_p95_us\":{},\"storm_p95_us\":{},\"ratio\":{:.4},\"bound\":2.0,\
         \"storm_throttles\":{},\"storm_admits\":{}}}}}",
        pool_objs.join(","),
        co.demand_fetches,
        co.coalesced_fetches,
        solo_p95,
        storm_p95,
        ratio,
        storm.tenant_throttles,
        storm.tenant_admits
    );
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_server.json");
    std::fs::write(&out, &json).expect("write BENCH_server.json");
    println!("wrote {}", out.display());
}
