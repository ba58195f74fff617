//! Equivalence suite for the indexed buffer cache: [`BufCache`] keeps a
//! clean-block LRU index and an ordered dirty set so that eviction and
//! the segment writer's dirty scans cost time in proportion to the
//! blocks they touch. It must behave exactly like the plain map it
//! replaced, whose eviction scanned every block with `min_by_key` over
//! the clean blocks' LRU ticks. That map lives on below as the model.

use std::collections::{BTreeMap, HashMap};

use hl_lfs::buffer::BufCache;
use hl_lfs::types::{BlockAddr, Ino, LBlock, UNASSIGNED};
use proptest::prelude::*;

/// Block size for the suite: small, since only identity matters.
const BS: usize = 16;

/// The reference: one map, LRU ticks, full scans.
struct Model {
    map: HashMap<(Ino, LBlock), ModelBuf>,
    capacity: usize,
    tick: u64,
}

struct ModelBuf {
    fill: u8,
    dirty: bool,
    addr: BlockAddr,
    last_used: u64,
}

impl Model {
    fn new(capacity: usize) -> Model {
        Model {
            map: HashMap::new(),
            capacity,
            tick: 0,
        }
    }

    fn get(&mut self, key: (Ino, LBlock)) -> Option<u8> {
        self.tick += 1;
        let b = self.map.get_mut(&key)?;
        b.last_used = self.tick;
        Some(b.fill)
    }

    fn insert(&mut self, key: (Ino, LBlock), fill: u8, dirty: bool, addr: BlockAddr) {
        self.tick += 1;
        let last_used = self.tick;
        self.map.insert(
            key,
            ModelBuf {
                fill,
                dirty,
                addr,
                last_used,
            },
        );
    }

    fn shrink_to_capacity(&mut self) -> usize {
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            let victim = self
                .map
                .iter()
                .filter(|(_, b)| !b.dirty)
                .min_by_key(|(_, b)| b.last_used)
                .map(|(&k, _)| k);
            match victim {
                Some(k) => {
                    self.map.remove(&k);
                    evicted += 1;
                }
                None => break,
            }
        }
        evicted
    }

    fn dirty_keys(&self) -> Vec<(Ino, Vec<LBlock>)> {
        let mut by_ino: BTreeMap<Ino, Vec<LBlock>> = BTreeMap::new();
        for (&(ino, lb), b) in &self.map {
            if b.dirty {
                by_ino.entry(ino).or_default().push(lb);
            }
        }
        by_ino
            .into_iter()
            .map(|(ino, mut blocks)| {
                blocks.sort();
                (ino, blocks)
            })
            .collect()
    }

    /// `(ino, lblock, addr, dirty)` for every resident block, sorted.
    fn meta(&self) -> Vec<(Ino, LBlock, BlockAddr, bool)> {
        let mut out: Vec<_> = self
            .map
            .iter()
            .map(|(&(ino, lb), b)| (ino, lb, b.addr, b.dirty))
            .collect();
        out.sort();
        out
    }
}

fn meta(cache: &BufCache) -> Vec<(Ino, LBlock, BlockAddr, bool)> {
    let mut out: Vec<_> = cache.iter_meta().collect();
    out.sort();
    out
}

/// Resident keys in `before` but not in `after`.
fn gone(
    before: &[(Ino, LBlock, BlockAddr, bool)],
    after: &[(Ino, LBlock, BlockAddr, bool)],
) -> Vec<(Ino, LBlock)> {
    before
        .iter()
        .filter(|m| !after.iter().any(|n| (n.0, n.1) == (m.0, m.1)))
        .map(|m| (m.0, m.1))
        .collect()
}

/// A small key space, so operations collide often: three inodes, data
/// blocks 0..5 and every indirect kind.
fn key(ino: u8, lb: u8) -> (Ino, LBlock) {
    let lb = match lb {
        0..=4 => LBlock::Data(lb as u32),
        5 => LBlock::Ind1,
        6 => LBlock::Ind2,
        _ => LBlock::Ind2Child(lb as u32 % 2),
    };
    (1 + ino as Ino % 3, lb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random histories of every cache operation: after each step the
    /// resident set (with addresses and dirtiness), `len`,
    /// `dirty_count` and `dirty_keys` match the model, and every
    /// eviction removes exactly the blocks the full scan picks.
    #[test]
    fn indexed_cache_matches_full_scan_model(
        capacity in 8usize..12,
        ops in prop::collection::vec((0u8..16, 0u8..3, 0u8..9, any::<u8>()), 1..300),
    ) {
        let mut cache = BufCache::new((capacity * BS) as u64, BS);
        let mut model = Model::new(capacity);
        for (step, (op, ino, lb, arg)) in ops.into_iter().enumerate() {
            let k = key(ino, lb);
            let before = meta(&cache);
            match op {
                // Insert (or replace), clean or dirty.
                0..=2 => {
                    let dirty = arg & 1 == 1;
                    let addr = if dirty { UNASSIGNED } else { arg as BlockAddr };
                    cache.insert(k.0, k.1, vec![arg; BS].into_boxed_slice(), dirty, addr);
                    model.insert(k, arg, dirty, addr);
                }
                // Lookup: refreshes the LRU tick, hit or miss.
                3..=5 => {
                    let got = cache.get(k.0, k.1).map(|b| b.data[0]);
                    prop_assert_eq!(got, model.get(k));
                }
                // Write through `get_mut`, then mark the block dirty.
                6 | 7 => {
                    let hit = match cache.get_mut(k.0, k.1) {
                        Some(b) => {
                            b.data.fill(arg);
                            true
                        }
                        None => false,
                    };
                    prop_assert_eq!(hit, model.get(k).is_some());
                    if hit {
                        cache.mark_dirty(k.0, k.1);
                        let b = model.map.get_mut(&k).expect("resident");
                        b.fill = arg;
                        b.dirty = true;
                    }
                }
                // The segment writer flushed the block.
                8 | 9 => {
                    let addr = 1000 + arg as BlockAddr;
                    cache.mark_clean(k.0, k.1, addr);
                    if let Some(b) = model.map.get_mut(&k) {
                        b.dirty = false;
                        b.addr = addr;
                    }
                }
                10 => {
                    cache.remove(k.0, k.1);
                    model.map.remove(&k);
                }
                11 => {
                    cache.remove_file(k.0);
                    model.map.retain(|&(i, _), _| i != k.0);
                }
                12 => {
                    cache.drop_clean();
                    model.map.retain(|_, b| b.dirty);
                }
                // Eviction.
                _ => {
                    let evicted = cache.shrink_to_capacity();
                    let want_gone = {
                        let m_before = model.meta();
                        let n = model.shrink_to_capacity();
                        prop_assert_eq!(evicted, n, "step {}: eviction count", step);
                        gone(&m_before, &model.meta())
                    };
                    prop_assert_eq!(gone(&before, &meta(&cache)), want_gone,
                        "step {}: evicted set", step);
                }
            }
            prop_assert_eq!(meta(&cache), model.meta(), "step {}: resident set", step);
            prop_assert_eq!(cache.len(), model.map.len());
            prop_assert_eq!(cache.over_capacity(), model.map.len() > capacity);
            prop_assert_eq!(
                cache.dirty_count(),
                model.map.values().filter(|b| b.dirty).count()
            );
            prop_assert_eq!(cache.dirty_keys(), model.dirty_keys(), "step {}", step);
        }
    }
}
