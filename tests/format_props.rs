//! Property tests on the on-media formats, the uniform address space,
//! directory blocks, and the access tracker.

use highlight::migrator::AccessTracker;
use highlight::{TsegTable, UniformMap};
use hl_lfs::config::AddressMap;
use hl_lfs::dir;
use hl_lfs::ondisk::{
    cksum, Checkpoint, Dinode, Finfo, IfileEntry, SegSummary, SegUse, CHECKPOINT_SLOT,
};
use hl_lfs::types::{FileKind, DINODE_SIZE, NDIRECT, UNASSIGNED};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_dinode() -> impl Strategy<Value = Dinode> {
    (
        any::<u16>(),
        1u16..1000,
        any::<u32>(),
        any::<u64>(),
        any::<u32>(),
        proptest::collection::vec(any::<u32>(), NDIRECT),
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(mode, nlink, inumber, size, gen, db, ib0, ib1)| {
            let mut d = Dinode::empty();
            d.mode = mode;
            d.nlink = nlink;
            d.inumber = inumber;
            d.size = size;
            d.gen = gen;
            d.db.copy_from_slice(&db);
            d.ib = [ib0, ib1];
            d
        })
}

fn arb_summary() -> impl Strategy<Value = SegSummary> {
    (
        any::<u32>(),
        any::<u64>(),
        proptest::collection::vec(
            (
                any::<u32>(),
                any::<u32>(),
                1u32..4097,
                proptest::collection::vec(-5i32..2000, 1..20),
            ),
            0..8,
        ),
        proptest::collection::vec(any::<u32>(), 0..8),
    )
        .prop_map(|(next, serial, finfos, inode_addrs)| {
            let mut s = SegSummary::new(next, serial);
            s.finfos = finfos
                .into_iter()
                .map(|(ino, version, lastlength, blocks)| Finfo {
                    ino,
                    version,
                    lastlength,
                    blocks,
                })
                .collect();
            s.inode_addrs = inode_addrs;
            s
        })
}

/// A checksum input of `32 * groups + tail` bytes. The checksum reads
/// whole 32-byte groups four words at a time and the tail one byte at a
/// time, so a non-zero `tail` exercises the byte path.
fn arb_payload(
    groups: std::ops::Range<usize>,
    tail: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<u8>> {
    (groups, tail, any::<u64>()).prop_map(|(g, t, seed)| {
        let mut x = seed | 1;
        (0..32 * g + t)
            .map(|_| {
                // xorshift64: cheap, full-period, never all zero.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn cksum_detects_every_single_bit_flip(
        data in arb_payload(0..40, 1..32),
        at in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut flipped = data.clone();
        let at = at % data.len();
        flipped[at] ^= 1 << bit;
        prop_assert!(cksum(&flipped) != cksum(&data), "flip at byte {} bit {}", at, bit);
    }

    /// Words `a` and `b = a + gap` trade places. They share a lane
    /// when the gap is a multiple of four and sit in different lanes
    /// otherwise. Lengths with a tail are included, so words past the
    /// last whole group are swapped too.
    #[test]
    fn cksum_detects_swapped_words(
        data in arb_payload(16..40, 0..32),
        a in any::<usize>(),
        gap in 1usize..16,
        same_lane in any::<bool>(),
    ) {
        let gap = if same_lane { 4 * gap } else { gap + (gap % 4 == 0) as usize };
        let a = a % (data.len() / 8 - gap);
        let b = a + gap;
        let (wa, wb) = (8 * a..8 * a + 8, 8 * b..8 * b + 8);
        if data[wa.clone()] == data[wb.clone()] {
            return Ok(()); // swapping equal words changes nothing
        }
        let mut swapped = data.clone();
        swapped[wa.clone()].copy_from_slice(&data[wb.clone()]);
        swapped[wb].copy_from_slice(&data[wa]);
        prop_assert!(cksum(&swapped) != cksum(&data), "swap of words {} and {}", a, b);
    }

    #[test]
    fn cksum_detects_truncation_and_zero_extension(
        data in arb_payload(0..40, 1..32),
        cut in any::<usize>(),
        extra in 1usize..64,
    ) {
        let cut = 1 + cut % data.len();
        prop_assert!(cksum(&data[..data.len() - cut]) != cksum(&data), "cut {}", cut);
        let mut longer = data.clone();
        longer.resize(data.len() + extra, 0);
        prop_assert!(cksum(&longer) != cksum(&data), "zero-extended by {}", extra);
    }

    #[test]
    fn dinode_round_trips(d in arb_dinode()) {
        let mut slot = [0u8; DINODE_SIZE];
        d.encode(&mut slot);
        prop_assert_eq!(Dinode::decode(&slot), d);
    }

    #[test]
    fn summary_round_trips_and_rejects_bitflips(
        s in arb_summary(),
        flip_at in 0usize..4096,
        flip_bit in 0u8..8,
    ) {
        let payload = vec![0x5au8; 64 * (s.data_blocks() + s.inode_addrs.len())];
        if !s.fits(4096) {
            return Ok(());
        }
        let mut buf = vec![0u8; 4096];
        s.encode(&mut buf, SegSummary::datasum_of(&payload));
        let (back, datasum) = SegSummary::decode(&buf).expect("decode");
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(datasum, SegSummary::datasum_of(&payload));
        // Any single-bit flip must be detected (checksum) or be outside
        // the encoded region entirely (zero padding flips still break
        // ss_sumsum, which covers the whole block).
        let mut corrupt = buf.clone();
        corrupt[flip_at] ^= 1 << flip_bit;
        prop_assert!(SegSummary::decode(&corrupt).is_err());
    }

    #[test]
    fn checkpoint_round_trips(
        serial in any::<u64>(),
        log_serial in any::<u64>(),
        tert_serial in any::<u64>(),
        addr in any::<u32>(),
        seg in any::<u32>(),
        off in any::<u32>(),
        ts in any::<u64>(),
    ) {
        let c = Checkpoint {
            serial,
            log_serial,
            ifile_inode_addr: addr,
            next_seg: seg,
            next_off: off,
            timestamp: ts,
            tert_serial,
        };
        let mut slot = vec![0u8; CHECKPOINT_SLOT];
        c.encode(&mut slot);
        prop_assert_eq!(Checkpoint::decode(&slot), Some(c));
    }

    #[test]
    fn seguse_and_ifile_entries_round_trip(
        flags in any::<u32>(),
        live in any::<u32>(),
        avail in any::<u32>(),
        tag in any::<u32>(),
        ws in any::<u64>(),
        ft in any::<u64>(),
        version in any::<u32>(),
        daddr in any::<u32>(),
        free_next in any::<u32>(),
    ) {
        let u = SegUse { flags, live_bytes: live, avail_bytes: avail, cache_tag: tag, write_serial: ws, fetch_time: ft };
        let mut slot = [0u8; 32];
        u.encode(&mut slot);
        prop_assert_eq!(SegUse::decode(&slot), u);

        let e = IfileEntry { version, daddr, free_next };
        let mut slot = [0u8; 16];
        e.encode(&mut slot);
        prop_assert_eq!(IfileEntry::decode(&slot), e);
    }

    #[test]
    fn uniform_map_is_a_bijection(
        nsegs_disk in 4u32..5000,
        volumes in 1u32..64,
        spv in 1u32..256,
        probe in any::<u32>(),
    ) {
        let m = UniformMap::new(2, 256, nsegs_disk, volumes, spv);
        // Every (vol, slot) maps to a unique segment and back.
        let vol = probe % volumes;
        let slot = (probe / volumes) % spv;
        let seg = m.tert_seg(vol, slot);
        prop_assert_eq!(m.vol_slot(seg), Some((vol, slot)));
        prop_assert!(m.is_tertiary(seg));
        // Every block of that segment resolves to it.
        let base = m.seg_base(seg);
        prop_assert_eq!(m.seg_of(base), Some(seg));
        prop_assert_eq!(m.seg_of(base + 255), Some(seg));
        // Disk range and tertiary range never alias.
        prop_assert!(!m.is_secondary(seg));
        prop_assert!(m.is_secondary(nsegs_disk - 1));
        prop_assert!(!m.is_tertiary(nsegs_disk - 1));
    }

    #[test]
    fn tsegtable_round_trips(
        entries in proptest::collection::btree_map(any::<u32>(), 0u32..u32::MAX / 2, 0..50),
    ) {
        let mut t = TsegTable::new();
        for (&seg, &bytes) in &entries {
            t.add_live(seg, bytes as i64);
        }
        let back = TsegTable::decode(&t.encode());
        for (&seg, &bytes) in &entries {
            prop_assert_eq!(back.seg(seg).live_bytes, bytes);
        }
        prop_assert_eq!(back.live_total(), t.live_total());
    }

    #[test]
    fn dir_block_matches_btreemap_model(
        ops in proptest::collection::vec(
            ((0u8..20), any::<bool>()),
            1..60
        ),
    ) {
        let mut block = vec![0u8; 4096];
        dir::init_block(&mut block);
        let mut model: BTreeMap<String, u32> = BTreeMap::new();
        for (i, (name_id, insert)) in ops.into_iter().enumerate() {
            let name = format!("entry_{name_id}");
            if insert {
                if model.contains_key(&name) {
                    continue; // the FS layer prevents duplicate adds
                }
                let ino = i as u32 + 10;
                if dir::add(&mut block, &name, ino, FileKind::Regular).expect("add") {
                    model.insert(name, ino);
                }
            } else {
                let got = dir::remove(&mut block, &name);
                prop_assert_eq!(got, model.remove(&name), "remove {}", name);
            }
        }
        // Full agreement at the end.
        let listed: BTreeMap<String, u32> = dir::entries(&block)
            .into_iter()
            .map(|e| (e.name, e.ino))
            .collect();
        prop_assert_eq!(listed, model);
    }

    #[test]
    fn tracker_extents_stay_disjoint_sorted_and_covering(
        accesses in proptest::collection::vec(
            (0u64..2_000_000, 1u64..100_000, 0u64..1_000_000_000),
            1..80
        ),
    ) {
        let mut t = AccessTracker::with_max_extents(8);
        let mut max_end = 0u32;
        for (off, len, now) in accesses {
            t.record(1, off, len, now);
            max_end = max_end.max(((off + len).div_ceil(4096)) as u32);
            let ex = t.extents(1);
            prop_assert!(!ex.is_empty());
            prop_assert!(ex.len() <= 8, "extent bound violated: {}", ex.len());
            for w in ex.windows(2) {
                prop_assert!(w[0].end <= w[1].start, "overlap/sort violated");
            }
            for e in ex {
                prop_assert!(e.start < e.end, "empty extent");
            }
        }
        // Coverage: the furthest block ever touched is inside an extent.
        let ex = t.extents(1);
        prop_assert!(ex.iter().any(|e| e.end >= max_end), "tail coverage lost");
    }
}

/// Every single-bit flip of whole blocks, not a sample: the zero block
/// (no carries), the all-ones block, a summary block's `ss_sumsum`
/// range (4092 bytes: a 28-byte tail) and a short tail-only input.
#[test]
fn cksum_detects_every_bit_flip_exhaustively() {
    let mut ramp = vec![0u8; 4092];
    for (i, b) in ramp.iter_mut().enumerate() {
        *b = (i * 7) as u8;
    }
    for data in [
        vec![0u8; 4096],
        vec![0xffu8; 4096],
        ramp,
        b"HighLight".to_vec(),
    ] {
        let want = cksum(&data);
        let mut flipped = data.clone();
        for at in 0..data.len() {
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                assert_ne!(
                    cksum(&flipped),
                    want,
                    "len {} byte {at} bit {bit}",
                    data.len()
                );
                flipped[at] ^= 1 << bit;
            }
        }
    }
}

/// `UNASSIGNED` never collides with a real tertiary block address.
#[test]
fn unassigned_is_out_of_band() {
    let m = UniformMap::new(2, 256, 848, 32, 40);
    assert_eq!(m.seg_of(UNASSIGNED), None);
}
