//! Property tests for the trace wire format (ISSUE 6 satellite):
//! `Event::to_json_line` → `Event::from_value` must be lossless for every
//! `EventKind` and every combination of optional tags, and merged
//! histogram quantiles must stay within the documented one-bucket bound
//! of the exact combined-sample quantiles.

use proptest::prelude::*;
use rbvc_obs::{Event, EventKind, HistSnapshot, Histogram};

/// Build an event from sampled raw numbers: `kind_ix` indexes
/// `EventKind::ALL`, `flags` bits gate the optional tags, so all 2^5 tag
/// shapes x 13 kinds are exercised across cases.
fn build_event(
    kind_ix: usize,
    flags: u32,
    time_us: u64,
    ids: (u64, u64, u64, u64),
    detail_ix: usize,
) -> Event {
    const DETAILS: [&str; 4] = [
        "gate=auth from=5",
        "kind=eig bytes=244",
        "rx=3 tx=12 fsync_us=184 kernel_us=902",
        "latency_us=851950",
    ];
    let (a, b, c, d) = ids;
    let mut ev = Event::new(EventKind::ALL[kind_ix % EventKind::ALL.len()]);
    ev.time_us = time_us;
    if flags & 1 != 0 {
        ev = ev.node(a as u32);
    }
    if flags & 2 != 0 {
        ev = ev.instance(b);
    }
    if flags & 4 != 0 {
        ev = ev.round(c as u32);
    }
    if flags & 8 != 0 {
        ev = ev.peer(d as u32);
    }
    if flags & 16 != 0 {
        ev = ev.detail(DETAILS[detail_ix % DETAILS.len()]);
    }
    ev
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn event_jsonl_round_trip_is_lossless(
        kind_ix in 0usize..64,
        flags in 0u32..32,
        time_us in 0u64..u64::MAX,
        ids in (0u64..5_000, 0u64..1 << 48, 0u64..1 << 20, 0u64..5_000),
        detail_ix in 0usize..16,
    ) {
        let ev = build_event(kind_ix, flags, time_us, ids, detail_ix);
        let line = ev.to_json_line();
        let value = serde_json::from_str(&line)
            .map_err(|e| format!("render must parse: {e} in {line}"))?;
        let back = Event::from_value(&value);
        prop_assert_eq!(back, Some(ev));
    }

    #[test]
    fn every_kind_survives_a_fully_tagged_round_trip(
        seed in 0u64..1 << 40,
    ) {
        // Deterministically sweep ALL kinds each case so the full matrix
        // is covered regardless of which indices the sampler happens on.
        for (i, kind) in EventKind::ALL.into_iter().enumerate() {
            let mut ev = Event::new(kind)
                .node((seed % 97) as u32 + i as u32)
                .instance(seed ^ i as u64)
                .round((seed % 31) as u32)
                .peer((seed % 11) as u32)
                .detail("kind=va bytes=9");
            ev.time_us = seed.wrapping_mul(2654435761).wrapping_add(i as u64);
            let value = serde_json::from_str(&ev.to_json_line())
                .map_err(|e| format!("render must parse: {e}"))?;
            prop_assert_eq!(Event::from_value(&value), Some(ev));
        }
    }

    #[test]
    fn merged_histogram_quantiles_track_the_exact_combined_samples(
        xs in prop::collection::vec(0u64..2_000_000, 160),
        ys in prop::collection::vec(0u64..40_000, 90),
        p_ix in 0usize..5,
    ) {
        let record = |vals: &[u64]| {
            let h = Histogram::default();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let mut merged = record(&xs);
        merged.merge(&record(&ys));

        let mut all: Vec<u64> = xs.iter().chain(ys.iter()).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(merged.count, all.len() as u64);
        prop_assert_eq!(merged.sum, all.iter().sum::<u64>());
        prop_assert_eq!(merged.min, all[0]);
        prop_assert_eq!(merged.max, *all.last().unwrap());

        let p = [50.0, 75.0, 90.0, 99.0, 100.0][p_ix % 5];
        let rank = ((p / 100.0) * all.len() as f64).ceil().max(1.0) as usize;
        let truth = all[rank.min(all.len()) - 1] as f64;
        let est = merged.percentile(p);
        // Documented accuracy: exact at the extremes, otherwise within one
        // log2 bucket (a factor of two) of the true nearest-rank sample.
        prop_assert!(
            est <= 2.0 * truth.max(1.0) && est >= (truth / 2.0 - 1.0),
            "p{}: estimate {} strayed beyond one bucket of {}", p, est, truth
        );
        prop_assert_eq!(merged.percentile(100.0), merged.max as f64);
    }

    #[test]
    fn merge_and_serialization_commute(
        xs in prop::collection::vec(0u64..1 << 30, 64),
        split in 1usize..63,
    ) {
        let record = |vals: &[u64]| {
            let h = Histogram::default();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        // merge(serde(a), serde(b)) == serde(merge(a, b))
        let (lo, hi) = xs.split_at(split);
        let (a, b) = (record(lo), record(hi));
        let reload = |s: &HistSnapshot| -> Result<HistSnapshot, String> {
            let v = serde_json::from_str(&s.to_json_line("h"))
                .map_err(|e| format!("parse: {e}"))?;
            HistSnapshot::from_value(&v)
                .map(|(_, h)| h)
                .ok_or_else(|| "not a hist line".to_string())
        };
        let mut via_serde = reload(&a)?;
        via_serde.merge(&reload(&b)?);
        let mut direct = a.clone();
        direct.merge(&b);
        prop_assert_eq!(via_serde, reload(&direct)?);
    }
}
