//! Process-wide memo cache for Monte-Carlo position PDFs.
//!
//! The figure drivers and repro binaries recompute identical PDFs
//! constantly — `figure4` alone asks for the same three panels every
//! run, and the ablation sweeps revisit the Table 1 baseline between
//! variants. A [`crate::montecarlo::PositionPdf`] is a pure function of
//! `(engine, DeviceParams, distance, trials, seed)` and every one of
//! those inputs has a total bitwise identity, so memoisation is sound:
//! a hit returns a clone that is bit-identical to a fresh computation.
//!
//! The key carries the [`Engine`] tag so the Monte-Carlo and analytic
//! engines can never alias to the same entry. Analytic PDFs depend on
//! neither trials nor seed, so those fields are normalised to zero in
//! analytic keys — every analytic request for a `(params, distance)`
//! pair hits the same entry.
//!
//! The cache is bounded ([`CACHE_CAPACITY`] entries); when full it is
//! cleared wholesale before inserting, which keeps the policy
//! deterministic (no clock- or order-dependent eviction) and is
//! harmless at the access rates of figure drivers. Hits and misses are
//! counted as `mc.pdf_cache.hits` / `mc.pdf_cache.misses` in the
//! caller's observer.

use crate::analytic::{position_pdf_analytic, Engine};
use crate::montecarlo::{position_pdf_with_threads, PositionPdf};
use crate::params::DeviceParams;
use rtm_obs::Obs;
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Maximum cached PDFs; past this the cache is cleared and restarted.
pub const CACHE_CAPACITY: usize = 128;

/// Full bitwise identity of one PDF computation, engine included.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PdfKey {
    engine: u8,
    params: [u64; 11],
    distance: u32,
    trials: u64,
    seed: u64,
}

fn cache() -> &'static Mutex<HashMap<PdfKey, PositionPdf>> {
    static CACHE: OnceLock<Mutex<HashMap<PdfKey, PositionPdf>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// [`position_pdf`] behind the process-wide memo cache (Monte-Carlo
/// engine; see [`position_pdf_cached_engine`] for the engine-generic
/// entry point).
///
/// [`position_pdf`]: crate::montecarlo::position_pdf
///
/// # Panics
///
/// Panics if `distance == 0` or `trials == 0` (as [`position_pdf`]).
pub fn position_pdf_cached(
    params: &DeviceParams,
    distance: u32,
    trials: u64,
    seed: u64,
) -> PositionPdf {
    position_pdf_cached_engine(
        params,
        distance,
        trials,
        seed,
        Engine::MonteCarlo,
        &Obs::default(),
    )
}

/// The position-error PDF for `(params, distance)` from the requested
/// engine, behind the process-wide memo cache. Cache hits and misses,
/// analytic PDFs computed (`engine.analytic.pdfs`) and the Monte-Carlo
/// run of a miss (see [`crate::montecarlo::position_pdf_with_threads`])
/// record into `obs`.
///
/// For [`Engine::MonteCarlo`] the key is the full
/// `(params, distance, trials, seed)` identity; for
/// [`Engine::Analytic`] the result is trials- and seed-independent, so
/// both are normalised to zero in the key and any analytic request for
/// the same `(params, distance)` hits.
///
/// The lock is released while a miss computes, so concurrent misses on
/// different keys proceed in parallel; two concurrent misses on the
/// *same* key both compute and insert the identical value, which is
/// wasteful but correct.
///
/// # Panics
///
/// Panics if `distance == 0`, or (Monte-Carlo only) if `trials == 0`.
pub fn position_pdf_cached_engine(
    params: &DeviceParams,
    distance: u32,
    trials: u64,
    seed: u64,
    engine: Engine,
    obs: &Obs,
) -> PositionPdf {
    let key = match engine {
        Engine::MonteCarlo => PdfKey {
            engine: engine.cache_tag(),
            params: params.bit_key(),
            distance,
            trials,
            seed,
        },
        Engine::Analytic => PdfKey {
            engine: engine.cache_tag(),
            params: params.bit_key(),
            distance,
            trials: 0,
            seed: 0,
        },
    };
    if let Some(hit) = cache().lock().expect("pdf cache poisoned").get(&key) {
        obs.counter_add("mc.pdf_cache.hits", 1);
        return hit.clone();
    }
    obs.counter_add("mc.pdf_cache.misses", 1);
    let pdf = match engine {
        Engine::MonteCarlo => {
            position_pdf_with_threads(params, distance, trials, seed, rtm_par::threads(), obs)
        }
        Engine::Analytic => {
            obs.counter_add("engine.analytic.pdfs", 1);
            position_pdf_analytic(params, distance)
        }
    };
    let mut map = cache().lock().expect("pdf cache poisoned");
    if map.len() >= CACHE_CAPACITY {
        map.clear();
    }
    map.insert(key, pdf.clone());
    pdf
}

/// Number of PDFs currently cached.
pub fn cached_len() -> usize {
    cache().lock().expect("pdf cache poisoned").len()
}

/// Empties the cache (tests and long-lived services).
pub fn clear() {
    cache().lock().expect("pdf cache poisoned").clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo::position_pdf;

    // One test exercises the shared process-wide cache end to end;
    // keeping it single threaded avoids cross-test interference on the
    // global map.
    #[test]
    fn cache_hit_is_bit_identical_and_bounded() {
        clear();
        let params = DeviceParams::table1();
        let fresh = position_pdf_cached(&params, 3, 10_000, 77);
        assert_eq!(cached_len(), 1);
        let hit = position_pdf_cached(&params, 3, 10_000, 77);
        assert_eq!(fresh, hit);
        assert_eq!(hit, position_pdf(&params, 3, 10_000, 77));
        assert_eq!(cached_len(), 1);

        // Different key -> different entry.
        let other = position_pdf_cached(&params, 4, 10_000, 77);
        assert_ne!(other, fresh);
        assert_eq!(cached_len(), 2);

        // Overflowing the capacity clears and restarts rather than
        // growing without bound.
        for s in 0..(CACHE_CAPACITY as u64 + 3) {
            let _ = position_pdf_cached(&params, 1, 64, 1000 + s);
        }
        assert!(cached_len() <= CACHE_CAPACITY);
        clear();
        assert_eq!(cached_len(), 0);

        // Engine tags must never alias: an mc-keyed and an
        // analytic-keyed lookup for the same (params, distance, trials,
        // seed) miss each other and cache distinct values.
        let mc =
            position_pdf_cached_engine(&params, 3, 10_000, 77, Engine::MonteCarlo, &Obs::default());
        assert_eq!(cached_len(), 1);
        let analytic =
            position_pdf_cached_engine(&params, 3, 10_000, 77, Engine::Analytic, &Obs::default());
        assert_eq!(cached_len(), 2, "analytic lookup must miss the mc entry");
        assert_ne!(mc, analytic);
        assert_eq!(mc.trials, 10_000);
        assert_eq!(analytic.trials, 0);
        // Analytic keys normalise trials/seed: any trials/seed combo
        // hits the same closed-form entry.
        let again =
            position_pdf_cached_engine(&params, 3, 999, 12345, Engine::Analytic, &Obs::default());
        assert_eq!(again, analytic);
        assert_eq!(cached_len(), 2);
        // And the untagged entry point still resolves to the mc engine.
        assert_eq!(position_pdf_cached(&params, 3, 10_000, 77), mc);
        assert_eq!(cached_len(), 2);
        clear();
    }
}
