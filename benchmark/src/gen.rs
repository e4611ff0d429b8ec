//! Seeded input generation. Everything the program is fed is a pure
//! function of the benchmark seed — instance inputs, client values — or of
//! [`POOL_SEED`] where the draw, not the program, would otherwise set the
//! result (the `bvc-relaxed` inputs, the open-loop arrival trace). The
//! program itself never sees a seed.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbvc_linalg::VecD;

/// Half-width of the input box `[-RANGE, RANGE]^d`.
pub const RANGE: f64 = 5.0;

/// Seed of the fixed pools (see `mesh::Inputs::FixedPool` and
/// [`arrival_trace`]).
pub const POOL_SEED: u64 = 2016;

/// Independent generator for one named stream of one seed.
fn stream(seed: u64, tag: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(tag.wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(index),
    )
}

fn point(rng: &mut StdRng, d: usize) -> VecD {
    VecD((0..d).map(|_| rng.gen_range(-RANGE..RANGE)).collect())
}

/// The `n` process inputs of static instance `k`: i.i.d. uniform in the
/// input box. The same on every repetition of a run, which is what lets the
/// determinism self-test compare repetitions.
#[must_use]
pub fn instance_inputs(seed: u64, k: usize, n: usize, d: usize) -> Vec<VecD> {
    let mut rng = stream(seed, 1, k as u64);
    (0..n).map(|_| point(&mut rng, d)).collect()
}

/// The value client request `i` of one phase submits.
#[must_use]
pub fn client_value(seed: u64, phase: u64, i: usize, d: usize) -> VecD {
    point(&mut stream(seed, 2 + phase, i as u64), d)
}

/// Due times of an open-loop Poisson arrival process of `rate` requests per
/// second over `duration`, as offsets from the start of the phase.
#[must_use]
pub fn poisson_schedule(seed: u64, phase: u64, rate: f64, duration: Duration) -> Vec<Duration> {
    let mut rng = stream(seed, 1000 + phase, 0);
    let horizon = duration.as_secs_f64();
    let mut due = Vec::new();
    let mut t = 0.0_f64;
    loop {
        // Exponential gap; 1 - u is in (0, 1], so the log is finite.
        let u: f64 = rng.gen_range(0.0..1.0);
        t += -(1.0 - u).ln() / rate;
        if t >= horizon {
            return due;
        }
        due.push(Duration::from_secs_f64(t));
    }
}

/// The open-loop arrival trace of one phase: one Poisson draw, the same for
/// every benchmark seed (the values submitted do follow the seed). One
/// second at 300 req/s is ~300 arrivals, and how they happen to bunch
/// decides the queueing percentiles: the same program read p50 4.7 to 5.9 ms
/// and p95 14.2 to 19.3 ms over ten draws, and 4.78 to 5.24 ms and 16.8 to
/// 17.0 ms over ten runs of one.
#[must_use]
pub fn arrival_trace(phase: u64, rate: f64, duration: Duration) -> Vec<Duration> {
    poisson_schedule(POOL_SEED, phase, rate, duration)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_repeat_for_a_seed_and_differ_across_seeds() {
        let a = instance_inputs(2016, 3, 4, 3);
        assert_eq!(a, instance_inputs(2016, 3, 4, 3));
        assert_ne!(a, instance_inputs(2017, 3, 4, 3));
        assert_ne!(a, instance_inputs(2016, 4, 4, 3));
        assert_eq!(a.len(), 4);
        assert!(a
            .iter()
            .all(|v| v.dim() == 3 && v.as_slice().iter().all(|x| (-RANGE..RANGE).contains(x))));
        assert_eq!(client_value(1, 0, 5, 3), client_value(1, 0, 5, 3));
        assert_ne!(client_value(1, 0, 5, 3), client_value(2, 0, 5, 3));
        assert_ne!(client_value(1, 0, 5, 3), client_value(1, 1, 5, 3));
    }

    #[test]
    fn poisson_schedule_repeats_and_has_the_asked_rate() {
        let d = Duration::from_secs(20);
        let a = poisson_schedule(7, 0, 300.0, d);
        assert_eq!(a, poisson_schedule(7, 0, 300.0, d));
        assert_ne!(a, poisson_schedule(8, 0, 300.0, d));
        assert_ne!(a, poisson_schedule(7, 1, 300.0, d));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        assert!(a.last().is_some_and(|t| *t < d));
        // 6 000 expected arrivals, sd ~77: five sigma either way.
        assert!((5600..6400).contains(&a.len()), "{} arrivals", a.len());
    }
}
