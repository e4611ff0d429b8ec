//! Seeded workload generators for the experiments and benches.
//!
//! Every generator takes an explicit RNG so that experiment outputs are
//! bit-reproducible from the seed recorded in EXPERIMENTS.md.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rbvc_linalg::{Tol, VecD};

/// A seeded RNG for experiments.
#[must_use]
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// `n` i.i.d. uniform points in `[-range, range]^d`.
#[must_use]
pub fn random_points(rng: &mut StdRng, n: usize, d: usize, range: f64) -> Vec<VecD> {
    (0..n)
        .map(|_| VecD((0..d).map(|_| rng.gen_range(-range..range)).collect()))
        .collect()
}

/// `d + 1` affinely independent points in `R^d` with inradius above
/// `min_inradius` (rejection-sampled), the Lemma 13 workload.
#[must_use]
pub fn random_simplex_points(
    rng: &mut StdRng,
    d: usize,
    range: f64,
    min_inradius: f64,
) -> Vec<VecD> {
    loop {
        let pts = random_points(rng, d + 1, d, range);
        if let Some(s) = rbvc_geometry::Simplex::new(pts.clone(), Tol::default()) {
            if s.inradius() >= min_inradius {
                return pts;
            }
        }
    }
}

/// Interleave correct and faulty inputs into per-process slots: faulty ids
/// are chosen deterministically spread across the id space.
#[must_use]
pub fn assemble_inputs(correct: &[VecD], faulty: &[VecD]) -> (Vec<VecD>, Vec<usize>) {
    let n = correct.len() + faulty.len();
    // Spread faulty ids: every ⌈n / (|faulty|+1)⌉-th slot.
    let mut faulty_ids = Vec::new();
    if !faulty.is_empty() {
        let stride = n / (faulty.len() + 1);
        for (k, _) in faulty.iter().enumerate() {
            faulty_ids.push(((k + 1) * stride.max(1)).min(n - 1));
        }
        faulty_ids.dedup();
        // Collision fallback: fill from the end.
        let mut next = n;
        while faulty_ids.len() < faulty.len() {
            next -= 1;
            if !faulty_ids.contains(&next) {
                faulty_ids.push(next);
            }
        }
        faulty_ids.sort_unstable();
    }
    let mut inputs = Vec::with_capacity(n);
    let mut ci = 0;
    let mut fi = 0;
    for i in 0..n {
        if faulty_ids.contains(&i) {
            inputs.push(faulty[fi].clone());
            fi += 1;
        } else {
            inputs.push(correct[ci].clone());
            ci += 1;
        }
    }
    (inputs, faulty_ids)
}

/// Max pairwise L2 edge among the points (the paper's `max_{e∈E₊} ||e||₂`).
#[must_use]
pub fn max_edge(points: &[VecD]) -> f64 {
    rbvc_geometry::pairwise_edges(points)
        .into_iter()
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_seed_deterministic() {
        let a = random_points(&mut rng(5), 4, 3, 2.0);
        let b = random_points(&mut rng(5), 4, 3, 2.0);
        assert_eq!(a, b);
        let c = random_points(&mut rng(6), 4, 3, 2.0);
        assert_ne!(a, c);
    }

    #[test]
    fn simplex_generator_meets_inradius_floor() {
        let pts = random_simplex_points(&mut rng(1), 3, 2.0, 0.1);
        let s = rbvc_geometry::Simplex::new(pts, Tol::default()).unwrap();
        assert!(s.inradius() >= 0.1);
    }

    #[test]
    fn assemble_places_every_input_once() {
        let correct = vec![VecD::zeros(2); 4];
        let faulty = vec![VecD::ones(2); 2];
        let (inputs, ids) = assemble_inputs(&correct, &faulty);
        assert_eq!(inputs.len(), 6);
        assert_eq!(ids.len(), 2);
        let ones = inputs.iter().filter(|v| **v == VecD::ones(2)).count();
        assert_eq!(ones, 2);
        for &i in &ids {
            assert_eq!(inputs[i], VecD::ones(2));
        }
    }

    #[test]
    fn max_edge_of_unit_square() {
        let pts = vec![
            VecD::from_slice(&[0.0, 0.0]),
            VecD::from_slice(&[1.0, 0.0]),
            VecD::from_slice(&[1.0, 1.0]),
            VecD::from_slice(&[0.0, 1.0]),
        ];
        assert!((max_edge(&pts) - 2.0_f64.sqrt()).abs() < 1e-12);
    }
}
