//! Selection of the Lagrange interpolation points `β` and the worker
//! evaluation points `α`.
//!
//! The encoder needs `K + T` distinct β-points (where the encoding polynomial
//! takes the data blocks and the random pads as values) and `N` distinct
//! α-points (where the workers evaluate). The paper requires `A ∩ B = ∅` when
//! `T > 0` — otherwise a worker whose α coincided with a β-point would hold a
//! raw data block, destroying privacy. When `T = 0` the code is made
//! *systematic* by letting `α_i = β_i` for `i ≤ K`, which is exactly the MDS
//! construction of Fig. 1 (worker `i ≤ K` stores `X_i` itself).
//!
//! One layout, [`EvaluationPoints::standard`]: consecutive integers, which
//! works in every field (Lagrange coding needs only *distinct* points) and is
//! systematic when `T = 0`. Encoding and decoding go through the
//! `O(N·K)`-per-coordinate Lagrange matrix; on the systematic layout the
//! first `K` shares are the data blocks themselves (row-band views of the
//! encoded matrix), so an encode costs the `(N − K)·K` multiply-adds of the
//! parity shares per coordinate and allocates only those shares.

use avcc_field::{Fp, PrimeModulus};

/// The β (interpolation) and α (worker) evaluation points of a Lagrange code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvaluationPoints<M: PrimeModulus> {
    beta: Vec<Fp<M>>,
    alpha: Vec<Fp<M>>,
}

impl<M: PrimeModulus> EvaluationPoints<M> {
    /// Chooses points for a code with `partitions = K` data blocks,
    /// `colluding = T` random pads and `workers = N` workers.
    ///
    /// * `T = 0`: systematic layout, `β_j = j` and `α_i = i` (1-based), so the
    ///   first `K` workers hold the raw blocks.
    /// * `T > 0`: `β_j = j` and `α_i = K + T + i`, guaranteeing `A ∩ B = ∅`.
    ///
    /// # Panics
    /// Panics if the field is too small to provide the required number of
    /// distinct points (never the case for the 25-bit field at realistic
    /// scales) or if `partitions == 0` / `workers == 0`.
    pub fn standard(partitions: usize, colluding: usize, workers: usize) -> Self {
        assert!(partitions > 0, "need at least one data partition");
        assert!(workers > 0, "need at least one worker");
        let needed = (partitions + colluding + workers) as u64;
        assert!(
            needed < M::MODULUS,
            "field with modulus {} cannot supply {} distinct evaluation points",
            M::MODULUS,
            needed
        );
        let beta: Vec<Fp<M>> = (1..=(partitions + colluding) as u64)
            .map(Fp::<M>::new)
            .collect();
        let alpha: Vec<Fp<M>> = if colluding == 0 {
            (1..=workers as u64).map(Fp::<M>::new).collect()
        } else {
            let offset = (partitions + colluding) as u64;
            (1..=workers as u64)
                .map(|i| Fp::<M>::new(offset + i))
                .collect()
        };
        EvaluationPoints { beta, alpha }
    }

    /// The β-points (length `K + T`).
    pub fn beta(&self) -> &[Fp<M>] {
        &self.beta
    }

    /// The α-points (length `N`).
    pub fn alpha(&self) -> &[Fp<M>] {
        &self.alpha
    }

    /// `true` iff no worker point coincides with an interpolation point.
    pub fn disjoint(&self) -> bool {
        self.alpha.iter().all(|a| !self.beta.contains(a))
    }

    /// `true` iff the layout is systematic (`α_i = β_i` for the data blocks).
    pub fn is_systematic(&self, partitions: usize) -> bool {
        self.alpha.len() >= partitions
            && self.beta.len() >= partitions
            && self.alpha[..partitions] == self.beta[..partitions]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::{P25, P251};

    #[test]
    fn systematic_layout_when_no_privacy() {
        let points = EvaluationPoints::<P25>::standard(9, 0, 12);
        assert_eq!(points.beta().len(), 9);
        assert_eq!(points.alpha().len(), 12);
        assert!(points.is_systematic(9));
        assert!(!points.disjoint());
    }

    #[test]
    fn disjoint_layout_when_private() {
        let points = EvaluationPoints::<P25>::standard(4, 2, 10);
        assert_eq!(points.beta().len(), 6);
        assert_eq!(points.alpha().len(), 10);
        assert!(points.disjoint());
        assert!(!points.is_systematic(4));
    }

    #[test]
    fn all_points_are_distinct() {
        let points = EvaluationPoints::<P25>::standard(5, 3, 20);
        let mut all: Vec<u64> = points
            .beta()
            .iter()
            .chain(points.alpha().iter())
            .map(|p| p.value())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 5 + 3 + 20);
    }

    #[test]
    #[should_panic(expected = "distinct evaluation points")]
    fn tiny_field_cannot_supply_enough_points() {
        let _ = EvaluationPoints::<P251>::standard(200, 30, 100);
    }

    #[test]
    #[should_panic(expected = "at least one data partition")]
    fn zero_partitions_panics() {
        let _ = EvaluationPoints::<P25>::standard(0, 0, 4);
    }
}
