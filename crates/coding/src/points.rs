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
//! Two layouts are provided:
//!
//! * [`EvaluationPoints::standard`] — consecutive integers, works in every
//!   field, systematic when `T = 0`. Encoding/decoding go through the
//!   `O(N·K)`-per-coordinate Lagrange matrix; on a systematic layout the
//!   first `K` shares are copies of the data blocks, so an encode costs the
//!   `(N − K)·K` multiply-adds of the parity shares per coordinate.
//! * [`EvaluationPoints::subgroup`] — for NTT-friendly fields
//!   ([`avcc_field::NttModulus`]) with `K + T` a power of two: the β-points
//!   are the order-`K+T` subgroup `H = ⟨ω⟩` and the α-points are the first
//!   `N` elements of the coset `g·H'` (with `H' ⊇ H` the next power-of-two
//!   subgroup covering all workers and `g` a generator of the full
//!   multiplicative group). `g` has order `q − 1`, which no power-of-two
//!   subgroup order divides, so the coset never intersects `H'` — the layout
//!   is automatically disjoint (never systematic), and encoding/decoding
//!   collapse to `O(N log N)` NTTs (see `encoder`/`decoder`): per coordinate
//!   `B/2·log₂B + B + A/2·log₂A` multiplies, with `B = K + T` and
//!   `A = next_pow2(max(N, B))` — two butterfly networks and a scale pass.
//!
//! [`EvaluationPoints::auto`] picks between them by those two counts: the
//! subgroup layout whenever it fits and `T > 0`, and at `T = 0` only when its
//! transforms are strictly cheaper than the systematic parity work. At the
//! Goldilocks `(N, K) = (12, 8)` of a bulk matrix job that is 32 against 52,
//! so the layout is systematic; at `(16, 8)` it is 64 against 52, and at
//! `(2K, K ≥ 64)` the transforms are far cheaper still, so both stay in
//! subgroup position.

use avcc_field::{Fp, NttModulus, PrimeModulus};
use avcc_poly::root_of_unity;

/// The subgroup geometry of an NTT-ready point layout (see
/// [`EvaluationPoints::subgroup`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubgroupLayout<M: PrimeModulus> {
    /// `log2` of the β-subgroup order `B = K + T`.
    pub log_blocks: u32,
    /// `log2` of the α-coset order `A = next_pow2(max(N, B))`.
    pub log_workers: u32,
    /// The coset shift `g` (a generator of the full multiplicative group):
    /// `α_i = g·ω_A^i`.
    pub shift: Fp<M>,
}

impl<M: PrimeModulus> SubgroupLayout<M> {
    /// Field multiplications one coordinate of an encode costs in this
    /// layout: the inverse network over the `B` β-points, its folded scale
    /// pass, and the forward network over the `A` α-coset points —
    /// `B/2·log₂B + B + A/2·log₂A`.
    pub(crate) fn multiplies_per_coordinate(&self) -> usize {
        let network = |log: u32| (1usize << log) / 2 * log as usize;
        network(self.log_blocks) + (1 << self.log_blocks) + network(self.log_workers)
    }
}

/// The β (interpolation) and α (worker) evaluation points of a Lagrange code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvaluationPoints<M: PrimeModulus> {
    beta: Vec<Fp<M>>,
    alpha: Vec<Fp<M>>,
    subgroup: Option<SubgroupLayout<M>>,
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
        EvaluationPoints {
            beta,
            alpha,
            subgroup: None,
        }
    }

    /// Places the points in NTT position: `β_j = ω_B^j` (the full order-`B`
    /// subgroup, `B = K + T`) and `α_i = g·ω_A^i` (a coset of the covering
    /// subgroup of order `A = next_pow2(max(N, B))`).
    ///
    /// Returns `None` when the geometry does not fit: `K + T` must be a power
    /// of two (the interpolation step must be a full-subgroup inverse NTT —
    /// padding the subgroup would raise the degree of the encoding polynomial
    /// and with it the recovery threshold) and `A` must divide the field's
    /// two-adic subgroup order.
    ///
    /// # Panics
    /// Panics if `partitions == 0` / `workers == 0`.
    pub fn subgroup(partitions: usize, colluding: usize, workers: usize) -> Option<Self>
    where
        M: NttModulus,
    {
        Self::subgroup_position(partitions, colluding, workers)
    }

    /// Chooses the layout with the cheaper encode. The subgroup layout is
    /// taken when the modulus declares NTT support, the geometry fits, and
    /// either
    ///
    /// * `T > 0` — no layout may be systematic then (privacy), so there is
    ///   no copy to save; or
    /// * `T = 0` and its `B/2·log₂B + B + A/2·log₂A` multiplies per
    ///   coordinate (`B = K`, `A = next_pow2(max(N, B))`) are fewer than the
    ///   `(N − K)·K` multiply-adds of the systematic code's parity shares.
    ///
    /// Otherwise it is the [`EvaluationPoints::standard`] layout, systematic
    /// at `T = 0`. Deterministic for a given `(K, T, N, M)`, so encoders,
    /// decoders and screens built independently from the same scheme
    /// configuration agree on the points.
    pub fn auto(partitions: usize, colluding: usize, workers: usize) -> Self {
        let parity_work = workers.saturating_sub(partitions) * partitions;
        Self::subgroup_position(partitions, colluding, workers)
            .filter(|points| {
                colluding > 0
                    || points
                        .ntt_layout()
                        .is_some_and(|layout| layout.multiplies_per_coordinate() < parity_work)
            })
            .unwrap_or_else(|| Self::standard(partitions, colluding, workers))
    }

    /// The [`EvaluationPoints::subgroup`] construction without the
    /// [`NttModulus`] bound: generic callers (like [`EvaluationPoints::auto`])
    /// rely on the run-time metadata check instead of the marker trait.
    fn subgroup_position(partitions: usize, colluding: usize, workers: usize) -> Option<Self> {
        assert!(partitions > 0, "need at least one data partition");
        assert!(workers > 0, "need at least one worker");
        let blocks = partitions + colluding;
        if M::TWO_ADICITY == 0 || !blocks.is_power_of_two() {
            return None;
        }
        let log_blocks = blocks.trailing_zeros();
        let covering = workers.max(blocks).next_power_of_two();
        let log_workers = covering.trailing_zeros();
        if log_workers > M::TWO_ADICITY {
            return None;
        }
        let omega_blocks = root_of_unity::<M>(log_blocks);
        let omega_workers = root_of_unity::<M>(log_workers);
        let shift = Fp::<M>::new(M::GROUP_GENERATOR);
        let mut beta = Vec::with_capacity(blocks);
        let mut power = Fp::<M>::ONE;
        for _ in 0..blocks {
            beta.push(power);
            power *= omega_blocks;
        }
        let mut alpha = Vec::with_capacity(workers);
        let mut power = shift;
        for _ in 0..workers {
            alpha.push(power);
            power *= omega_workers;
        }
        Some(EvaluationPoints {
            beta,
            alpha,
            subgroup: Some(SubgroupLayout {
                log_blocks,
                log_workers,
                shift,
            }),
        })
    }

    /// The β-points (length `K + T`).
    pub fn beta(&self) -> &[Fp<M>] {
        &self.beta
    }

    /// The α-points (length `N`).
    pub fn alpha(&self) -> &[Fp<M>] {
        &self.alpha
    }

    /// The β-points corresponding to the data blocks only (the first `K`).
    pub fn data_beta(&self, partitions: usize) -> &[Fp<M>] {
        &self.beta[..partitions]
    }

    /// The subgroup geometry when the points are in NTT position, `None` for
    /// the standard layout. The encoder/decoder fast paths key off this.
    pub fn ntt_layout(&self) -> Option<&SubgroupLayout<M>> {
        self.subgroup.as_ref()
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
    use avcc_field::{PrimeField, P25, P251, P64};
    use proptest::prelude::*;

    #[test]
    fn systematic_layout_when_no_privacy() {
        let points = EvaluationPoints::<P25>::standard(9, 0, 12);
        assert_eq!(points.beta().len(), 9);
        assert_eq!(points.alpha().len(), 12);
        assert!(points.is_systematic(9));
        assert!(!points.disjoint());
        assert!(points.ntt_layout().is_none());
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
    fn data_beta_returns_first_k_points() {
        let points = EvaluationPoints::<P25>::standard(3, 2, 8);
        assert_eq!(points.data_beta(3), &points.beta()[..3]);
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

    #[test]
    fn subgroup_layout_places_beta_on_a_subgroup() {
        let points = EvaluationPoints::<P64>::subgroup(6, 2, 12).unwrap();
        let layout = *points.ntt_layout().unwrap();
        assert_eq!((layout.log_blocks, layout.log_workers), (3, 4));
        // Every β is a B-th root of unity; the product of all of them is
        // (−1)^(B+1)... more simply: β_j^B = 1 for all j.
        for &beta in points.beta() {
            assert_eq!(beta.pow(8), Fp::<P64>::ONE);
        }
        // No α lies in any power-of-two subgroup: α^A ≠ 1.
        for &alpha in points.alpha() {
            assert_ne!(alpha.pow(16), Fp::<P64>::ONE);
        }
    }

    #[test]
    fn subgroup_layout_requires_power_of_two_blocks() {
        assert!(EvaluationPoints::<P64>::subgroup(9, 0, 12).is_none());
        assert!(EvaluationPoints::<P64>::subgroup(8, 1, 12).is_none());
        assert!(EvaluationPoints::<P64>::subgroup(8, 0, 12).is_some());
        assert!(EvaluationPoints::<P64>::subgroup(7, 1, 12).is_some());
    }

    #[test]
    fn auto_prefers_subgroup_only_on_ntt_fields() {
        // P64 with a power-of-two K+T and pads: subgroup position.
        let on_ntt_field = EvaluationPoints::<P64>::auto(7, 1, 12);
        assert!(on_ntt_field.ntt_layout().is_some());
        // Same geometry on P25 (two-adicity undeclared): standard.
        let on_plain_field = EvaluationPoints::<P25>::auto(7, 1, 12);
        assert!(on_plain_field.ntt_layout().is_none());
        assert!(on_plain_field.disjoint());
        // Non-power-of-two K+T on P64: standard fallback.
        let fallback = EvaluationPoints::<P64>::auto(9, 0, 12);
        assert!(fallback.ntt_layout().is_none());
        assert!(fallback.is_systematic(9));
    }

    #[test]
    fn auto_picks_the_cheaper_encode_at_t_zero() {
        // (12, 8): 4·8 = 32 parity multiply-adds against 4·3 + 8 + 8·4 = 52
        // transform multiplies per coordinate — systematic.
        let systematic = EvaluationPoints::<P64>::auto(8, 0, 12);
        assert!(systematic.ntt_layout().is_none());
        assert!(systematic.is_systematic(8));
        assert_eq!(systematic, EvaluationPoints::standard(8, 0, 12));
        // (16, 8): 8·8 = 64 against the same 52 — subgroup.
        let wide = EvaluationPoints::<P64>::auto(8, 0, 16);
        assert!(wide.ntt_layout().is_some());
        assert_eq!(Some(wide), EvaluationPoints::subgroup(8, 0, 16));
        // T = 1: never systematic, so the transforms stay.
        let private = EvaluationPoints::<P64>::auto(7, 1, 12);
        assert!(private.ntt_layout().is_some());
        assert_eq!(Some(private), EvaluationPoints::subgroup(7, 1, 12));
        // The 25-bit field declares no two-adicity: standard either way.
        for (partitions, colluding, workers) in [(8, 0, 12), (8, 0, 16), (7, 1, 12)] {
            let points = EvaluationPoints::<P25>::auto(partitions, colluding, workers);
            assert!(points.ntt_layout().is_none());
            assert_eq!(
                points,
                EvaluationPoints::standard(partitions, colluding, workers)
            );
        }
        // The counts the rule compares, at the geometries above.
        let count = |k, t, n| {
            EvaluationPoints::<P64>::subgroup(k, t, n)
                .unwrap()
                .ntt_layout()
                .unwrap()
                .multiplies_per_coordinate()
        };
        assert_eq!(
            (count(8, 0, 12), count(8, 0, 16), count(64, 0, 128)),
            (52, 52, 704)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_subgroup_points_are_disjoint_distinct_and_never_systematic(
            log_blocks in 0u32..7,
            colluding in 0usize..5,
            extra_workers in 0usize..20,
        ) {
            let blocks = 1usize << log_blocks;
            prop_assume!(blocks > colluding);
            let partitions = blocks - colluding;
            let workers = partitions.max(1) + extra_workers;
            let points = EvaluationPoints::<P64>::subgroup(partitions, colluding, workers)
                .expect("power-of-two geometry must fit the 2^32-adic field");
            // The paper's privacy requirement A ∩ B = ∅ holds for *every*
            // subgroup layout (the coset shift is a full-group generator).
            prop_assert!(points.disjoint());
            prop_assert!(!points.is_systematic(partitions));
            prop_assert_eq!(points.beta().len(), blocks);
            prop_assert_eq!(points.alpha().len(), workers);
            // All K+T+N points are pairwise distinct.
            let mut all: Vec<u64> = points
                .beta()
                .iter()
                .chain(points.alpha().iter())
                .map(|p| p.value())
                .collect();
            all.sort_unstable();
            all.dedup();
            prop_assert_eq!(all.len(), blocks + workers);
        }
    }
}
