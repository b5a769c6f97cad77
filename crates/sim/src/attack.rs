//! Byzantine attack models (paper §V, "Byzantine Attack Models").
//!
//! The paper evaluates two attacks that prior work also uses:
//!
//! * **Reverse-value attack** — a Byzantine worker that should send `z` sends
//!   `−c·z` for some `c > 0` (the paper sets `c = 1`). A "weak" attack: the
//!   perturbation stays in the data's dynamic range.
//! * **Constant attack** — the worker sends a constant vector of the right
//!   dimension. A "strong" attack: it typically destroys convergence of the
//!   unprotected baseline.
//!
//! Two further adversaries target the dual-codeword screen (PR9) rather than
//! the learning dynamics:
//!
//! * **Sparse-flip attack** — corrupt only a few leading symbols of the
//!   payload. The hardest case for any screening check: the corruption has
//!   minimal Hamming weight, so nothing short of a codeword-membership test
//!   notices it.
//! * **Colluding attack** — every compromised worker replaces its payload
//!   with the *same* forged vector (position-dependent only), so
//!   cross-worker majority or comparison cannot separate the colluders.
//!
//! [`ByzantineSpec`] marks which workers are compromised and which attack they
//! mount; [`AttackModel::apply`] corrupts a field-vector payload in place.

use std::collections::BTreeSet;

use avcc_field::{Fp, PrimeField, PrimeModulus};

/// The attack a Byzantine worker mounts on its outgoing result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackModel {
    /// Send the honest result unchanged (an "attack" that does nothing; useful
    /// as a control).
    None,
    /// Send `−c·z` instead of `z`.
    ReverseValue {
        /// The positive scale `c` (the paper uses `c = 1`). Must be
        /// non-zero: `−0·z` is the all-zeros vector — the constant attack
        /// in disguise, not a reverse-value attack. [`AttackModel::apply`]
        /// rejects `scale: 0` loudly; model an all-zeros sender with
        /// [`AttackModel::Constant`] and `value: 0` instead.
        scale: u64,
    },
    /// Send a constant vector.
    Constant {
        /// The constant value (canonical field representative).
        value: u64,
    },
    /// Corrupt only the first `blocks` symbols (each bumped by one) and
    /// leave the rest honest — a minimal-Hamming-weight perturbation, the
    /// hardest case for the dual-codeword screen to catch.
    SparseFlip {
        /// Number of leading symbols to flip (clamped to the payload
        /// length; `0` leaves the payload honest).
        blocks: usize,
    },
    /// Replace the payload with a forged pseudo-random vector that depends
    /// only on the symbol position, so every colluding worker sends an
    /// *identical* corruption and cross-worker comparison cannot separate
    /// them.
    Colluding {
        /// Number of coordinating workers (bookkeeping for reports — the
        /// forgery itself is position-dependent only, hence identical
        /// regardless of this count).
        workers: usize,
    },
}

impl AttackModel {
    /// The paper's reverse-value attack with `c = 1`.
    pub fn reverse() -> Self {
        AttackModel::ReverseValue { scale: 1 }
    }

    /// The paper's constant attack (an arbitrary fixed value).
    pub fn constant() -> Self {
        AttackModel::Constant { value: 3 }
    }

    /// A sparse-flip attack touching the first `blocks` symbols.
    pub fn sparse_flip(blocks: usize) -> Self {
        AttackModel::SparseFlip { blocks }
    }

    /// A colluding attack coordinated across `workers` compromised nodes.
    pub fn colluding(workers: usize) -> Self {
        AttackModel::Colluding { workers }
    }

    /// Applies the attack to a field-vector payload in place. Returns `true`
    /// iff the payload was modified.
    ///
    /// # Panics
    /// Panics on [`AttackModel::ReverseValue`] with `scale: 0`: that
    /// configuration sends all-zeros while claiming to reverse values —
    /// a silently mislabeled constant attack (use
    /// [`AttackModel::Constant`] with `value: 0` to model it on purpose).
    pub fn apply<M: PrimeModulus>(&self, payload: &mut [Fp<M>]) -> bool {
        match self {
            AttackModel::None => false,
            AttackModel::ReverseValue { scale } => {
                assert!(
                    *scale != 0,
                    "ReverseValue with scale 0 sends all-zeros, which is the constant \
                     attack in disguise; use AttackModel::Constant {{ value: 0 }}"
                );
                let c = Fp::<M>::from_u64(*scale);
                for value in payload.iter_mut() {
                    *value = -(c * *value);
                }
                true
            }
            AttackModel::Constant { value } => {
                let constant = Fp::<M>::from_u64(*value);
                for slot in payload.iter_mut() {
                    *slot = constant;
                }
                true
            }
            AttackModel::SparseFlip { blocks } => {
                let flips = (*blocks).min(payload.len());
                for value in payload.iter_mut().take(flips) {
                    *value += Fp::<M>::ONE;
                }
                flips > 0
            }
            AttackModel::Colluding { .. } => {
                // Position-dependent forgery: slot k becomes a fixed
                // pseudo-random representative, so two colluders holding
                // different honest blocks still transmit identical vectors.
                for (k, slot) in payload.iter_mut().enumerate() {
                    let forged = 0x9E37_79B9_7F4A_7C15u64
                        .wrapping_mul(k as u64 + 1)
                        .rotate_left(17)
                        % M::MODULUS;
                    *slot = Fp::<M>::from_u64(forged);
                }
                !payload.is_empty()
            }
        }
    }
}

/// Which workers are Byzantine and what they send.
#[derive(Debug, Clone, PartialEq)]
pub struct ByzantineSpec {
    workers: BTreeSet<usize>,
    attack: AttackModel,
}

impl ByzantineSpec {
    /// No Byzantine workers.
    pub fn none() -> Self {
        ByzantineSpec {
            workers: BTreeSet::new(),
            attack: AttackModel::None,
        }
    }

    /// The given workers mount the given attack.
    pub fn new(workers: impl IntoIterator<Item = usize>, attack: AttackModel) -> Self {
        ByzantineSpec {
            workers: workers.into_iter().collect(),
            attack,
        }
    }

    /// The set of compromised worker indices.
    pub fn workers(&self) -> impl Iterator<Item = usize> + '_ {
        self.workers.iter().copied()
    }

    /// Number of compromised workers.
    pub fn count(&self) -> usize {
        self.workers.len()
    }

    /// The attack model in use.
    pub fn attack(&self) -> AttackModel {
        self.attack
    }

    /// `true` iff worker `i` is compromised.
    pub fn is_byzantine(&self, worker: usize) -> bool {
        self.workers.contains(&worker)
    }

    /// Applies the attack to worker `i`'s payload if `i` is compromised.
    /// Returns `true` iff the payload was modified.
    pub fn corrupt<M: PrimeModulus>(&self, worker: usize, payload: &mut [Fp<M>]) -> bool {
        if self.is_byzantine(worker) {
            self.attack.apply(payload)
        } else {
            false
        }
    }

    /// Returns a copy with the given workers removed (used after the adaptive
    /// controller evicts detected Byzantine nodes).
    pub fn without_workers(&self, removed: &[usize]) -> Self {
        ByzantineSpec {
            workers: self
                .workers
                .iter()
                .copied()
                .filter(|w| !removed.contains(w))
                .collect(),
            attack: self.attack,
        }
    }

    /// Re-indexes the compromised workers after the cluster dropped the
    /// workers in `removed` (indices shift down to fill the gaps).
    pub fn reindexed_after_removal(&self, removed: &[usize]) -> Self {
        let surviving: Vec<usize> = self
            .workers
            .iter()
            .copied()
            .filter(|w| !removed.contains(w))
            .collect();
        let workers = surviving
            .into_iter()
            .map(|w| w - removed.iter().filter(|&&r| r < w).count())
            .collect();
        ByzantineSpec {
            workers,
            attack: self.attack,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avcc_field::F25;

    fn payload(values: &[i64]) -> Vec<F25> {
        values.iter().map(|&v| F25::from_i64(v)).collect()
    }

    #[test]
    fn reverse_attack_negates_values() {
        let mut data = payload(&[1, -2, 3]);
        assert!(AttackModel::reverse().apply(&mut data));
        assert_eq!(data, payload(&[-1, 2, -3]));
    }

    #[test]
    fn reverse_attack_with_scale_multiplies() {
        let mut data = payload(&[2, 5]);
        assert!(AttackModel::ReverseValue { scale: 3 }.apply(&mut data));
        assert_eq!(data, payload(&[-6, -15]));
    }

    #[test]
    fn constant_attack_overwrites_everything() {
        let mut data = payload(&[10, 20, 30, 40]);
        assert!(AttackModel::Constant { value: 7 }.apply(&mut data));
        assert!(data.iter().all(|&v| v == F25::from_u64(7)));
    }

    #[test]
    #[should_panic(expected = "scale 0")]
    fn reverse_attack_rejects_scale_zero() {
        // Regression: scale 0 used to silently send all-zeros while
        // claiming to be the reverse-value attack.
        let mut data = payload(&[1, 2]);
        AttackModel::ReverseValue { scale: 0 }.apply(&mut data);
    }

    #[test]
    fn sparse_flip_corrupts_only_the_requested_prefix() {
        let mut data = payload(&[10, 20, 30, 40]);
        assert!(AttackModel::sparse_flip(2).apply(&mut data));
        assert_eq!(data, payload(&[11, 21, 30, 40]));
    }

    #[test]
    fn sparse_flip_clamps_to_payload_length() {
        let mut data = payload(&[1, 2]);
        assert!(AttackModel::sparse_flip(100).apply(&mut data));
        assert_eq!(data, payload(&[2, 3]));
    }

    #[test]
    fn sparse_flip_with_zero_blocks_reports_no_modification() {
        let mut data = payload(&[5, 6]);
        let original = data.clone();
        assert!(!AttackModel::sparse_flip(0).apply(&mut data));
        assert_eq!(data, original);
        let mut empty: Vec<F25> = Vec::new();
        assert!(!AttackModel::sparse_flip(3).apply(&mut empty));
    }

    #[test]
    fn colluding_workers_transmit_identical_forgeries() {
        let mut first = payload(&[1, 2, 3, 4]);
        let mut second = payload(&[-9, 42, 0, 17]);
        let honest = first.clone();
        assert!(AttackModel::colluding(2).apply(&mut first));
        assert!(AttackModel::colluding(2).apply(&mut second));
        // Identical regardless of the honest payloads they replaced.
        assert_eq!(first, second);
        assert_ne!(first, honest);
        let mut empty: Vec<F25> = Vec::new();
        assert!(!AttackModel::colluding(2).apply(&mut empty));
    }

    #[test]
    fn none_attack_leaves_payload_untouched() {
        let mut data = payload(&[1, 2, 3]);
        let original = data.clone();
        assert!(!AttackModel::None.apply(&mut data));
        assert_eq!(data, original);
    }

    #[test]
    fn spec_corrupts_only_marked_workers() {
        let spec = ByzantineSpec::new([1, 3], AttackModel::constant());
        assert_eq!(spec.count(), 2);
        assert!(spec.is_byzantine(1));
        assert!(!spec.is_byzantine(0));
        let mut honest = payload(&[5, 6]);
        let snapshot = honest.clone();
        assert!(!spec.corrupt(0, &mut honest));
        assert_eq!(honest, snapshot);
        let mut victim = payload(&[5, 6]);
        assert!(spec.corrupt(3, &mut victim));
        assert_ne!(victim, snapshot);
    }

    #[test]
    fn removal_and_reindexing_track_cluster_shrinkage() {
        let spec = ByzantineSpec::new([2, 5, 8], AttackModel::reverse());
        let without = spec.without_workers(&[5]);
        assert_eq!(without.workers().collect::<Vec<_>>(), vec![2, 8]);
        // Dropping worker 5 from the cluster shifts 8 down to 7.
        let reindexed = spec.reindexed_after_removal(&[5]);
        assert_eq!(reindexed.workers().collect::<Vec<_>>(), vec![2, 7]);
        // Dropping an earlier worker shifts everything after it.
        let reindexed = spec.reindexed_after_removal(&[0]);
        assert_eq!(reindexed.workers().collect::<Vec<_>>(), vec![1, 4, 7]);
    }

    #[test]
    fn none_spec_has_no_byzantine_workers() {
        let spec = ByzantineSpec::none();
        assert_eq!(spec.count(), 0);
        let mut data = payload(&[1]);
        assert!(!spec.corrupt(0, &mut data));
    }
}
