//! Micro-benchmarks of the finite-field substrate: scalar arithmetic, dot
//! products and batch inversion, which bound every higher-level cost.
//!
//! The `reduction/` and `mat_vec_512/` groups compare three implementations
//! of the multiply-reduce at the bottom of every kernel:
//!
//! * **generic_div** — `(a as u128 * b as u128) % q`: the pre-PR1 baseline, a
//!   128-bit hardware division per product;
//! * **specialized** — the per-modulus [`PrimeModulus::reduce_wide`] backend
//!   (pseudo-Mersenne fold for `F_{2^25-39}`), one reduction per product;
//! * **lazy** — the batch/linalg kernels: unreduced accumulation, in `u64`
//!   lanes collapsed once per `avcc_field::batch::narrow_batch` products for
//!   `F_{2^25-39}`.
//!
//! `dot_lanes/` adds Goldilocks, whose kernels count carries in `u128` lanes.

use avcc_field::{batch_inverse, dot, Fp, PrimeField, PrimeModulus, F25, P25, P251, P64};
use avcc_linalg::{mat_vec, Matrix};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pre-PR1 multiply-reduce: one 128-bit division per product.
#[inline]
fn mul_generic_div<M: PrimeModulus>(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) % M::MODULUS as u128) as u64
}

/// The pre-PR1 dot product: elementwise multiply-reduce, modular adds.
fn dot_generic_div<M: PrimeModulus>(a: &[Fp<M>], b: &[Fp<M>]) -> Fp<M> {
    let mut accumulator = 0u64;
    for (&x, &y) in a.iter().zip(b.iter()) {
        let product = mul_generic_div::<M>(x.value(), y.value());
        accumulator = ((accumulator as u128 + product as u128) % M::MODULUS as u128) as u64;
    }
    Fp::<M>::new(accumulator)
}

/// The pre-PR1 matrix–vector product: one division-reduced dot per row.
fn mat_vec_generic_div<M: PrimeModulus>(a: &Matrix<Fp<M>>, x: &[Fp<M>]) -> Vec<Fp<M>> {
    a.rows_iter().map(|row| dot_generic_div(row, x)).collect()
}

fn bench_scalar_ops(c: &mut Criterion) {
    let a = F25::from_u64(12_345_678);
    let b = F25::from_u64(9_876_543);
    c.bench_function("field/mul_f25", |bencher| {
        bencher.iter(|| black_box(a) * black_box(b))
    });
    c.bench_function("field/inverse_f25", |bencher| {
        bencher.iter(|| black_box(a).inverse())
    });
}

/// Streams `LEN` multiply-reduces per iteration so the comparison measures
/// reduction throughput, not loop or black-box overhead.
fn bench_reduction_backends(c: &mut Criterion) {
    const LEN: usize = 4096;

    fn operands<M: PrimeModulus>(seed: u64) -> (Vec<Fp<M>>, Vec<Fp<M>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            avcc_field::random_vector(&mut rng, LEN),
            avcc_field::random_vector(&mut rng, LEN),
        )
    }

    fn run<M: PrimeModulus>(c: &mut Criterion, field_name: &str, seed: u64) {
        let (a, b) = operands::<M>(seed);
        let mut group = c.benchmark_group(format!("reduction/{field_name}"));
        group.bench_function(BenchmarkId::from_parameter("generic_div"), |bencher| {
            bencher.iter(|| {
                let mut acc = 0u64;
                for (&x, &y) in a.iter().zip(b.iter()) {
                    acc ^= mul_generic_div::<M>(black_box(x.value()), black_box(y.value()));
                }
                acc
            })
        });
        group.bench_function(BenchmarkId::from_parameter("specialized"), |bencher| {
            bencher.iter(|| {
                let mut acc = 0u64;
                for (&x, &y) in a.iter().zip(b.iter()) {
                    acc ^=
                        M::reduce_wide(black_box(x.value()) as u128 * black_box(y.value()) as u128);
                }
                acc
            })
        });
        group.finish();
    }

    run::<P25>(c, "p25", 2);
}

fn bench_dot_products(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("field/dot");
    for &len in &[64usize, 1024, 16_384] {
        let a: Vec<F25> = avcc_field::random_vector(&mut rng, len);
        let b: Vec<F25> = avcc_field::random_vector(&mut rng, len);
        group.bench_with_input(BenchmarkId::from_parameter(len), &len, |bencher, _| {
            bencher.iter(|| dot(black_box(&a), black_box(&b)))
        });
    }
    group.finish();
}

/// generic-div vs specialized-per-element vs lazy dot at a fixed length.
fn bench_dot_backends(c: &mut Criterion) {
    const LEN: usize = 4096;

    fn run<M: PrimeModulus>(c: &mut Criterion, field_name: &str, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<Fp<M>> = avcc_field::random_vector(&mut rng, LEN);
        let b: Vec<Fp<M>> = avcc_field::random_vector(&mut rng, LEN);
        let mut group = c.benchmark_group(format!("dot_4096/{field_name}"));
        group.bench_function(BenchmarkId::from_parameter("generic_div"), |bencher| {
            bencher.iter(|| dot_generic_div(black_box(&a), black_box(&b)))
        });
        group.bench_function(BenchmarkId::from_parameter("specialized"), |bencher| {
            bencher.iter(|| {
                black_box(&a)
                    .iter()
                    .zip(black_box(&b).iter())
                    .map(|(&x, &y)| x * y)
                    .sum::<Fp<M>>()
            })
        });
        group.bench_function(BenchmarkId::from_parameter("lazy"), |bencher| {
            bencher.iter(|| dot(black_box(&a), black_box(&b)))
        });
        group.finish();
    }

    run::<P25>(c, "p25", 4);
}

/// The acceptance-criterion kernel: 512×512 matrix–vector product.
fn bench_mat_vec_512(c: &mut Criterion) {
    const N: usize = 512;

    fn run<M: PrimeModulus>(c: &mut Criterion, field_name: &str, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let matrix = Matrix::from_vec(N, N, avcc_field::random_matrix(&mut rng, N, N));
        let x: Vec<Fp<M>> = avcc_field::random_vector(&mut rng, N);
        let mut group = c.benchmark_group(format!("mat_vec_512/{field_name}"));
        group.bench_function(BenchmarkId::from_parameter("generic_div"), |bencher| {
            bencher.iter(|| mat_vec_generic_div(black_box(&matrix), black_box(&x)))
        });
        group.bench_function(BenchmarkId::from_parameter("blocked_lazy"), |bencher| {
            bencher.iter(|| mat_vec(black_box(&matrix), black_box(&x)))
        });
        group.finish();
    }

    run::<P25>(c, "p25", 6);
}

/// The single-accumulator lazy dot: one `u128` running sum, one specialized
/// reduction per [`PrimeModulus::WIDE_BATCH`] products — the baseline both
/// lane kinds of `avcc_field::dot` are compared with (the striped
/// carry-counting lanes, the narrow `u64` lane; neither is this kernel any
/// more, so it is spelled out here like the other earlier references).
fn dot_single_lane<M: PrimeModulus>(a: &[Fp<M>], b: &[Fp<M>]) -> Fp<M> {
    let mut accumulator: u128 = 0;
    for (chunk_a, chunk_b) in a.chunks(M::WIDE_BATCH).zip(b.chunks(M::WIDE_BATCH)) {
        for (&x, &y) in chunk_a.iter().zip(chunk_b.iter()) {
            accumulator += x.value() as u128 * y.value() as u128;
        }
        accumulator = M::reduce_wide(accumulator) as u128;
    }
    Fp::<M>::new(M::reduce_wide(accumulator))
}

/// Vector-vs-scalar dot against the single-`u128` baseline: on `p64` (a
/// `u128` wraps every product) the
/// [`avcc_field::DOT_LANES`]-striped carry-counting kernel, on `p25` the
/// narrow `u64` lane the optimizer runs in vector registers.
fn bench_dot_lanes(c: &mut Criterion) {
    fn run<M: PrimeModulus>(c: &mut Criterion, field_name: &str, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for len in [1024usize, 4096, 16_384] {
            let a: Vec<Fp<M>> = avcc_field::random_vector(&mut rng, len);
            let b: Vec<Fp<M>> = avcc_field::random_vector(&mut rng, len);
            let mut group = c.benchmark_group(format!("dot_lanes/{field_name}/len{len}"));
            group.bench_function(BenchmarkId::from_parameter("scalar"), |bencher| {
                bencher.iter(|| dot_single_lane(black_box(&a), black_box(&b)))
            });
            group.bench_function(BenchmarkId::from_parameter("vectorized"), |bencher| {
                bencher.iter(|| dot(black_box(&a), black_box(&b)))
            });
            group.finish();
        }
    }

    run::<P64>(c, "p64", 13);
    run::<P25>(c, "p25", 14);
}

fn bench_batch_inverse(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let values: Vec<F25> = avcc_field::rng::random_nonzero_vector(&mut rng, 1024);
    c.bench_function("field/batch_inverse_1024", |bencher| {
        bencher.iter(|| batch_inverse(black_box(&values)))
    });
}

/// The non-Montgomery square-and-multiply ladder, every product paying the
/// modulus's per-product `reduce_wide` — the baseline the chain benches
/// compare against (`Fp::pow` itself is Montgomery-routed for the chained
/// moduli, so the baseline is spelled out here like the other pre-PR
/// references).
fn pow_per_product<M: PrimeModulus>(base: Fp<M>, mut exponent: u64) -> Fp<M> {
    if exponent == 0 {
        return Fp::<M>::ONE;
    }
    let mut base = base;
    let mut accumulator = Fp::<M>::ONE;
    while exponent > 1 {
        if exponent & 1 == 1 {
            accumulator *= base;
        }
        base *= base;
        exponent >>= 1;
    }
    accumulator * base
}

/// The non-Montgomery batch inversion (prefix products, one Fermat
/// inversion via [`pow_per_product`], suffix sweep) — the baseline for
/// `inverse_chain`.
fn batch_inverse_per_product<M: PrimeModulus>(values: &[Fp<M>]) -> Vec<Fp<M>> {
    let mut prefixes = Vec::with_capacity(values.len());
    let mut running = Fp::<M>::ONE;
    for &v in values {
        running *= v;
        prefixes.push(running);
    }
    let mut inverse_of_running = pow_per_product(running, M::MODULUS - 2);
    let mut result = vec![Fp::<M>::ZERO; values.len()];
    for i in (0..values.len()).rev() {
        if i == 0 {
            result[0] = inverse_of_running;
        } else {
            result[i] = inverse_of_running * prefixes[i - 1];
            inverse_of_running *= values[i];
        }
    }
    result
}

/// Long dependent product chains per reduction backend. `pow_chain/<field>/len<B>` runs a `B`-bit exponent ladder
/// (`B` squarings + up to `B` multiplies); `inverse_chain/<field>/len<N>`
/// batch-inverts `N` elements (`3(N−1)` chained multiplies plus one Fermat
/// ladder).
///
/// On `p251` the baseline is Barrett (`barrett` vs `montgomery`); the `p64`
/// pair (`fold` vs `montgomery`) tracks REDC against the Goldilocks ε-fold,
/// the trade the NTT butterflies make — the one that shows end to end
/// (`matmul_batch`, see ARCHITECTURE.md).
fn bench_montgomery_chains(c: &mut Criterion) {
    fn run_pow<M: PrimeModulus>(c: &mut Criterion, field_name: &str, baseline: &str, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base: Fp<M> = avcc_field::random_element(&mut rng);
        for bits in [16u32, 64] {
            let exponent = if bits == 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            let mut group = c.benchmark_group(format!("pow_chain/{field_name}/len{bits}"));
            group.bench_function(BenchmarkId::from_parameter(baseline), |bencher| {
                bencher.iter(|| pow_per_product(black_box(base), black_box(exponent)))
            });
            group.bench_function(BenchmarkId::from_parameter("montgomery"), |bencher| {
                // The routed path: one conversion in, REDC ladder, one out.
                bencher.iter(|| black_box(base).pow(black_box(exponent)))
            });
            group.finish();
        }
    }

    fn run_inverse<M: PrimeModulus>(
        c: &mut Criterion,
        field_name: &str,
        baseline: &str,
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        for len in [16usize, 64, 256, 1024] {
            let values: Vec<Fp<M>> = avcc_field::rng::random_nonzero_vector(&mut rng, len);
            let mut group = c.benchmark_group(format!("inverse_chain/{field_name}/len{len}"));
            group.bench_function(BenchmarkId::from_parameter(baseline), |bencher| {
                bencher.iter(|| batch_inverse_per_product(black_box(&values)))
            });
            group.bench_function(BenchmarkId::from_parameter("montgomery"), |bencher| {
                bencher.iter(|| batch_inverse(black_box(&values)))
            });
            group.finish();
        }
    }

    run_pow::<P251>(c, "p251", "barrett", 7);
    run_inverse::<P251>(c, "p251", "barrett", 8);
    run_pow::<P64>(c, "p64", "fold", 9);
    run_inverse::<P64>(c, "p64", "fold", 10);
}

criterion_group!(
    benches,
    bench_scalar_ops,
    bench_reduction_backends,
    bench_dot_products,
    bench_dot_backends,
    bench_dot_lanes,
    bench_mat_vec_512,
    bench_batch_inverse,
    bench_montgomery_chains
);
criterion_main!(benches);
