//! Offline stand-in for `proptest`.
//!
//! The build environment has no access to crates.io, so this crate implements
//! the subset of the proptest API the AVCC workspace uses: the [`proptest!`]
//! macro, `prop_assert*` macros, [`strategy::Strategy`] with `prop_map`,
//! range and [`collection::vec`] strategies, [`prelude::any`] and
//! [`prelude::ProptestConfig`].
//!
//! Semantics: each property runs `cases` times against values drawn from a
//! deterministic per-test generator (seeded from the test's name, so failures
//! reproduce across runs). There is no shrinking — a failing case panics with
//! the assertion message directly, followed by one line naming the property,
//! its seed and the failing case index; shrink support returns when the real
//! crate is available.

#![forbid(unsafe_code)]

pub mod strategy {
    //! Value-generation strategies.

    use core::marker::PhantomData;
    use core::ops::{Range, RangeInclusive};
    use rand::rngs::StdRng;
    use rand::Rng;

    /// The per-test random source.
    pub type TestRng = StdRng;

    /// A recipe for generating values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `map`.
        fn prop_map<U, F: Fn(Self::Value) -> U>(self, map: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, map }
        }
    }

    /// The strategy returned by [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
    pub struct Map<S, F> {
        inner: S,
        map: F,
    }

    impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
        type Value = U;

        fn generate(&self, rng: &mut TestRng) -> U {
            (self.map)(self.inner.generate(rng))
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
            impl Strategy for RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.gen_range(self.clone())
                }
            }
        )*};
    }

    impl_range_strategy!(u64, u32, u16, u8, usize, i64, i32, isize, f64);

    /// A strategy producing any value of a type (uniform over the type's
    /// domain for integers; finite uniform `[-1, 1]` scaled values for
    /// floats are not needed by this workspace).
    #[derive(Debug, Clone, Copy)]
    pub struct Any<T>(PhantomData<T>);

    impl<T> Default for Any<T> {
        fn default() -> Self {
            Any(PhantomData)
        }
    }

    /// Types usable with [`crate::prelude::any`].
    pub trait Arbitrary: Sized {
        /// Draws an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! impl_arbitrary_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    use rand::RngCore;
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_int!(u64, u32, u16, u8, usize, i64, i32, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            use rand::RngCore;
            rng.next_u64() & 1 == 1
        }
    }

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }
}

pub mod collection {
    //! Collection strategies.

    use super::strategy::{Strategy, TestRng};
    use core::ops::Range;
    use rand::Rng;

    /// A length specification for [`vec()`]: a fixed size or a half-open range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        start: usize,
        end: usize,
    }

    impl From<usize> for SizeRange {
        fn from(size: usize) -> Self {
            SizeRange {
                start: size,
                end: size + 1,
            }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(range: Range<usize>) -> Self {
            SizeRange {
                start: range.start,
                end: range.end,
            }
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates a `Vec` of values drawn from `element`, with a length drawn
    /// from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let len = if self.size.start + 1 >= self.size.end {
                self.size.start
            } else {
                rng.gen_range(self.size.start..self.size.end)
            };
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

pub mod test_runner {
    //! Test-execution configuration.

    /// Controls how many cases each property runs.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of cases to run per property.
        pub cases: u32,
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    impl Config {
        /// A configuration running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }
}

pub mod prelude {
    //! The glob-import surface, mirroring `proptest::prelude`.

    pub use crate::strategy::{Arbitrary, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    /// A strategy for any value of `T`.
    pub fn any<T: Arbitrary>() -> crate::strategy::Any<T> {
        crate::strategy::Any::default()
    }
}

#[doc(hidden)]
pub use rand as __rand;

/// Derives a deterministic per-test seed from the test's name.
pub fn seed_for(name: &str) -> u64 {
    // FNV-1a, good enough to decorrelate sibling tests.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in name.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x1000_0000_01b3);
    }
    hash
}

/// Names the property, seed and case on stderr when a case panics: held for
/// the duration of each case by [`proptest!`].
#[doc(hidden)]
pub struct CaseGuard {
    pub path: &'static str,
    pub seed: u64,
    pub case: u32,
}

impl CaseGuard {
    fn failure_line(&self) -> String {
        format!(
            "proptest: {} failed at case {} (seed {:#018x})",
            self.path, self.case, self.seed
        )
    }
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // A write error must not turn into a second panic mid-unwind.
            use std::io::Write as _;
            let _ = writeln!(std::io::stderr(), "{}", self.failure_line());
        }
    }
}

/// Runs a block of property tests. See the crate docs for semantics.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = $crate::test_runner::Config::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        config = $config:expr;
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strategy:expr),* $(,)? ) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $config;
                let __path = concat!(module_path!(), "::", stringify!($name));
                let __seed = $crate::seed_for(__path);
                let mut __rng =
                    <$crate::strategy::TestRng as $crate::__rand::SeedableRng>::seed_from_u64(__seed);
                for __case in 0..__config.cases {
                    let _guard = $crate::CaseGuard { path: __path, seed: __seed, case: __case };
                    $(
                        let $arg = $crate::strategy::Strategy::generate(&($strategy), &mut __rng);
                    )*
                    $body
                }
            }
        )*
    };
}

/// Asserts a condition inside a property (no shrinking in the stand-in).
#[macro_export]
macro_rules! prop_assert {
    ($($args:tt)*) => { assert!($($args)*) };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($args:tt)*) => { assert_eq!($($args)*) };
}

/// Asserts inequality inside a property.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($args:tt)*) => { assert_ne!($($args)*) };
}

/// Skips the current case when an assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($condition:expr) => {
        if !($condition) {
            continue;
        }
    };
    ($condition:expr, $($fmt:tt)*) => {
        if !($condition) {
            continue;
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn generated_values_respect_ranges(a in 3u64..10, b in -2i64..=2) {
            prop_assert!((3..10).contains(&a));
            prop_assert!((-2..=2).contains(&b));
        }

        #[test]
        fn mapped_strategies_apply_function(v in (0u64..5).prop_map(|x| x * 2)) {
            prop_assert_eq!(v % 2, 0);
            prop_assert!(v < 10);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn vec_strategy_respects_size(v in crate::collection::vec(0u64..100, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|&x| x < 100));
        }
    }

    #[test]
    fn seeds_differ_per_name() {
        assert_ne!(crate::seed_for("a"), crate::seed_for("b"));
    }

    #[test]
    fn a_failing_case_names_its_property_seed_and_index() {
        let guard = crate::CaseGuard {
            path: "some::module::prop_holds",
            seed: crate::seed_for("some::module::prop_holds"),
            case: 17,
        };
        let line = guard.failure_line();
        assert!(line.contains("some::module::prop_holds"), "{line}");
        assert!(line.contains("case 17"), "{line}");
        assert!(line.contains(&format!("{:#018x}", guard.seed)), "{line}");
    }

    #[test]
    fn a_failing_property_unwinds_through_the_guard() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(8))]
            fn fails_on_the_fourth_case(_x in 0u64..10) {
                static CASES: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
                let case = CASES.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                prop_assert!(case < 3, "case {case} fails");
            }
        }
        let panic = std::panic::catch_unwind(fails_on_the_fourth_case).unwrap_err();
        let message = panic.downcast_ref::<String>().expect("assert message");
        assert!(message.contains("case 3 fails"), "{message}");
    }
}
