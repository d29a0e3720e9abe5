//! A minimal, dependency-free stand-in for the [`proptest`] crate.
//!
//! This workspace builds in fully offline environments (no crates.io
//! access), so the real `proptest` cannot be resolved. Rather than deleting
//! or feature-gating the property tests, the workspace points the
//! `proptest` dependency at this in-repo shim (see `[workspace.dependencies]`
//! in the root `Cargo.toml`), which implements exactly the API surface the
//! tests use:
//!
//! - the `proptest!` macro (with optional `#![proptest_config(..)]`),
//! - `prop_assert!` / `prop_assert_eq!` / `prop_assume!` / `prop_oneof!`,
//! - `any::<T>()` for integers, `bool`, and `sample::Index`,
//! - integer `Range` strategies, tuple strategies, `Just`,
//! - `Strategy::prop_map` / `Strategy::prop_filter`,
//! - `collection::vec`, `option::of`,
//! - `&str` strategies for the small regex subset the tests use
//!   (character classes, `{m,n}` / `*` repetition, and `\PC`).
//!
//! Differences from real proptest: generation is **deterministic** (seeded
//! from the test name, so failures reproduce exactly), and there is **no
//! shrinking** — a failing case panics with the generated values visible in
//! the assertion message.
//!
//! [`proptest`]: https://docs.rs/proptest

#![forbid(unsafe_code)]

pub mod test_runner {
    //! Deterministic test configuration and RNG.

    /// Subset of proptest's `Config`: only `cases` is honored.
    #[derive(Clone, Debug)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Config {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 64 }
        }
    }

    /// Deterministic RNG (splitmix64). Seeded from the test name so each
    /// property explores a stable, reproducible sequence of cases.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates an RNG whose stream is a pure function of `seed_str`.
        pub fn deterministic(seed_str: &str) -> Self {
            // FNV-1a over the test name.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in seed_str.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
            TestRng { state: h | 1 }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform value in `[lo, hi)`. Panics if the range is empty.
        pub fn gen_range(&mut self, lo: u128, hi: u128) -> u128 {
            assert!(lo < hi, "empty range strategy [{lo}, {hi})");
            let span = hi - lo;
            let raw = ((self.next_u64() as u128) << 64) | self.next_u64() as u128;
            lo + raw % span
        }

        /// True with probability `num / den`.
        pub fn gen_ratio(&mut self, num: u32, den: u32) -> bool {
            (self.next_u64() % den as u64) < num as u64
        }
    }
}

pub mod strategy {
    //! The [`Strategy`] trait and basic combinators.

    use crate::test_runner::TestRng;

    /// A generator of values of type `Self::Value`.
    ///
    /// `generate` returns `None` when a filter rejects the candidate; the
    /// driver retries (up to a bound) until a value is produced.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Generates one candidate, or `None` if rejected by a filter.
        fn generate(&self, rng: &mut TestRng) -> Option<Self::Value>;

        /// Maps generated values through `f`.
        fn prop_map<O, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Rejects values for which `f` returns false. `reason` is shown if
        /// generation keeps failing.
        fn prop_filter<R: ToString, F: Fn(&Self::Value) -> bool>(
            self,
            reason: R,
            f: F,
        ) -> Filter<Self, F>
        where
            Self: Sized,
        {
            Filter {
                inner: self,
                reason: reason.to_string(),
                f,
            }
        }
    }

    /// Drives a strategy until it yields a value (bounded retries, for
    /// filtered strategies).
    pub fn generate_one<S: Strategy + ?Sized>(strategy: &S, rng: &mut TestRng) -> S::Value {
        for _ in 0..1_000 {
            if let Some(v) = strategy.generate(rng) {
                return v;
            }
        }
        panic!("strategy rejected 1000 candidates in a row (over-tight prop_filter?)");
    }

    /// Strategy producing one fixed value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> Option<T> {
            Some(self.0.clone())
        }
    }

    /// See [`Strategy::prop_map`].
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, O, F: Fn(S::Value) -> O> Strategy for Map<S, F> {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> Option<O> {
            self.inner.generate(rng).map(&self.f)
        }
    }

    /// See [`Strategy::prop_filter`].
    pub struct Filter<S, F> {
        inner: S,
        #[allow(dead_code)]
        reason: String,
        f: F,
    }

    impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            self.inner.generate(rng).filter(|v| (self.f)(v))
        }
    }

    /// Uniform choice between boxed alternatives (`prop_oneof!`).
    pub struct Union<V> {
        options: Vec<Box<dyn Strategy<Value = V>>>,
    }

    impl<V> Union<V> {
        /// Builds a union; panics if `options` is empty.
        pub fn new(options: Vec<Box<dyn Strategy<Value = V>>>) -> Self {
            assert!(!options.is_empty(), "prop_oneof! needs at least one arm");
            Union { options }
        }
    }

    impl<V> Strategy for Union<V> {
        type Value = V;
        fn generate(&self, rng: &mut TestRng) -> Option<V> {
            let i = rng.gen_range(0, self.options.len() as u128) as usize;
            self.options[i].generate(rng)
        }
    }

    /// Boxing helper used by `prop_oneof!` (keeps type inference simple).
    pub fn boxed_strategy<S: Strategy + 'static>(s: S) -> Box<dyn Strategy<Value = S::Value>> {
        Box::new(s)
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for ::std::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                    Some(rng.gen_range(self.start as u128, self.end as u128) as $t)
                }
            }
            impl Strategy for ::std::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> Option<$t> {
                    Some(rng.gen_range(*self.start() as u128, *self.end() as u128 + 1) as $t)
                }
            }
        )*};
    }
    int_range_strategy!(u8, u16, u32, u64, usize);

    macro_rules! tuple_strategy {
        ($(($($n:ident $i:tt),+))*) => {$(
            impl<$($n: Strategy),+> Strategy for ($($n,)+) {
                type Value = ($($n::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Option<Self::Value> {
                    Some(($(self.$i.generate(rng)?,)+))
                }
            }
        )*};
    }
    tuple_strategy! {
        (A 0, B 1)
        (A 0, B 1, C 2)
        (A 0, B 1, C 2, D 3)
        (A 0, B 1, C 2, D 3, E 4)
        (A 0, B 1, C 2, D 3, E 4, F 5)
    }

    impl Strategy for &str {
        type Value = String;
        fn generate(&self, rng: &mut TestRng) -> Option<String> {
            Some(crate::string::generate_matching(self, rng))
        }
    }
}

pub mod arbitrary {
    //! `any::<T>()` for the types the workspace tests generate.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical "generate anything" strategy.
    pub trait Arbitrary: Sized {
        /// Generates an arbitrary value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! arb_int {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }
    arb_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    /// The strategy returned by [`any`].
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> Option<T> {
            Some(T::arbitrary(rng))
        }
    }

    /// Strategy generating any value of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }
}

pub mod collection {
    //! `collection::vec`.

    use crate::strategy::{generate_one, Strategy};
    use crate::test_runner::TestRng;

    /// Admissible lengths for a generated collection: `[lo, hi)`.
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy for `Vec<S::Value>` with length drawn from a [`SizeRange`].
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors of values from `element` with length in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<Vec<S::Value>> {
            let len = rng.gen_range(self.size.lo as u128, self.size.hi as u128) as usize;
            Some((0..len).map(|_| generate_one(&self.element, rng)).collect())
        }
    }
}

pub mod option {
    //! `option::of`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Strategy for `Option<S::Value>` (`None` one time in four).
    pub struct OptionStrategy<S> {
        inner: S,
    }

    /// Generates `Some(inner)` three times out of four, else `None`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<Option<S::Value>> {
            if rng.gen_ratio(1, 4) {
                Some(None)
            } else {
                self.inner.generate(rng).map(Some)
            }
        }
    }
}

pub mod sample {
    //! `sample::Index`.

    use crate::arbitrary::Arbitrary;
    use crate::test_runner::TestRng;

    /// An index into a collection whose length is only known at use time.
    #[derive(Clone, Copy, Debug)]
    pub struct Index(usize);

    impl Index {
        /// Resolves the index against a collection of length `len`.
        ///
        /// # Panics
        ///
        /// Panics if `len` is zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on empty collection");
            self.0 % len
        }
    }

    impl Arbitrary for Index {
        fn arbitrary(rng: &mut TestRng) -> Self {
            Index(rng.next_u64() as usize)
        }
    }
}

pub mod string {
    //! Generation for the small regex subset used as `&str` strategies:
    //! character classes (`[a-z0-9_]`), repetition (`*`, `+`, `?`, `{m,n}`,
    //! `{n}`), the `\PC` ("not control") Unicode category escape, and
    //! literal characters.

    use crate::test_runner::TestRng;

    enum CharSet {
        /// Inclusive char ranges; single chars are `(c, c)`.
        Class(Vec<(char, char)>),
        /// `\PC`: any non-control character (sampled from printable ranges).
        NotControl,
    }

    struct Term {
        set: CharSet,
        min: usize,
        max: usize, // inclusive
    }

    fn parse(pattern: &str) -> Vec<Term> {
        let mut chars = pattern.chars().peekable();
        let mut terms = Vec::new();
        while let Some(c) = chars.next() {
            let set = match c {
                '[' => {
                    let mut ranges = Vec::new();
                    loop {
                        let lo = match chars.next() {
                            Some(']') => break,
                            Some('\\') => chars.next().expect("escape in class"),
                            Some(ch) => ch,
                            None => panic!("unterminated character class in {pattern:?}"),
                        };
                        if chars.peek() == Some(&'-') {
                            chars.next();
                            let hi = chars.next().expect("range end in class");
                            ranges.push((lo, hi));
                        } else {
                            ranges.push((lo, lo));
                        }
                    }
                    CharSet::Class(ranges)
                }
                '\\' => match chars.next() {
                    Some('P') => {
                        let cat = chars.next().expect("category after \\P");
                        assert_eq!(cat, 'C', "only \\PC is supported, got \\P{cat}");
                        CharSet::NotControl
                    }
                    Some('d') => CharSet::Class(vec![('0', '9')]),
                    Some(esc) => CharSet::Class(vec![(esc, esc)]),
                    None => panic!("dangling backslash in {pattern:?}"),
                },
                lit => CharSet::Class(vec![(lit, lit)]),
            };
            // Optional quantifier.
            let (min, max) = match chars.peek() {
                Some('*') => {
                    chars.next();
                    (0, 8)
                }
                Some('+') => {
                    chars.next();
                    (1, 8)
                }
                Some('?') => {
                    chars.next();
                    (0, 1)
                }
                Some('{') => {
                    chars.next();
                    let mut spec = String::new();
                    for ch in chars.by_ref() {
                        if ch == '}' {
                            break;
                        }
                        spec.push(ch);
                    }
                    match spec.split_once(',') {
                        Some((m, n)) => (
                            m.trim().parse().expect("repeat min"),
                            n.trim().parse().expect("repeat max"),
                        ),
                        None => {
                            let n = spec.trim().parse().expect("repeat count");
                            (n, n)
                        }
                    }
                }
                _ => (1, 1),
            };
            terms.push(Term { set, min, max });
        }
        terms
    }

    fn sample(set: &CharSet, rng: &mut TestRng) -> char {
        const PRINTABLE: &[(char, char)] =
            &[(' ', '~'), ('\u{A1}', '\u{FF}'), ('\u{391}', '\u{3C9}')];
        let ranges: &[(char, char)] = match set {
            CharSet::Class(r) => r,
            CharSet::NotControl => PRINTABLE,
        };
        let total: u32 = ranges
            .iter()
            .map(|&(lo, hi)| hi as u32 - lo as u32 + 1)
            .sum();
        let mut pick = rng.gen_range(0, total as u128) as u32;
        for &(lo, hi) in ranges {
            let span = hi as u32 - lo as u32 + 1;
            if pick < span {
                return char::from_u32(lo as u32 + pick).expect("valid scalar in class");
            }
            pick -= span;
        }
        unreachable!("pick < total")
    }

    /// Generates a string matching `pattern` (within the supported subset).
    pub fn generate_matching(pattern: &str, rng: &mut TestRng) -> String {
        let mut out = String::new();
        for term in parse(pattern) {
            let n = rng.gen_range(term.min as u128, term.max as u128 + 1) as usize;
            for _ in 0..n {
                out.push(sample(&term.set, rng));
            }
        }
        out
    }
}

pub mod prelude {
    //! One-stop import mirroring `proptest::prelude`.

    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Defines property tests. Each case draws fresh values from the argument
/// strategies; the body runs once per case. No shrinking: failures panic
/// with the plain assertion message.
#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $(
            $(#[$meta:meta])*
            fn $name:ident($($arg:pat in $strat:expr),+ $(,)?) $body:block
        )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::Config = $cfg;
                let mut rng = $crate::test_runner::TestRng::deterministic(concat!(
                    module_path!(), "::", stringify!($name)
                ));
                for _case in 0..config.cases {
                    $(let $arg = $crate::strategy::generate_one(&($strat), &mut rng);)+
                    // Closure so `prop_assume!` can skip the case via `return`.
                    let body = || $body;
                    body();
                }
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest! {
            #![proptest_config($crate::test_runner::Config::default())]
            $($rest)*
        }
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Skips the current case when its inputs don't satisfy a precondition.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(, $($fmt:tt)*)?) => {
        if !($cond) {
            return;
        }
    };
}

/// Uniform choice among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::boxed_strategy($s)),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn regex_subset_generates_matching_strings() {
        let mut rng = crate::test_runner::TestRng::deterministic("regex");
        for _ in 0..200 {
            let s = crate::string::generate_matching("[a-z][a-z0-9_]{0,10}", &mut rng);
            let mut cs = s.chars();
            let first = cs.next().unwrap();
            assert!(first.is_ascii_lowercase(), "bad first char in {s:?}");
            assert!(s.len() <= 11);
            for c in cs {
                assert!(c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
            }
            let t = crate::string::generate_matching("\\PC*", &mut rng);
            assert!(t.chars().all(|c| !c.is_control()), "control char in {t:?}");
        }
    }

    #[test]
    fn determinism() {
        let mut a = crate::test_runner::TestRng::deterministic("x");
        let mut b = crate::test_runner::TestRng::deterministic("x");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn macro_end_to_end(
            v in prop::collection::vec(any::<u8>(), 0..16),
            n in 1usize..10,
            opt in prop::option::of(any::<u32>()),
            choice in prop_oneof![Just(1u8), Just(2u8), (3u8..5).prop_map(|x| x)],
            idx in any::<prop::sample::Index>(),
        ) {
            prop_assume!(n != 9);
            prop_assert!(v.len() < 16);
            prop_assert!((1..10).contains(&n) && n != 9);
            prop_assert!((1..5).contains(&choice));
            prop_assert_eq!(idx.index(n) < n, true, "index in range {}", n);
            let _ = opt;
        }
    }
}
