//! Fault-site replay: an image's operation-level fault schedule, drawn up
//! front.
//!
//! [`FaultyArithmetic`](crate::FaultyArithmetic) reads its RNG only where a
//! fault strikes (the geometric gap to the next strike, the protection mask
//! roll, the bit, the operand side) and never from operand values. An
//! image's whole fault schedule is therefore a pure function of (seed,
//! configuration, operation sequence), and the operation sequence is fixed
//! by the network shape and the algorithm.
//!
//! [`StrikeEnumerator`] draws that schedule without executing anything: fed
//! each layer's [`OpSequence`] in execution order, it emits the layer's
//! [`Strike`]s from the same `SmallRng` stream, in the same order, as the
//! instrumented backend. A kernel that knows its operation order can then
//! run on plain integer code and recompute only the struck operations —
//! [`Strike::mul`] / [`Strike::add`] apply a strike exactly as the
//! instrumented backend would, [`StrikeCursor`] replays a strike list
//! through any generic [`Arithmetic`] kernel, and [`MacChainReplay`]
//! replays one multiply-accumulate chain ([`MacChain`]) in O(strikes) plus
//! at most one contiguous dot product. The instrumented backend stays the
//! oracle these are tested against.
//!
//! All replay arithmetic wraps in two's complement, exactly like the
//! instrumented backend: the difference identities replay relies on
//! (`prefix = exact − suffix`, `struck = exact + Δ`) are exact in the ring
//! of 64-bit integers, so they hold even where dense faults push a value
//! past `i64`.

use crate::arithmetic::GapSampler;
use crate::ProtectionPlan;
use crate::{flip_bit_within, Arithmetic, FaultConfig, FaultModel, OpCounters, OpType};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;

/// The primitive-operation sequence one layer issues, in execution order.
pub trait OpSequence {
    /// Number of operations the layer issues.
    fn op_count(&self) -> u64;

    /// Type of operation `op` (`op < op_count()`).
    fn op_type(&self, op: u64) -> OpType;
}

/// `n` multiply-accumulates issued as `mul`, `add` pairs — the operation
/// sequence of a fully-connected layer and of a direct convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacOps(pub u64);

impl OpSequence for MacOps {
    fn op_count(&self) -> u64 {
        2 * self.0
    }

    fn op_type(&self, op: u64) -> OpType {
        if op.is_multiple_of(2) {
            OpType::Mul
        } else {
            OpType::Add
        }
    }
}

/// Which value of an operation a bit flip lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlipSite {
    /// The first operand (`a` of `mul(a, b)` / `add(a, b)`).
    FirstOperand,
    /// The second operand.
    SecondOperand,
    /// The result.
    Result,
}

/// One bit flip: where it lands, which bit, within how wide a word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flip {
    /// The struck value.
    pub site: FlipSite,
    /// The flipped bit.
    pub bit: u32,
    /// Width of the word the flip is confined to (see [`flip_bit_within`]).
    pub width: u32,
}

impl Flip {
    fn flip(&self, value: i64) -> i64 {
        flip_bit_within(value, self.bit, self.width)
    }
}

/// One fault striking one primitive operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strike {
    /// Compute layer the operation belongs to.
    pub layer: usize,
    /// Index of the operation within its layer's [`OpSequence`].
    pub op: u64,
    /// Type of the struck operation.
    pub op_type: OpType,
    /// The bit flip, or `None` when protection masked the fault.
    pub flip: Option<Flip>,
}

impl Strike {
    /// Whether the fault corrupts its operation (it was not masked).
    #[must_use]
    pub fn injects(&self) -> bool {
        self.flip.is_some()
    }

    /// The struck multiplication `a * b`, exactly as
    /// [`FaultyArithmetic`](crate::FaultyArithmetic) computes it (wrapping).
    #[must_use]
    #[inline]
    pub fn mul(&self, a: i64, b: i64) -> i64 {
        debug_assert_eq!(self.op_type, OpType::Mul);
        match self.flip {
            None => a.wrapping_mul(b),
            Some(f) => match f.site {
                FlipSite::FirstOperand => f.flip(a).wrapping_mul(b),
                FlipSite::SecondOperand => a.wrapping_mul(f.flip(b)),
                FlipSite::Result => f.flip(a.wrapping_mul(b)),
            },
        }
    }

    /// The struck addition `a + b`, exactly as
    /// [`FaultyArithmetic`](crate::FaultyArithmetic) computes it (wrapping).
    #[must_use]
    #[inline]
    pub fn add(&self, a: i64, b: i64) -> i64 {
        debug_assert_eq!(self.op_type, OpType::Add);
        match self.flip {
            None => a.wrapping_add(b),
            Some(f) => match f.site {
                FlipSite::FirstOperand => f.flip(a).wrapping_add(b),
                FlipSite::SecondOperand => a.wrapping_add(f.flip(b)),
                FlipSite::Result => f.flip(a.wrapping_add(b)),
            },
        }
    }
}

/// Split sorted `strikes` into those before operation `end` and the rest.
/// Scans linearly: replay consumes strikes front to back, a few at a time.
#[must_use]
pub fn split_strikes(strikes: &[Strike], end: u64) -> (&[Strike], &[Strike]) {
    strikes.split_at(strikes.iter().take_while(|s| s.op < end).count())
}

/// Draws an image's strikes layer by layer, bit-identically to a
/// [`FaultyArithmetic`](crate::FaultyArithmetic) built from the same
/// configuration and seed executing the same operation sequence.
#[derive(Debug, Clone)]
pub struct StrikeEnumerator {
    width: u32,
    model: FaultModel,
    protection: ProtectionPlan,
    gaps: GapSampler,
    rng: SmallRng,
    ops_until_fault: u64,
}

// wgft-audit: consensus-critical -- the fault schedule of every replayed campaign cell
impl StrikeEnumerator {
    /// An enumerator for one image: the counterpart of
    /// `FaultyArithmetic::new(config.clone(), seed)`.
    #[must_use]
    pub fn new(config: &FaultConfig, seed: u64) -> Self {
        let gaps = GapSampler::new(config.fault_probability());
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops_until_fault = gaps.sample(&mut rng);
        Self {
            width: config.width.bits(),
            model: config.model,
            protection: config.protection.clone(),
            gaps,
            rng,
            ops_until_fault,
        }
    }

    /// Append the strikes of compute layer `layer`, whose operations are
    /// `ops`, to `strikes` (in operation order). Layers must be fed in
    /// execution order, each exactly once, as the instrumented backend
    /// would execute them.
    pub fn layer<S: OpSequence + ?Sized>(
        &mut self,
        layer: usize,
        ops: &S,
        strikes: &mut Vec<Strike>,
    ) {
        let count = ops.op_count();
        let mul_protection = self.protection.protection_probability(layer, OpType::Mul);
        let add_protection = self.protection.protection_probability(layer, OpType::Add);
        let mut next = 0u64;
        while self.ops_until_fault != u64::MAX {
            let remaining = count - next;
            if self.ops_until_fault > remaining {
                self.ops_until_fault -= remaining;
                return;
            }
            // The same draws, in the same order, as `FaultyArithmetic`: the
            // next gap, the mask roll, the bit, the operand side.
            let op = next + self.ops_until_fault - 1;
            self.ops_until_fault = self.gaps.sample(&mut self.rng);
            let op_type = ops.op_type(op);
            let protection = match op_type {
                OpType::Mul => mul_protection,
                OpType::Add => add_protection,
            };
            let flip = (!self.mask_roll(protection)).then(|| self.draw_flip(op_type));
            strikes.push(Strike {
                layer,
                op,
                op_type,
                flip,
            });
            next = op + 1;
        }
    }

    /// Whether a strike on an operation with this protection probability is
    /// masked — drawing only for fractional protection, as the instrumented
    /// backend does.
    // wgft-audit: blessed(float-arith) -- the seeded f64 draw and comparison `FaultyArithmetic` makes for the same strike; replay and oracle run it on the same platform
    fn mask_roll(&mut self, protection: f64) -> bool {
        if protection <= 0.0 {
            false
        } else if protection >= 1.0 {
            true
        } else {
            self.rng.gen::<f64>() < protection
        }
    }

    fn draw_flip(&mut self, op_type: OpType) -> Flip {
        let w = self.width;
        let (site, width) = match (op_type, self.model) {
            (OpType::Mul, FaultModel::ResultOnly) => (FlipSite::Result, 2 * w),
            (OpType::Mul, FaultModel::OperandMulResultAdd | FaultModel::OperandOnly) => {
                let bit = self.rng.gen_range(0..w);
                let site = if self.rng.gen::<bool>() {
                    FlipSite::FirstOperand
                } else {
                    FlipSite::SecondOperand
                };
                return Flip {
                    site,
                    bit,
                    width: w,
                };
            }
            (OpType::Add, FaultModel::OperandOnly) => (FlipSite::FirstOperand, w),
            (OpType::Add, FaultModel::OperandMulResultAdd | FaultModel::ResultOnly) => {
                (FlipSite::Result, w)
            }
        };
        Flip {
            site,
            bit: self.rng.gen_range(0..width),
            width,
        }
    }
}

/// An [`Arithmetic`] backend that replays a strike list: operation `i`
/// (counted from the cursor's start) computes exactly, unless the next
/// strike sits at `i`, in which case that strike is applied. Running a
/// generic kernel on a cursor recomputes it under the strikes in the
/// kernel's own operation order. It counts nothing: [`Arithmetic::counters`]
/// stays empty.
#[derive(Debug, Clone)]
pub struct StrikeCursor<'a> {
    strikes: &'a [Strike],
    op: u64,
    counters: OpCounters,
}

impl<'a> StrikeCursor<'a> {
    /// A cursor whose next operation has index `first_op`; `strikes` must be
    /// sorted by operation index and lie at or after `first_op`.
    #[must_use]
    pub fn new(strikes: &'a [Strike], first_op: u64) -> Self {
        Self {
            strikes,
            op: first_op,
            counters: OpCounters::new(),
        }
    }

    /// Strikes not yet replayed.
    #[must_use]
    pub fn remaining(&self) -> &'a [Strike] {
        self.strikes
    }

    #[inline]
    fn take(&mut self) -> Option<&'a Strike> {
        let op = self.op;
        self.op += 1;
        match self.strikes.split_first() {
            Some((strike, rest)) if strike.op == op => {
                self.strikes = rest;
                Some(strike)
            }
            _ => None,
        }
    }
}

impl Arithmetic for StrikeCursor<'_> {
    fn begin_layer(&mut self, _layer: usize) {}

    #[inline]
    fn mul(&mut self, a: i64, b: i64) -> i64 {
        match self.take() {
            Some(strike) => strike.mul(a, b),
            None => a.wrapping_mul(b),
        }
    }

    #[inline]
    fn add(&mut self, a: i64, b: i64) -> i64 {
        match self.take() {
            Some(strike) => strike.add(a, b),
            None => a.wrapping_add(b),
        }
    }

    fn counters(&self) -> &OpCounters {
        &self.counters
    }

    fn reset_counters(&mut self) {}
}

/// One multiply-accumulate chain `acc = add(acc, mul(a_k, b_k))` from
/// `acc = 0` over pairs `k = 0..pairs()`, as a replay kernel lays it out:
/// the operands of any pair in O(1), and the exact sum of the products of
/// any run of pairs (over contiguous operand rows where the layout has
/// them, so the sum vectorises).
pub trait MacChain {
    /// Number of pairs.
    fn pairs(&self) -> usize;

    /// The operands `(a, b)` of pair `pair`, in the order the instrumented
    /// kernel issues `mul(a, b)`.
    fn operands(&self, pair: usize) -> (i64, i64);

    /// The exact, wrapping sum of the products of the pairs in `pairs`.
    fn dot(&self, pairs: Range<usize>) -> i64;
}

/// Replays the strikes of one [`MacChain`] whose `k`-th pair issues its
/// `mul` at operation `first_op + k * stride` and its `add` at the
/// operation after.
///
/// Starting from the chain's exact value, only struck operations are
/// recomputed:
///
/// * a struck `mul` changes the chain by a value-independent delta, the
///   struck product minus the exact one — O(1) from the pair's operands;
/// * a struck `add` sees the running sum, so it needs the exact prefix of
///   the pairs before it. That prefix is one [`MacChain::dot`] from
///   whichever end of the chain is nearer (the prefix is `exact − suffix`);
///   a later `add` strike extends the last prefix or again takes the
///   suffix, whichever sums fewer pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MacChainReplay {
    first_op: u64,
    stride: u64,
}

// wgft-audit: consensus-critical -- recomputes struck accumulation chains of replayed campaign cells
impl MacChainReplay {
    /// A chain laid out from operation `first_op` at `stride` operations
    /// per pair.
    #[must_use]
    pub fn new(first_op: u64, stride: u64) -> Self {
        Self { first_op, stride }
    }

    /// The chain's value under `strikes` (sorted, all inside the chain),
    /// given its exact value `exact` — bit-identical to the chain executed
    /// on [`FaultyArithmetic`](crate::FaultyArithmetic).
    #[must_use]
    pub fn replay<C: MacChain + ?Sized>(&self, chain: &C, strikes: &[Strike], exact: i64) -> i64 {
        let pairs = chain.pairs();
        // Struck minus exact running sum after the last replayed pair.
        let mut delta = 0i64;
        // The exact sum of pairs `0..known`.
        let (mut known, mut known_sum) = (0usize, 0i64);
        let mut rest = strikes;
        while let Some((strike, tail)) = rest.split_first() {
            rest = tail;
            let offset = strike.op - self.first_op;
            let pair = if self.stride.is_power_of_two() {
                offset >> self.stride.trailing_zeros()
            } else {
                offset / self.stride
            } as usize;
            debug_assert!(pair < pairs, "a strike lies outside its chain");
            let (a, b) = chain.operands(pair);
            let product = a.wrapping_mul(b);
            let (struck_product, add) = match strike.op_type {
                OpType::Mul => {
                    let struck = strike.mul(a, b);
                    match rest.split_first() {
                        Some((next, tail)) if next.op == strike.op + 1 => {
                            rest = tail;
                            (struck, next)
                        }
                        _ => {
                            delta = delta.wrapping_add(struck.wrapping_sub(product));
                            continue;
                        }
                    }
                }
                OpType::Add => (product, strike),
            };
            let prefix = if pair - known <= pairs - pair {
                known_sum.wrapping_add(chain.dot(known..pair))
            } else {
                exact.wrapping_sub(chain.dot(pair..pairs))
            };
            (known, known_sum) = (pair, prefix);
            let sum = add.add(prefix.wrapping_add(delta), struck_product);
            delta = sum.wrapping_sub(prefix.wrapping_add(product));
        }
        exact.wrapping_add(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BitErrorRate, FaultyArithmetic};
    use wgft_fixedpoint::BitWidth;

    /// A layer sequence with an irregular mul/add pattern, like a winograd
    /// transform's.
    struct Pattern(Vec<OpType>);

    impl OpSequence for Pattern {
        fn op_count(&self) -> u64 {
            self.0.len() as u64
        }
        fn op_type(&self, op: u64) -> OpType {
            self.0[op as usize]
        }
    }

    fn operand(layer: usize, i: usize, salt: i64) -> i64 {
        ((layer * 7919 + i * 104_729) as i64 * (salt + 3)) % 40_000 - 20_000
    }

    fn plans() -> Vec<ProtectionPlan> {
        vec![
            ProtectionPlan::none(),
            ProtectionPlan::none().with_fault_free_op_type(OpType::Mul),
            ProtectionPlan::none().with_fault_free_op_type(OpType::Add),
            ProtectionPlan::none().with_fault_free_layer(1),
            ProtectionPlan::none()
                .with_fraction(0, OpType::Mul, 0.4)
                .unwrap()
                .with_fraction(2, OpType::Add, 0.7)
                .unwrap(),
        ]
    }

    /// The enumerator plus `Strike::{mul, add}` reproduce `FaultyArithmetic`
    /// value for value and counter for counter, across layers, fault models
    /// and protection plans.
    #[test]
    fn enumerated_strikes_replay_faulty_arithmetic_exactly() {
        let layers: Vec<Pattern> = (0..4)
            .map(|l| {
                Pattern(
                    (0..3000 + 500 * l)
                        .map(|i| {
                            if (i * (l + 3)) % 5 < 2 {
                                OpType::Mul
                            } else {
                                OpType::Add
                            }
                        })
                        .collect(),
                )
            })
            .collect();
        for model in FaultModel::all() {
            for protection in plans() {
                for ber in [1e-4, 3e-3, 0.05] {
                    for seed in 0..4u64 {
                        let config = FaultConfig::new(BitErrorRate::new(ber), BitWidth::W16)
                            .with_model(model)
                            .with_protection(protection.clone());
                        let mut oracle = FaultyArithmetic::new(config.clone(), seed);
                        let mut enumerator = StrikeEnumerator::new(&config, seed);
                        let (mut injected, mut masked) = (0u64, 0u64);
                        for (l, ops) in layers.iter().enumerate() {
                            oracle.begin_layer(l);
                            let mut strikes = Vec::new();
                            enumerator.layer(l, ops, &mut strikes);
                            let mut cursor = StrikeCursor::new(&strikes, 0);
                            for (i, &op) in ops.0.iter().enumerate() {
                                let (a, b) = (operand(l, i, 1), operand(l, i, 2));
                                let (want, got) = match op {
                                    OpType::Mul => (oracle.mul(a, b), cursor.mul(a, b)),
                                    OpType::Add => (oracle.add(a, b), cursor.add(a, b)),
                                };
                                assert_eq!(
                                    want, got,
                                    "{model:?} {ber} seed {seed} layer {l} op {i}"
                                );
                            }
                            assert!(cursor.remaining().is_empty());
                            assert!(strikes.iter().all(|s| s.layer == l));
                            injected += strikes.iter().filter(|s| s.injects()).count() as u64;
                            masked += strikes.iter().filter(|s| !s.injects()).count() as u64;
                        }
                        assert_eq!(injected, oracle.faults_injected());
                        assert_eq!(masked, oracle.faults_masked());
                    }
                }
            }
        }
    }

    #[test]
    fn zero_and_tiny_rates_enumerate_nothing() {
        for ber in [0.0, 1e-18] {
            let config = FaultConfig::new(BitErrorRate::new(ber), BitWidth::W16);
            let mut enumerator = StrikeEnumerator::new(&config, 5);
            let mut strikes = Vec::new();
            enumerator.layer(0, &MacOps(1 << 40), &mut strikes);
            assert!(strikes.is_empty());
        }
    }

    #[test]
    fn certain_rate_strikes_every_op() {
        let config = FaultConfig::new(BitErrorRate::new(1.0), BitWidth::W8);
        let mut enumerator = StrikeEnumerator::new(&config, 2);
        let mut strikes = Vec::new();
        enumerator.layer(3, &MacOps(50), &mut strikes);
        assert_eq!(strikes.len(), 100);
        assert!(strikes.iter().enumerate().all(|(i, s)| s.op == i as u64));
        assert_eq!(strikes[0].op_type, OpType::Mul);
        assert_eq!(strikes[1].op_type, OpType::Add);
    }

    /// A chain over an operand list that records the runs it sums.
    struct Pairs {
        pairs: Vec<(i64, i64)>,
        dots: std::cell::RefCell<Vec<Range<usize>>>,
    }

    impl Pairs {
        fn new(pairs: Vec<(i64, i64)>) -> Self {
            Self {
                pairs,
                dots: Default::default(),
            }
        }

        fn exact(&self) -> i64 {
            self.dot(0..self.pairs.len())
        }
    }

    impl MacChain for Pairs {
        fn pairs(&self) -> usize {
            self.pairs.len()
        }
        fn operands(&self, pair: usize) -> (i64, i64) {
            self.pairs[pair]
        }
        fn dot(&self, pairs: Range<usize>) -> i64 {
            self.dots.borrow_mut().push(pairs.clone());
            self.pairs[pairs]
                .iter()
                .fold(0i64, |acc, &(a, b)| acc.wrapping_add(a.wrapping_mul(b)))
        }
    }

    /// The chain executed on `FaultyArithmetic`, and the enumerator's
    /// injected strikes for it.
    fn oracle_chain(config: &FaultConfig, seed: u64, pairs: &[(i64, i64)]) -> (i64, Vec<Strike>) {
        let mut oracle = FaultyArithmetic::new(config.clone(), seed);
        oracle.begin_layer(0);
        let mut acc = 0i64;
        for &(a, b) in pairs {
            let p = oracle.mul(a, b);
            acc = oracle.add(acc, p);
        }
        let mut strikes = Vec::new();
        StrikeEnumerator::new(config, seed).layer(0, &MacOps(pairs.len() as u64), &mut strikes);
        strikes.retain(Strike::injects);
        (acc, strikes)
    }

    /// A replayed chain (strikes applied to the exact value) equals the
    /// same chain executed on `FaultyArithmetic`, at any stride.
    #[test]
    fn mac_chain_replay_matches_the_oracle() {
        let pairs: Vec<(i64, i64)> = (0..200)
            .map(|i| (operand(0, i, 1), operand(1, i, 5)))
            .collect();
        let chain = Pairs::new(pairs.clone());
        let clean = chain.exact();
        for model in FaultModel::all() {
            for seed in 0..20u64 {
                let config =
                    FaultConfig::new(BitErrorRate::new(2e-3), BitWidth::W16).with_model(model);
                let (want, strikes) = oracle_chain(&config, seed, &pairs);
                for stride in [2u64, 6] {
                    // Re-index the strikes onto a chain laid out at `stride`.
                    let spread: Vec<Strike> = strikes
                        .iter()
                        .map(|s| Strike {
                            op: 10 + (s.op / 2) * stride + s.op % 2,
                            ..*s
                        })
                        .collect();
                    let got = MacChainReplay::new(10, stride).replay(&chain, &spread, clean);
                    assert_eq!(want, got, "{model:?} seed {seed} stride {stride}");
                }
            }
        }
    }

    /// Add strikes confined to either half of a chain: the prefix they see
    /// comes from the chain's start (first half) or as `exact − suffix`
    /// (second half), and both equal the oracle — for every fault model,
    /// `OperandOnly`'s exclusive prefix (the flip lands on the running sum
    /// before the add) included.
    #[test]
    fn add_strikes_in_either_half_match_the_oracle() {
        let n = 64usize;
        let pairs: Vec<(i64, i64)> = (0..n)
            .map(|i| (operand(2, i, 3), operand(3, i, 7)))
            .collect();
        for model in FaultModel::all() {
            let config = FaultConfig::new(BitErrorRate::new(3e-3), BitWidth::W16)
                .with_model(model)
                .with_protection(ProtectionPlan::none().with_fault_free_op_type(OpType::Mul));
            let (mut first_half, mut second_half) = (0, 0);
            for seed in 0..400u64 {
                let (want, strikes) = oracle_chain(&config, seed, &pairs);
                let Some(last) = strikes.last() else { continue };
                let chain = Pairs::new(pairs.clone());
                let got = MacChainReplay::new(0, 2).replay(&chain, &strikes, chain.exact());
                assert_eq!(want, got, "{model:?} seed {seed}");
                let dots = chain.dots.borrow();
                let runs = &dots[1..];
                if (last.op / 2) < n as u64 / 2 {
                    first_half += 1;
                    assert!(runs.iter().all(|r| r.end <= n / 2), "{runs:?}");
                } else if (strikes[0].op / 2) > n as u64 / 2 {
                    second_half += 1;
                    assert_eq!(runs[0].end, n, "a late strike sums the suffix");
                    assert!(runs[0].len() <= n / 2);
                }
            }
            assert!(
                first_half >= 5 && second_half >= 5,
                "{first_half} {second_half}"
            );
        }
    }

    /// A `mul` strike and an `add` strike on the same pair: the add sees
    /// the struck product. Mul-only chains never sum a prefix.
    #[test]
    fn mul_and_add_strikes_on_one_pair_match_the_oracle() {
        let n = 40usize;
        let pairs: Vec<(i64, i64)> = (0..n)
            .map(|i| (operand(4, i, 2), operand(5, i, 9)))
            .collect();
        for model in FaultModel::all() {
            let config = FaultConfig::new(BitErrorRate::new(0.03), BitWidth::W8).with_model(model);
            let mut same_pair = 0;
            for seed in 0..200u64 {
                let (want, strikes) = oracle_chain(&config, seed, &pairs);
                let chain = Pairs::new(pairs.clone());
                let got = MacChainReplay::new(0, 2).replay(&chain, &strikes, chain.exact());
                assert_eq!(want, got, "{model:?} seed {seed}");
                same_pair += strikes
                    .windows(2)
                    .filter(|w| w[0].op % 2 == 0 && w[1].op == w[0].op + 1)
                    .count();
            }
            assert!(same_pair > 0, "{model:?}: no pair struck twice");
            let mul_only = config
                .clone()
                .with_protection(ProtectionPlan::none().with_fault_free_op_type(OpType::Add));
            for seed in 0..50u64 {
                let (want, strikes) = oracle_chain(&mul_only, seed, &pairs);
                let chain = Pairs::new(pairs.clone());
                let exact = chain.exact();
                let got = MacChainReplay::new(0, 2).replay(&chain, &strikes, exact);
                assert_eq!(want, got, "{model:?} seed {seed}");
                assert_eq!(chain.dots.borrow().len(), 1, "mul strikes are O(1)");
            }
        }
    }

    /// Values past `i64`: the oracle and replay both wrap in two's
    /// complement (a debug build would otherwise panic in the oracle).
    #[test]
    fn chain_replay_wraps_like_the_oracle() {
        let pairs: Vec<(i64, i64)> = (0..50)
            .map(|i| (operand(6, i, 1) << 24, operand(7, i, 4) << 22))
            .collect();
        for model in FaultModel::all() {
            let config = FaultConfig::new(BitErrorRate::new(0.02), BitWidth::W16).with_model(model);
            for seed in 0..30u64 {
                let (want, strikes) = oracle_chain(&config, seed, &pairs);
                let chain = Pairs::new(pairs.clone());
                let got = MacChainReplay::new(0, 2).replay(&chain, &strikes, chain.exact());
                assert_eq!(want, got, "{model:?} seed {seed}");
            }
        }
    }
}
