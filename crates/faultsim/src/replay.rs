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
//! replays one multiply-accumulate chain. The instrumented backend stays the
//! oracle these are tested against.

use crate::arithmetic::sample_geometric_gap;
use crate::ProtectionPlan;
use crate::{flip_bit_within, Arithmetic, FaultConfig, FaultModel, OpCounters, OpType};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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
    /// [`FaultyArithmetic`](crate::FaultyArithmetic) computes it.
    #[must_use]
    #[inline]
    pub fn mul(&self, a: i64, b: i64) -> i64 {
        debug_assert_eq!(self.op_type, OpType::Mul);
        match self.flip {
            None => a * b,
            Some(f) => match f.site {
                FlipSite::FirstOperand => f.flip(a) * b,
                FlipSite::SecondOperand => a * f.flip(b),
                FlipSite::Result => f.flip(a * b),
            },
        }
    }

    /// The struck addition `a + b`, exactly as
    /// [`FaultyArithmetic`](crate::FaultyArithmetic) computes it.
    #[must_use]
    #[inline]
    pub fn add(&self, a: i64, b: i64) -> i64 {
        debug_assert_eq!(self.op_type, OpType::Add);
        match self.flip {
            None => a + b,
            Some(f) => match f.site {
                FlipSite::FirstOperand => f.flip(a) + b,
                FlipSite::SecondOperand => a + f.flip(b),
                FlipSite::Result => f.flip(a + b),
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
    fault_probability: f64,
    rng: SmallRng,
    ops_until_fault: u64,
}

// wgft-audit: consensus-critical -- the fault schedule of every replayed campaign cell
impl StrikeEnumerator {
    /// An enumerator for one image: the counterpart of
    /// `FaultyArithmetic::new(config.clone(), seed)`.
    #[must_use]
    pub fn new(config: &FaultConfig, seed: u64) -> Self {
        let fault_probability = config.fault_probability();
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops_until_fault = sample_geometric_gap(fault_probability, &mut rng);
        Self {
            width: config.width.bits(),
            model: config.model,
            protection: config.protection.clone(),
            fault_probability,
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
            self.ops_until_fault = sample_geometric_gap(self.fault_probability, &mut self.rng);
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
            None => a * b,
        }
    }

    #[inline]
    fn add(&mut self, a: i64, b: i64) -> i64 {
        match self.take() {
            Some(strike) => strike.add(a, b),
            None => a + b,
        }
    }

    fn counters(&self) -> &OpCounters {
        &self.counters
    }

    fn reset_counters(&mut self) {}
}

/// Replays one multiply-accumulate chain `acc = add(acc, mul(a, b))` from
/// `acc = 0`, pair by pair, whose `k`-th pair issues its `mul` at operation
/// `first_op + k * stride` and its `add` at the operation after.
///
/// Between strikes a chain segment is a plain dot product
/// ([`MacChainReplay::skip`]). Once every strike is replayed
/// ([`MacChainReplay::pending`] turns false) the caller stops stepping: the
/// rest of the chain is exact, so [`MacChainReplay::with_exact_tail`] adds
/// it from the chain's exact value.
#[derive(Debug, Clone)]
pub struct MacChainReplay<'a> {
    rest: &'a [Strike],
    op: u64,
    stride: u64,
    acc: i64,
    prefix: i64,
}

// wgft-audit: consensus-critical -- recomputes struck accumulation chains of replayed campaign cells
impl<'a> MacChainReplay<'a> {
    /// A chain whose strikes (sorted, all inside the chain) are `strikes`.
    #[must_use]
    pub fn new(strikes: &'a [Strike], first_op: u64, stride: u64) -> Self {
        Self {
            rest: strikes,
            op: first_op,
            stride,
            acc: 0,
            prefix: 0,
        }
    }

    /// Whether strikes remain ahead of the next pair.
    #[must_use]
    #[inline]
    pub fn pending(&self) -> bool {
        !self.rest.is_empty()
    }

    /// Whether the next `pairs` pairs are all unstruck.
    #[must_use]
    #[inline]
    pub fn clean_for(&self, pairs: u64) -> bool {
        self.rest
            .first()
            .is_none_or(|next| next.op >= self.op + pairs * self.stride)
    }

    /// Execute `pairs` unstruck pairs (see [`MacChainReplay::clean_for`])
    /// whose products sum to `sum`.
    #[inline]
    pub fn skip(&mut self, pairs: u64, sum: i64) {
        debug_assert!(self.clean_for(pairs));
        self.acc += sum;
        self.prefix += sum;
        self.op += pairs * self.stride;
    }

    /// Execute the next pair.
    #[inline]
    pub fn step(&mut self, a: i64, b: i64) {
        let product = a * b;
        self.prefix += product;
        match self.rest.first() {
            Some(next) if next.op <= self.op + 1 => self.struck_step(a, b, product),
            _ => self.acc += product,
        }
        self.op += self.stride;
    }

    #[cold]
    fn struck_step(&mut self, a: i64, b: i64, mut product: i64) {
        if let Some((strike, rest)) = self.rest.split_first() {
            if strike.op == self.op {
                product = strike.mul(a, b);
                self.rest = rest;
            }
        }
        self.acc = match self.rest.split_first() {
            Some((strike, rest)) if strike.op == self.op + 1 => {
                self.rest = rest;
                strike.add(self.acc, product)
            }
            _ => self.acc + product,
        };
    }

    /// The chain's value given its exact value `exact`: the pairs not yet
    /// stepped contribute exactly (`exact` minus the exact prefix).
    #[must_use]
    pub fn with_exact_tail(&self, exact: i64) -> i64 {
        debug_assert!(!self.pending(), "a strike lies outside its chain");
        self.acc + (exact - self.prefix)
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

    /// A replayed chain (stepped to its last strike, exact tail added)
    /// equals the same chain executed on `FaultyArithmetic`, at any stride.
    #[test]
    fn mac_chain_replay_matches_the_oracle() {
        let pairs: Vec<(i64, i64)> = (0..200)
            .map(|i| (operand(0, i, 1), operand(1, i, 5)))
            .collect();
        let clean: i64 = pairs.iter().map(|&(a, b)| a * b).sum();
        for model in FaultModel::all() {
            for seed in 0..20u64 {
                let config =
                    FaultConfig::new(BitErrorRate::new(2e-3), BitWidth::W16).with_model(model);
                let mut oracle = FaultyArithmetic::new(config.clone(), seed);
                oracle.begin_layer(0);
                let mut want = 0i64;
                for &(a, b) in &pairs {
                    let p = oracle.mul(a, b);
                    want = oracle.add(want, p);
                }
                let mut strikes = Vec::new();
                StrikeEnumerator::new(&config, seed).layer(0, &MacOps(200), &mut strikes);
                for stride in [2u64, 6] {
                    // Re-index the strikes onto a chain laid out at `stride`.
                    let spread: Vec<Strike> = strikes
                        .iter()
                        .map(|s| Strike {
                            op: 10 + (s.op / 2) * stride + s.op % 2,
                            ..*s
                        })
                        .collect();
                    let mut chain = MacChainReplay::new(&spread, 10, stride);
                    for &(a, b) in &pairs {
                        if !chain.pending() {
                            break;
                        }
                        chain.step(a, b);
                    }
                    let got = chain.with_exact_tail(clean);
                    assert_eq!(want, got, "{model:?} seed {seed} stride {stride}");
                }
            }
        }
    }
}
