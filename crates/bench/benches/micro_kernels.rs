//! Criterion micro-benchmarks of the convolution kernels and the
//! fault-injection datapath overhead, plus the naive-vs-planned winograd
//! comparison that gates the planned-execution-engine work.
//!
//! Besides the console output, the run appends its measurements to
//! `BENCH_kernels.json` at the repository root — a perf-trajectory artifact
//! that later PRs extend, so kernel regressions show up as data rather than
//! anecdotes.

use criterion::{criterion_group, Criterion};
use std::hint::black_box;
use wgft_faultsim::{
    BitErrorRate, ExactArithmetic, FaultConfig, FaultyArithmetic, OpSequence, Strike,
    StrikeEnumerator,
};
use wgft_fixedpoint::BitWidth;
use wgft_tensor::{gemm_f32, gemm_i32, im2col_quantized, ConvGeometry};
use wgft_winograd::{
    direct_conv_f32, direct_conv_quantized, transform_weights_f32, winograd_conv_f32_reference,
    winograd_conv_quantized, winograd_conv_quantized_with_scratch, ConvShape, DirectOpMap,
    DirectReplay, PreparedConvF32, PreparedConvQuantizedFast, WinogradOpMap, WinogradScratch,
    WinogradVariant, WinogradWeights,
};

/// Sample count for one benchmark, honouring the CI smoke mode
/// (`WGFT_BENCH_SMOKE=1` runs every measurement at a reduced sample count so
/// the whole suite stays in CI budget while still exercising the code).
fn samples(full: usize) -> usize {
    if std::env::var_os("WGFT_BENCH_SMOKE").is_some() {
        3
    } else {
        full
    }
}

fn conv_fixture() -> (ConvShape, Vec<i32>, Vec<i32>, WinogradWeights) {
    let shape = ConvShape::new(16, 16, ConvGeometry::square(16, 3, 1, 1));
    let input: Vec<i32> = (0..shape.input_len())
        .map(|i| ((i * 37 % 251) as i32) - 125)
        .collect();
    let weights: Vec<i32> = (0..shape.weight_len())
        .map(|i| ((i * 13 % 127) as i32) - 63)
        .collect();
    let weights_f: Vec<f32> = weights.iter().map(|&w| w as f32).collect();
    let u = transform_weights_f32(&weights_f, 16, 16, WinogradVariant::F2x2).unwrap();
    let wino = WinogradWeights::new(
        WinogradVariant::F2x2,
        16,
        16,
        u.iter().map(|&x| x.round() as i32).collect(),
    )
    .unwrap();
    (shape, input, weights, wino)
}

/// The acceptance-criteria layer: 32 -> 32 channels on a 64x64 feature map.
fn planned_fixture() -> (ConvShape, Vec<f32>, Vec<f32>) {
    let shape = ConvShape::new(32, 32, ConvGeometry::square(64, 3, 1, 1));
    let input: Vec<f32> = (0..shape.input_len())
        .map(|i| ((i * 37 % 251) as f32) * 0.011 - 1.3)
        .collect();
    let weights: Vec<f32> = (0..shape.weight_len())
        .map(|i| ((i * 13 % 127) as f32) * 0.007 - 0.4)
        .collect();
    (shape, input, weights)
}

fn bench_kernels(c: &mut Criterion) {
    let (shape, input, weights, wino) = conv_fixture();
    let mut group = c.benchmark_group("conv_kernels");
    group.sample_size(samples(20));
    group.bench_function("direct_exact", |b| {
        b.iter(|| {
            let mut arith = ExactArithmetic::new();
            black_box(direct_conv_quantized(&mut arith, 0, &input, &weights, &shape).unwrap())
        })
    });
    group.bench_function("winograd_exact", |b| {
        b.iter(|| {
            let mut arith = ExactArithmetic::new();
            black_box(winograd_conv_quantized(&mut arith, 0, &input, &wino, &shape).unwrap())
        })
    });
    group.bench_function("winograd_exact_prepared", |b| {
        let mut scratch = WinogradScratch::new();
        b.iter(|| {
            let mut arith = ExactArithmetic::new();
            black_box(
                winograd_conv_quantized_with_scratch(
                    &mut arith,
                    0,
                    &input,
                    &wino,
                    &shape,
                    &mut scratch,
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("direct_faulty_1e-6", |b| {
        b.iter(|| {
            let config = FaultConfig::new(BitErrorRate::new(1e-6), BitWidth::W16);
            let mut arith = FaultyArithmetic::new(config, 7);
            black_box(direct_conv_quantized(&mut arith, 0, &input, &weights, &shape).unwrap())
        })
    });
    group.bench_function("winograd_faulty_1e-6", |b| {
        b.iter(|| {
            let config = FaultConfig::new(BitErrorRate::new(1e-6), BitWidth::W16);
            let mut arith = FaultyArithmetic::new(config, 7);
            black_box(winograd_conv_quantized(&mut arith, 0, &input, &wino, &shape).unwrap())
        })
    });
    group.finish();

    let mut group = c.benchmark_group("weight_transform");
    group.sample_size(samples(20));
    let weights_f: Vec<f32> = (0..16 * 16 * 9).map(|i| (i % 17) as f32 * 0.01).collect();
    group.bench_function("f2x2", |b| {
        b.iter(|| {
            black_box(transform_weights_f32(&weights_f, 16, 16, WinogradVariant::F2x2).unwrap())
        })
    });
    group.bench_function("f4x4", |b| {
        b.iter(|| {
            black_box(transform_weights_f32(&weights_f, 16, 16, WinogradVariant::F4x4).unwrap())
        })
    });
    group.finish();
}

/// Naive-vs-planned f32 winograd on the 32->32-channel 64x64 layer — the
/// measurement behind the "planned is >= 3x faster" acceptance criterion.
fn bench_planned_vs_naive(c: &mut Criterion) {
    let (shape, input, weights) = planned_fixture();
    let mut group = c.benchmark_group("planned_f32_32c_64x64");
    group.sample_size(samples(15));
    group.bench_function("naive_reference", |b| {
        b.iter(|| {
            black_box(
                winograd_conv_f32_reference(&input, &weights, &shape, WinogradVariant::F2x2)
                    .unwrap(),
            )
        })
    });
    group.bench_function("planned_prepared", |b| {
        let mut prepared = PreparedConvF32::new(&weights, &shape, WinogradVariant::F2x2).unwrap();
        let mut output = vec![0.0f32; shape.output_len()];
        b.iter(|| {
            prepared.execute_into(&input, &mut output).unwrap();
            black_box(output[0])
        })
    });
    group.bench_function("planned_cold", |b| {
        // Plan construction included: what a single-shot caller pays.
        b.iter(|| {
            let mut prepared =
                PreparedConvF32::new(&weights, &shape, WinogradVariant::F2x2).unwrap();
            black_box(prepared.execute(&input).unwrap())
        })
    });
    group.bench_function("direct_f32", |b| {
        b.iter(|| black_box(direct_conv_f32(&input, &weights, &shape).unwrap()))
    });
    group.finish();
}

/// Batched planned winograd on the acceptance-criteria layer: the whole
/// batch's tiles fold into the GEMM free dimension, so `batch32` measures the
/// throughput engine against 32 sequential `planned_prepared` executions.
fn bench_planned_batch(c: &mut Criterion) {
    let (shape, _, weights) = planned_fixture();
    let mut group = c.benchmark_group("planned_f32_batch");
    group.sample_size(samples(10));
    for n in [1usize, 8, 32] {
        let batch: Vec<f32> = (0..n * shape.input_len())
            .map(|i| ((i * 41 % 257) as f32) * 0.009 - 1.1)
            .collect();
        let mut prepared = PreparedConvF32::new(&weights, &shape, WinogradVariant::F2x2).unwrap();
        let mut output = vec![0.0f32; n * shape.output_len()];
        group.bench_function(&format!("batch{n}"), |b| {
            b.iter(|| {
                prepared.execute_batch_into(&batch, n, &mut output).unwrap();
                black_box(output[0])
            })
        });
    }
    // Fair sequential baseline: the *same* 32 distinct images producing 32
    // distinct outputs, one `execute_into` each, so both sides pay the same
    // memory traffic (the `planned_prepared` bench reuses one cache-warm
    // image and one output buffer).
    {
        let n = 32usize;
        let (in_len, out_len) = (shape.input_len(), shape.output_len());
        let batch: Vec<f32> = (0..n * in_len)
            .map(|i| ((i * 41 % 257) as f32) * 0.009 - 1.1)
            .collect();
        let mut prepared = PreparedConvF32::new(&weights, &shape, WinogradVariant::F2x2).unwrap();
        let mut output = vec![0.0f32; n * out_len];
        group.bench_function("sequential32", |b| {
            b.iter(|| {
                for img in 0..n {
                    prepared
                        .execute_into(
                            &batch[img * in_len..(img + 1) * in_len],
                            &mut output[img * out_len..(img + 1) * out_len],
                        )
                        .unwrap();
                }
                black_box(output[0])
            })
        });
    }
    group.finish();
}

/// Fast uninstrumented quantized winograd vs the instrumented clean path —
/// the measurement behind the "clean-baseline evaluation ≥ 3x faster"
/// acceptance criterion. Both sides run the identical integer function
/// (bit-identical accumulators, tested in `wgft-winograd`); the instrumented
/// side additionally pays one backend call per primitive operation, which is
/// exactly the cost fault-free evaluation no longer needs to pay.
fn bench_quantized_fast(c: &mut Criterion) {
    let (shape, input, _, wino) = conv_fixture();
    let mut group = c.benchmark_group("quantized_fast_vs_instrumented");
    group.sample_size(samples(15));
    group.bench_function("instrumented_prepared", |b| {
        let mut scratch = WinogradScratch::new();
        b.iter(|| {
            let mut arith = ExactArithmetic::new();
            black_box(
                winograd_conv_quantized_with_scratch(
                    &mut arith,
                    0,
                    &input,
                    &wino,
                    &shape,
                    &mut scratch,
                )
                .unwrap(),
            )
        })
    });
    group.bench_function("fast_prepared", |b| {
        let mut prepared = PreparedConvQuantizedFast::new(&wino, &shape).unwrap();
        let mut output = vec![0i64; shape.output_len()];
        b.iter(|| {
            prepared.execute_into(&input, &mut output).unwrap();
            black_box(output[0])
        })
    });
    group.bench_function("fast_batch8", |b| {
        let n = 8usize;
        let batch: Vec<i32> = (0..n * shape.input_len())
            .map(|i| ((i * 37 % 251) as i32) - 125)
            .collect();
        let mut prepared = PreparedConvQuantizedFast::new(&wino, &shape).unwrap();
        let mut output = vec![0i64; n * shape.output_len()];
        b.iter(|| {
            prepared.execute_batch_into(&batch, n, &mut output).unwrap();
            black_box(output[0])
        })
    });
    group.finish();
}

/// The tile-size frontier on the acceptance-criteria layer: every winograd
/// variant's planned f32 engine and fast uninstrumented quantized engine on
/// the same 32->32-channel 64x64 layer. Larger tiles amortize more output
/// pixels per transform (F(4x4) runs 2.25x fewer multiplies than F(2x2),
/// F(6x6) 4x fewer), so this group is where the numerics×speed trade-off of
/// the tile axis lands in the perf artifact.
fn bench_tile_size_frontier(c: &mut Criterion) {
    let (shape, input, weights) = planned_fixture();
    let input_q: Vec<i32> = (0..shape.input_len())
        .map(|i| ((i * 37 % 251) as i32) - 125)
        .collect();
    let weights_q: Vec<f32> = (0..shape.weight_len())
        .map(|i| (((i * 13 % 127) as i32) - 63) as f32)
        .collect();
    let mut group = c.benchmark_group("tile_size_frontier");
    group.sample_size(samples(10));
    for variant in WinogradVariant::all() {
        let tag = match variant {
            WinogradVariant::F2x2 => "f2x2",
            WinogradVariant::F4x4 => "f4x4",
            WinogradVariant::F6x6 => "f6x6",
        };
        group.bench_function(&format!("f32_{tag}"), |b| {
            let mut prepared = PreparedConvF32::new(&weights, &shape, variant).unwrap();
            let mut output = vec![0.0f32; shape.output_len()];
            b.iter(|| {
                prepared.execute_into(&input, &mut output).unwrap();
                black_box(output[0])
            })
        });
        group.bench_function(&format!("quantized_fast_{tag}"), |b| {
            let u = transform_weights_f32(&weights_q, 32, 32, variant).unwrap();
            let wino = WinogradWeights::new(
                variant,
                32,
                32,
                u.iter().map(|&x| x.round() as i32).collect(),
            )
            .unwrap();
            let mut prepared = PreparedConvQuantizedFast::new(&wino, &shape).unwrap();
            let mut output = vec![0i64; shape.output_len()];
            b.iter(|| {
                prepared.execute_into(&input_q, &mut output).unwrap();
                black_box(output[0])
            })
        });
    }
    group.finish();
}

/// The PR 1 GEMM kernel (two-row `i-k-j` streaming), kept verbatim as the
/// regression baseline for the blocked microkernel.
fn gemm_naive_pr1(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    c[..m * n].fill(0.0);
    let mut i = 0;
    while i + 1 < m {
        let (arow0, arow1) = (&a[i * k..(i + 1) * k], &a[(i + 1) * k..(i + 2) * k]);
        let (chead, ctail) = c[i * n..].split_at_mut(n);
        let crow1 = &mut ctail[..n];
        for p in 0..k {
            let (av0, av1) = (arow0[p], arow1[p]);
            let brow = &b[p * n..(p + 1) * n];
            for ((o0, o1), &bv) in chead.iter_mut().zip(crow1.iter_mut()).zip(brow.iter()) {
                *o0 += av0 * bv;
                *o1 += av1 * bv;
            }
        }
        i += 2;
    }
    if i < m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in crow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// Blocked-vs-naive GEMM on a 256×256×256 product (the acceptance-criteria
/// size), the same product in the integer domain of the one blocked kernel,
/// and one narrow product per domain (64×64×13: every column runs in the
/// zero-padded tail tile).
fn bench_gemm(c: &mut Criterion) {
    const N: usize = 256;
    const NARROW: (usize, usize, usize) = (64, 64, 13);
    let a: Vec<f32> = (0..N * N)
        .map(|i| ((i * 31 % 19) as f32) * 0.07 - 0.6)
        .collect();
    let b: Vec<f32> = (0..N * N)
        .map(|i| ((i * 17 % 23) as f32) * 0.05 - 0.5)
        .collect();
    let a_i: Vec<i32> = (0..N * N).map(|i| ((i * 31 % 251) as i32) - 125).collect();
    let b_i: Vec<i32> = (0..N * N).map(|i| ((i * 17 % 127) as i32) - 63).collect();
    let mut out = vec![0.0f32; N * N];
    let mut out_i = vec![0i64; N * N];
    let (nm, nk, nn) = NARROW;
    let mut group = c.benchmark_group("gemm_blocked_vs_naive");
    group.sample_size(samples(10));
    group.bench_function("naive_pr1", |bench| {
        bench.iter(|| {
            gemm_naive_pr1(&a, &b, &mut out, N, N, N);
            black_box(out[0])
        })
    });
    group.bench_function("blocked", |bench| {
        bench.iter(|| {
            gemm_f32(&a, &b, &mut out, N, N, N);
            black_box(out[0])
        })
    });
    group.bench_function("blocked_i32", |bench| {
        bench.iter(|| {
            gemm_i32(&a_i, &b_i, &mut out_i, N, N, N);
            black_box(out_i[0])
        })
    });
    group.bench_function("narrow_64x64x13", |bench| {
        bench.iter(|| {
            gemm_f32(&a, &b, &mut out, nm, nk, nn);
            black_box(out[0])
        })
    });
    group.bench_function("narrow_64x64x13_i32", |bench| {
        bench.iter(|| {
            gemm_i32(&a_i, &b_i, &mut out_i, nm, nk, nn);
            black_box(out_i[0])
        })
    });
    group.finish();
}

/// ABFT checksum overhead on the GEMM shapes the protected executors run:
/// the instrumented integer GEMM with and without checksums. The overhead
/// ratio lands in `BENCH_kernels.json` so protection-cost regressions show
/// up as data.
fn bench_abft_checksum(c: &mut Criterion) {
    use wgft_abft::{checked_gemm_i64, plain_gemm_i64, AbftEvents};
    use wgft_faultsim::ExactArithmetic;

    // The winograd-domain GEMM of a 32->32-channel layer on a 32x32 feature
    // map: U_k (32x32) times V_k (32 x 256 tiles).
    let (m, k, p) = (32usize, 32usize, 256usize);
    let a_i: Vec<i64> = (0..m * k).map(|i| ((i * 7 % 251) as i64) - 125).collect();
    let b_i: Vec<i64> = (0..k * p).map(|i| ((i * 13 % 127) as i64) - 63).collect();
    let mut out_i = vec![0i64; m * p];
    let mut group = c.benchmark_group("abft_gemm_checksum");
    group.sample_size(samples(10));
    group.bench_function("plain_i64", |bench| {
        bench.iter(|| {
            let mut arith = ExactArithmetic::new();
            plain_gemm_i64(&mut arith, &a_i, &b_i, &mut out_i, m, k, p);
            black_box(out_i[0])
        })
    });
    group.bench_function("checked_i64", |bench| {
        bench.iter(|| {
            let mut arith = ExactArithmetic::new();
            let mut events = AbftEvents::new();
            checked_gemm_i64(
                &mut arith,
                &a_i,
                &b_i,
                &mut out_i,
                m,
                k,
                p,
                true,
                &mut events,
            );
            black_box((out_i[0], events.overhead.mul))
        })
    });
    group.finish();
}

/// The layers of the benchmark's `vgg_small` (3×16×16 input): in/out
/// channels and feature-map size of each distinct 3x3 convolution.
const VGG_SMALL_LAYERS: &[(usize, usize, usize)] = &[
    (3, 12, 16),
    (12, 12, 16),
    (12, 24, 8),
    (24, 24, 8),
    (24, 32, 4),
    (32, 32, 4),
];

/// The BER>0 rates of the `campaign_sweep` benchmark grid.
const SWEEP_BERS: &[(&str, f64)] = &[
    ("1e-5", 1e-5),
    ("3e-5", 3e-5),
    ("1e-4", 1e-4),
    ("3e-4", 3e-4),
];

/// Fault-site replay against the instrumented datapath, per `vgg_small`
/// layer, ST and WG F(2x2), W16: the fast engine alone (`fast`), and per
/// BER strike enumeration alone (`enumerate`), the whole replayed layer —
/// enumeration, fast engine and patch, as the network runs it (`replay`) —
/// and the instrumented kernel on `FaultyArithmetic` (`instrumented`). The
/// patch's own cost is `replay - fast - enumerate`; both datapaths produce
/// bit-identical accumulators (tested in `wgft-winograd` and `wgft-nn`).
fn bench_fault_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_replay_vs_instrumented");
    group.sample_size(samples(5));
    for (layer, &(in_c, out_c, size)) in VGG_SMALL_LAYERS.iter().enumerate() {
        let shape = ConvShape::new(in_c, out_c, ConvGeometry::square(size, 3, 1, 1));
        let input: Vec<i32> = (0..shape.input_len())
            .map(|i| ((i * 7919 % 60_001) as i32) - 30_000)
            .collect();
        let weights: Vec<i32> = (0..shape.weight_len())
            .map(|i| ((i * 104_729 % 60_001) as i32) - 30_000)
            .collect();
        let t2 = 16;
        let wino = WinogradWeights::new(
            WinogradVariant::F2x2,
            out_c,
            in_c,
            (0..out_c * in_c * t2)
                .map(|i| ((i * 7919 % 60_001) as i32) - 30_000)
                .collect(),
        )
        .unwrap();
        let direct_map = DirectOpMap::new(&shape);
        let wino_map = WinogradOpMap::new(&shape, WinogradVariant::F2x2).unwrap();
        let g = shape.geometry;
        let kdim = in_c * g.k_h * g.k_w;
        let mut patches = Vec::new();
        let mut st_exact = vec![0i64; shape.output_len()];
        let mut prepared = PreparedConvQuantizedFast::new(&wino, &shape).unwrap();

        group.bench_function(&format!("l{layer}_st_fast"), |b| {
            b.iter(|| {
                im2col_quantized(&input, in_c, &g, &mut patches);
                gemm_i32(
                    &weights,
                    &patches,
                    &mut st_exact,
                    out_c,
                    kdim,
                    g.out_pixels(),
                );
                black_box(st_exact[0])
            })
        });
        group.bench_function(&format!("l{layer}_wg_fast"), |b| {
            let mut output = vec![0i64; shape.output_len()];
            b.iter(|| {
                prepared.execute_into(&input, &mut output).unwrap();
                black_box(output[0])
            })
        });
        for &(tag, ber) in SWEEP_BERS {
            let config = FaultConfig::new(BitErrorRate::new(ber), BitWidth::W16);
            for (algo, map) in [("st", &direct_map as &dyn OpSequence), ("wg", &wino_map)] {
                group.bench_function(&format!("l{layer}_{algo}_enumerate_{tag}"), |b| {
                    let (mut seed, mut strikes) = (0u64, Vec::new());
                    b.iter(|| {
                        seed += 1;
                        strikes.clear();
                        StrikeEnumerator::new(&config, seed).layer(0, map, &mut strikes);
                        strikes.retain(Strike::injects);
                        black_box(strikes.len())
                    })
                });
            }
            group.bench_function(&format!("l{layer}_st_replay_{tag}"), |b| {
                let (mut seed, mut strikes) = (0u64, Vec::new());
                let (mut output, mut scratch) = (st_exact.clone(), DirectReplay::default());
                b.iter(|| {
                    seed += 1;
                    strikes.clear();
                    StrikeEnumerator::new(&config, seed).layer(0, &direct_map, &mut strikes);
                    strikes.retain(Strike::injects);
                    im2col_quantized(&input, in_c, &g, &mut patches);
                    gemm_i32(&weights, &patches, &mut output, out_c, kdim, g.out_pixels());
                    scratch.replay(&direct_map, &input, &weights, &strikes, &mut output);
                    black_box(output[0])
                })
            });
            group.bench_function(&format!("l{layer}_st_instrumented_{tag}"), |b| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let mut arith = FaultyArithmetic::new(config.clone(), seed);
                    black_box(
                        direct_conv_quantized(&mut arith, 0, &input, &weights, &shape).unwrap(),
                    )
                })
            });
            group.bench_function(&format!("l{layer}_wg_replay_{tag}"), |b| {
                let (mut seed, mut strikes) = (0u64, Vec::new());
                let mut output = vec![0i64; shape.output_len()];
                b.iter(|| {
                    seed += 1;
                    strikes.clear();
                    StrikeEnumerator::new(&config, seed).layer(0, &wino_map, &mut strikes);
                    strikes.retain(Strike::injects);
                    prepared
                        .execute_replay_into(&input, &wino_map, &strikes, &mut output)
                        .unwrap();
                    black_box(output[0])
                })
            });
            group.bench_function(&format!("l{layer}_wg_instrumented_{tag}"), |b| {
                let (mut seed, mut scratch) = (0u64, WinogradScratch::new());
                b.iter(|| {
                    seed += 1;
                    let mut arith = FaultyArithmetic::new(config.clone(), seed);
                    black_box(
                        winograd_conv_quantized_with_scratch(
                            &mut arith,
                            0,
                            &input,
                            &wino,
                            &shape,
                            &mut scratch,
                        )
                        .unwrap(),
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_planned_vs_naive,
    bench_planned_batch,
    bench_quantized_fast,
    bench_tile_size_frontier,
    bench_gemm,
    bench_abft_checksum,
    bench_fault_replay
);

fn main() {
    let mut c = Criterion::default();
    benches(&mut c);
    report(&c);
}

/// Print the naive/planned speedup and append every measurement to the
/// perf-trajectory artifact `BENCH_kernels.json` at the repository root.
fn report(c: &Criterion) {
    let results = c.results();
    let find = |id: &str| results.iter().find(|r| r.id == id);
    if let (Some(naive), Some(planned)) = (
        find("planned_f32_32c_64x64/naive_reference"),
        find("planned_f32_32c_64x64/planned_prepared"),
    ) {
        println!(
            "planned f32 winograd speedup over naive (32c, 64x64): \
             {:.2}x on means ({:.0} ns -> {:.0} ns), \
             {:.2}x on minima ({:.0} ns -> {:.0} ns)",
            naive.mean_ns / planned.mean_ns,
            naive.mean_ns,
            planned.mean_ns,
            naive.min_ns / planned.min_ns,
            naive.min_ns,
            planned.min_ns,
        );
    }

    if let (Some(batch32), Some(sequential)) = (
        find("planned_f32_batch/batch32"),
        find("planned_f32_batch/sequential32"),
    ) {
        let batch_img_per_sec = 32.0 / (batch32.mean_ns * 1e-9);
        let seq_img_per_sec = 32.0 / (sequential.mean_ns * 1e-9);
        println!(
            "batched f32 winograd (32c, 64x64): batch32 {batch_img_per_sec:.1} images/s vs \
             {seq_img_per_sec:.1} images/s for 32 sequential execute_into this run ({:.2}x)",
            batch_img_per_sec / seq_img_per_sec,
        );
    }
    if let (Some(instrumented), Some(fast)) = (
        find("quantized_fast_vs_instrumented/instrumented_prepared"),
        find("quantized_fast_vs_instrumented/fast_prepared"),
    ) {
        println!(
            "fast uninstrumented quantized winograd (16c, 16x16): \
             {:.2}x over the instrumented clean path on means \
             ({:.0} ns -> {:.0} ns)",
            instrumented.mean_ns / fast.mean_ns,
            instrumented.mean_ns,
            fast.mean_ns,
        );
    }
    if let (Some(plain), Some(checked)) = (
        find("abft_gemm_checksum/plain_i64"),
        find("abft_gemm_checksum/checked_i64"),
    ) {
        println!(
            "ABFT checksum overhead on the instrumented 32x32x256 GEMM: \
             {:.1} % on means ({:.0} ns -> {:.0} ns)",
            (checked.mean_ns / plain.mean_ns - 1.0) * 100.0,
            plain.mean_ns,
            checked.mean_ns,
        );
    }
    if let (Some(f2), Some(f4)) = (
        find("tile_size_frontier/quantized_fast_f2x2"),
        find("tile_size_frontier/quantized_fast_f4x4"),
    ) {
        println!(
            "tile-size frontier, quantized fast (32c, 64x64): F(4x4) {:.2}x over \
             F(2x2) on means ({:.0} ns -> {:.0} ns)",
            f2.mean_ns / f4.mean_ns,
            f2.mean_ns,
            f4.mean_ns,
        );
    }
    if let (Some(f2), Some(f6)) = (
        find("tile_size_frontier/quantized_fast_f2x2"),
        find("tile_size_frontier/quantized_fast_f6x6"),
    ) {
        println!(
            "tile-size frontier, quantized fast (32c, 64x64): F(6x6) {:.2}x over \
             F(2x2) on means ({:.0} ns -> {:.0} ns)",
            f2.mean_ns / f6.mean_ns,
            f2.mean_ns,
            f6.mean_ns,
        );
    }
    if let (Some(naive), Some(blocked)) = (
        find("gemm_blocked_vs_naive/naive_pr1"),
        find("gemm_blocked_vs_naive/blocked"),
    ) {
        println!(
            "blocked gemm_f32 vs PR 1 kernel (256x256x256): {:.2}x on means \
             ({:.0} ns -> {:.0} ns)",
            naive.mean_ns / blocked.mean_ns,
            naive.mean_ns,
            blocked.mean_ns,
        );
    }

    // Fault-site replay over the vgg_small conv stack: the replayed layer
    // against the instrumented one, summed over layers, per algorithm and
    // BER, with the replay's own share (enumeration + patch) beside it.
    for algo in ["st", "wg"] {
        for &(tag, _) in SWEEP_BERS {
            let (mut replay, mut fast_sum, mut instrumented) = (0.0, 0.0, 0.0);
            for layer in 0..VGG_SMALL_LAYERS.len() {
                let id =
                    |kind: &str| format!("fault_replay_vs_instrumented/l{layer}_{algo}_{kind}");
                if let (Some(fast), Some(replayed), Some(instr)) = (
                    find(&id("fast")),
                    find(&id(&format!("replay_{tag}"))),
                    find(&id(&format!("instrumented_{tag}"))),
                ) {
                    replay += replayed.mean_ns;
                    fast_sum += fast.mean_ns;
                    instrumented += instr.mean_ns;
                }
            }
            if replay > 0.0 {
                println!(
                    "fault-site replay, vgg_small conv stack, {algo} at BER {tag}: {:.1}x over \
                     the instrumented datapath on means ({:.0} ns -> {:.0} ns, of which \
                     {:.0} ns enumeration and patch)",
                    instrumented / replay,
                    instrumented,
                    replay,
                    replay - fast_sum,
                );
            }
        }
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let mut runs: Vec<serde_json::Value> = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::parse(&text).ok())
        .and_then(|v| v.get("runs").and_then(|r| r.as_array().map(<[_]>::to_vec)))
        .unwrap_or_default();

    // Perf trajectory: compare this run's batched throughput against the
    // oldest recorded per-image engine (the PR 1 baseline).
    let baseline_prepared_ns = runs
        .iter()
        .filter_map(|run| run.get("measurements").and_then(|m| m.as_array()))
        .flat_map(|measurements| measurements.iter())
        .find(|m| {
            m.get("id").and_then(|id| id.as_str()) == Some("planned_f32_32c_64x64/planned_prepared")
        })
        .and_then(|m| m.get("mean_ns").and_then(serde_json::Value::as_f64));
    if let (Some(baseline_ns), Some(batch32)) =
        (baseline_prepared_ns, find("planned_f32_batch/batch32"))
    {
        let batch_img_per_sec = 32.0 / (batch32.mean_ns * 1e-9);
        let baseline_img_per_sec = 1.0 / (baseline_ns * 1e-9);
        println!(
            "batched f32 winograd vs first recorded per-image baseline: \
             {batch_img_per_sec:.1} images/s vs {baseline_img_per_sec:.1} images/s ({:.2}x)",
            batch_img_per_sec / baseline_img_per_sec,
        );
    }
    let measurements: Vec<serde_json::Value> = results
        .iter()
        .map(|r| {
            serde_json::Value::Object(vec![
                ("id".to_string(), serde_json::Value::String(r.id.clone())),
                ("mean_ns".to_string(), serde_json::Value::Float(r.mean_ns)),
                ("min_ns".to_string(), serde_json::Value::Float(r.min_ns)),
                (
                    "samples".to_string(),
                    serde_json::Value::UInt(r.samples as u64),
                ),
            ])
        })
        .collect();
    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    runs.push(serde_json::Value::Object(vec![
        ("unix_time".to_string(), serde_json::Value::UInt(unix_time)),
        (
            "bench".to_string(),
            serde_json::Value::String("micro_kernels".to_string()),
        ),
        (
            "measurements".to_string(),
            serde_json::Value::Array(measurements),
        ),
    ]));
    let artifact = serde_json::Value::Object(vec![
        (
            "schema".to_string(),
            serde_json::Value::String("wgft-bench-kernels-v1".to_string()),
        ),
        ("runs".to_string(), serde_json::Value::Array(runs)),
    ]);
    match serde_json::to_string(&artifact) {
        Ok(json) => {
            if let Err(err) = std::fs::write(path, json) {
                eprintln!("could not write BENCH_kernels.json: {err}");
            } else {
                println!("perf trajectory appended to BENCH_kernels.json");
            }
        }
        Err(err) => eprintln!("could not serialize BENCH_kernels.json: {err}"),
    }
}
