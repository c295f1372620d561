//! Clean fixture: consensus-critical integer code plus a blessed
//! fixed-order f32 kernel, the shapes the annotation syntax supports.
//! Never compiled — the auditor's self-test asserts this file produces no
//! findings.

// wgft-audit: consensus-critical
pub fn unit_seed(base: u64, image_index: u64) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64 ^ base;
    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    hash ^ image_index.rotate_left(17)
}

// wgft-audit: consensus-critical
pub fn order_independent_sum(results: &BTreeMap<u64, u64>) -> u64 {
    results.values().copied().sum()
}

// wgft-audit: consensus-critical
// wgft-audit: blessed(float-arith) -- fixed i-j-k accumulation order; the
// kernel's output bits are what pinned vectors certify
pub fn tiny_gemm_det(a: &[f32], b: &[f32], k: usize) -> f32 {
    let mut acc = 0.0f32;
    for p in 0..k {
        acc += a[p] * b[p];
    }
    acc
}
