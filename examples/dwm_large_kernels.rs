//! Demonstrate the decomposable winograd method (DWM): a 5x5 convolution is
//! split into 3x3 tiles so it can ride the winograd datapath, matching the
//! direct convolution result (im2col patches times the weight matrix).
//!
//! Run with `cargo run --release --example dwm_large_kernels`.

use winograd_ft::tensor::{gemm_f32, im2col, ConvGeometry};
use winograd_ft::winograd::{decompose_kernel, dwm_conv_f32, ConvShape, F2X2_3X3};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shape = ConvShape::new(3, 8, ConvGeometry::square(12, 5, 1, 2));
    let input: Vec<f32> = (0..shape.input_len())
        .map(|i| ((i * 31 % 17) as f32) * 0.1 - 0.8)
        .collect();
    let weights: Vec<f32> = (0..shape.weight_len())
        .map(|i| ((i * 7 % 11) as f32) * 0.05 - 0.25)
        .collect();

    let tiles = decompose_kernel(&weights[..25], 5)?;
    println!(
        "a 5x5 kernel decomposes into {} active 3x3 tiles",
        tiles.len()
    );

    let g = &shape.geometry;
    let mut patches = Vec::new();
    im2col(&input, shape.in_channels, g, &mut patches);
    let mut direct = vec![0.0f32; shape.output_len()];
    let taps = shape.in_channels * g.k_h * g.k_w;
    gemm_f32(
        &weights,
        &patches,
        &mut direct,
        shape.out_channels,
        taps,
        g.out_pixels(),
    );
    let dwm = dwm_conv_f32(&input, &weights, &shape, F2X2_3X3)?;
    let max_err = direct
        .iter()
        .zip(&dwm)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f32, f32::max);
    println!(
        "direct vs DWM winograd: max abs difference {max_err:.2e} over {} outputs",
        direct.len()
    );
    Ok(())
}
