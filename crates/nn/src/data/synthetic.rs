//! Procedural MNIST-like digit generator (the README, *Substitutions*, item 3).
//!
//! Each digit 0–9 is defined as a set of stroke polylines in the unit
//! square. A sample applies a random affine jitter (rotation, scale,
//! translation), renders the strokes with a random pen thickness and
//! soft anti-aliased edges onto a 28×28 grid, adds pixel noise, and
//! quantizes to 8-bit levels — the same geometry and dynamic range as
//! MNIST, so every precision/retraining effect the paper measures is
//! exercised on identical code paths.

use super::{Dataset, IMAGE_SIDE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One stroke: a polyline through `(x, y)` points in the unit square
/// (y grows downward).
type Stroke = &'static [(f32, f32)];

/// Stroke description of each digit glyph.
fn glyph(digit: u8) -> &'static [Stroke] {
    const ZERO: &[Stroke] = &[&[
        (0.50, 0.14),
        (0.32, 0.22),
        (0.26, 0.42),
        (0.26, 0.60),
        (0.33, 0.80),
        (0.50, 0.86),
        (0.67, 0.80),
        (0.74, 0.60),
        (0.74, 0.42),
        (0.68, 0.22),
        (0.50, 0.14),
    ]];
    const ONE: &[Stroke] = &[&[(0.38, 0.28), (0.52, 0.14), (0.52, 0.86)]];
    const TWO: &[Stroke] = &[&[
        (0.28, 0.30),
        (0.33, 0.18),
        (0.50, 0.13),
        (0.67, 0.19),
        (0.71, 0.34),
        (0.58, 0.52),
        (0.30, 0.80),
        (0.74, 0.80),
    ]];
    const THREE: &[Stroke] = &[&[
        (0.30, 0.20),
        (0.50, 0.13),
        (0.68, 0.22),
        (0.64, 0.40),
        (0.47, 0.47),
        (0.66, 0.55),
        (0.71, 0.72),
        (0.52, 0.86),
        (0.30, 0.78),
    ]];
    const FOUR: &[Stroke] = &[&[(0.62, 0.86), (0.62, 0.14), (0.26, 0.62), (0.76, 0.62)]];
    const FIVE: &[Stroke] = &[&[
        (0.70, 0.14),
        (0.34, 0.14),
        (0.31, 0.45),
        (0.52, 0.40),
        (0.70, 0.50),
        (0.70, 0.70),
        (0.52, 0.85),
        (0.30, 0.78),
    ]];
    const SIX: &[Stroke] = &[&[
        (0.64, 0.15),
        (0.44, 0.28),
        (0.32, 0.52),
        (0.31, 0.70),
        (0.44, 0.85),
        (0.62, 0.81),
        (0.69, 0.65),
        (0.58, 0.52),
        (0.38, 0.56),
    ]];
    const SEVEN: &[Stroke] = &[&[(0.27, 0.15), (0.73, 0.15), (0.45, 0.86)]];
    const EIGHT: &[Stroke] = &[
        &[
            (0.50, 0.14),
            (0.35, 0.22),
            (0.36, 0.38),
            (0.50, 0.46),
            (0.65, 0.38),
            (0.64, 0.22),
            (0.50, 0.14),
        ],
        &[
            (0.50, 0.46),
            (0.32, 0.56),
            (0.31, 0.75),
            (0.50, 0.86),
            (0.69, 0.75),
            (0.68, 0.56),
            (0.50, 0.46),
        ],
    ];
    const NINE: &[Stroke] = &[&[
        (0.38, 0.84),
        (0.56, 0.72),
        (0.68, 0.48),
        (0.69, 0.30),
        (0.55, 0.15),
        (0.38, 0.19),
        (0.31, 0.35),
        (0.42, 0.48),
        (0.62, 0.44),
    ]];
    match digit {
        0 => ZERO,
        1 => ONE,
        2 => TWO,
        3 => THREE,
        4 => FOUR,
        5 => FIVE,
        6 => SIX,
        7 => SEVEN,
        8 => EIGHT,
        _ => NINE,
    }
}

/// Distance from point `p` to segment `a–b`.
fn segment_distance(p: (f32, f32), a: (f32, f32), b: (f32, f32)) -> f32 {
    let (px, py) = (p.0 - a.0, p.1 - a.1);
    let (dx, dy) = (b.0 - a.0, b.1 - a.1);
    let len_sq = dx * dx + dy * dy;
    let t = if len_sq == 0.0 { 0.0 } else { ((px * dx + py * dy) / len_sq).clamp(0.0, 1.0) };
    let (cx, cy) = (a.0 + t * dx - p.0, a.1 + t * dy - p.1);
    (cx * cx + cy * cy).sqrt()
}

/// Renders one digit with the given random jitter parameters into a
/// 28×28 grayscale image in `[0, 1]`.
fn render(digit: u8, rng: &mut StdRng) -> Vec<f32> {
    let angle = rng.gen_range(-0.22f32..0.22);
    let scale = rng.gen_range(0.80f32..1.08);
    let (tx, ty) = (rng.gen_range(-0.07f32..0.07), rng.gen_range(-0.07f32..0.07));
    let thickness = rng.gen_range(0.035f32..0.065);
    let noise_amp = rng.gen_range(0.0f32..0.05);
    let (sin, cos) = angle.sin_cos();
    // Transform glyph points once.
    let strokes: Vec<Vec<(f32, f32)>> = glyph(digit)
        .iter()
        .map(|stroke| {
            stroke
                .iter()
                .map(|&(x, y)| {
                    let (cx, cy) = (x - 0.5, y - 0.5);
                    let (rx, ry) = (cx * cos - cy * sin, cx * sin + cy * cos);
                    (rx * scale + 0.5 + tx, ry * scale + 0.5 + ty)
                })
                .collect()
        })
        .collect();
    let aa = 0.035f32; // soft edge width
    let mut img = vec![0.0f32; IMAGE_SIDE * IMAGE_SIDE];
    for iy in 0..IMAGE_SIDE {
        for ix in 0..IMAGE_SIDE {
            let p = ((ix as f32 + 0.5) / IMAGE_SIDE as f32, (iy as f32 + 0.5) / IMAGE_SIDE as f32);
            let mut d = f32::MAX;
            for stroke in &strokes {
                for seg in stroke.windows(2) {
                    d = d.min(segment_distance(p, seg[0], seg[1]));
                }
            }
            let mut v = ((thickness + aa - d) / aa).clamp(0.0, 1.0);
            v += rng.gen_range(-noise_amp..=noise_amp);
            // Quantize to the 8-bit grid like real MNIST pixels.
            img[iy * IMAGE_SIDE + ix] = (v.clamp(0.0, 1.0) * 255.0).round() / 255.0;
        }
    }
    img
}

/// Generates `count` labeled digit images, deterministically from `seed`.
/// Labels cycle 0–9 and the items are shuffled.
///
/// # Example
///
/// ```
/// use scnn_nn::data::synthetic::generate;
///
/// let ds = generate(30, 7);
/// assert_eq!(ds.len(), 30);
/// assert_eq!(ds.num_classes(), 10);
/// // Deterministic:
/// assert_eq!(generate(30, 7), ds);
/// ```
pub fn generate(count: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(count * IMAGE_SIDE * IMAGE_SIDE);
    let mut labels = Vec::with_capacity(count);
    for i in 0..count {
        let digit = (i % 10) as u8;
        data.extend(render(digit, &mut rng));
        labels.push(digit);
    }
    Dataset::new(data, &[1, IMAGE_SIDE, IMAGE_SIDE], labels)
        .expect("constructed with matching lengths")
        .shuffled(seed ^ 0x00d1_9e57)
}

/// Renders a single digit image with jitter drawn from `seed` — handy for
/// examples that want one test image.
pub fn single(digit: u8, seed: u64) -> Vec<f32> {
    assert!(digit < 10, "digit {digit} out of range");
    render(digit, &mut StdRng::seed_from_u64(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_labeled() {
        let a = generate(40, 1);
        let b = generate(40, 1);
        assert_eq!(a, b);
        let c = generate(40, 2);
        assert_ne!(a, c);
        // All ten classes present.
        let mut seen = [false; 10];
        for i in 0..40 {
            seen[a.label(i) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn pixels_are_valid_8bit_grayscale() {
        let ds = generate(20, 3);
        for i in 0..ds.len() {
            for &p in ds.item(i) {
                assert!((0.0..=1.0).contains(&p));
                // Exactly on the 8-bit grid.
                let level = p * 255.0;
                assert!((level - level.round()).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn digits_have_ink() {
        // Every rendered digit should have a meaningful number of bright
        // pixels and plenty of dark background.
        for digit in 0..10u8 {
            let img = single(digit, 5);
            let bright = img.iter().filter(|&&v| v > 0.5).count();
            let dark = img.iter().filter(|&&v| v < 0.1).count();
            assert!((10..400).contains(&bright), "digit {digit}: {bright} bright");
            assert!(dark > 300, "digit {digit}: only {dark} dark");
        }
    }

    #[test]
    fn different_digits_look_different() {
        // Mean per-pixel difference between glyphs must exceed jitter noise.
        let a = single(0, 9);
        let b = single(1, 9);
        let diff: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum::<f32>() / a.len() as f32;
        assert!(diff > 0.02, "digits 0 and 1 too similar: {diff}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn single_validates_digit() {
        let _ = single(10, 0);
    }

    #[test]
    fn classes_are_linearly_distinguishable_on_average() {
        // Per-class mean images should differ pairwise — a cheap proxy for
        // learnability.
        let ds = generate(200, 11);
        let mut means = vec![vec![0.0f32; IMAGE_SIDE * IMAGE_SIDE]; 10];
        let mut counts = [0usize; 10];
        for i in 0..ds.len() {
            let l = ds.label(i) as usize;
            counts[l] += 1;
            for (m, &v) in means[l].iter_mut().zip(ds.item(i)) {
                *m += v;
            }
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c as f32;
            }
        }
        for a in 0..10 {
            for b in (a + 1)..10 {
                let diff: f32 =
                    means[a].iter().zip(&means[b]).map(|(x, y)| (x - y).abs()).sum::<f32>()
                        / means[a].len() as f32;
                assert!(diff > 0.01, "classes {a} and {b} mean-diff {diff}");
            }
        }
    }
}
