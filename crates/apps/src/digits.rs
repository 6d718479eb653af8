//! The synthetic digit-glyph dataset.
//!
//! Ten 5×7 digit glyphs (the classic dot-matrix font) are upscaled to
//! 16×16 frames; samples are produced by jittering the glyph position by
//! up to ±1 pixel and flipping each pixel independently with a configurable
//! probability, all driven by the deterministic LFSR so datasets are
//! reproducible.

use crate::encoding::Frame;
use brainsim_neuron::Lfsr;

/// Frame side length.
pub const SIDE: usize = 16;
/// Pixels per frame.
pub const PIXELS: usize = SIDE * SIDE;
/// Number of classes.
pub const CLASSES: usize = 10;

/// 5×7 dot-matrix glyphs for digits 0–9 (row-major, `#` = on).
const GLYPHS: [[&str; 7]; 10] = [
    [
        " ### ", "#   #", "#  ##", "# # #", "##  #", "#   #", " ### ",
    ], // 0
    [
        "  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### ",
    ], // 1
    [
        " ### ", "#   #", "    #", "   # ", "  #  ", " #   ", "#####",
    ], // 2
    [
        " ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### ",
    ], // 3
    [
        "   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # ",
    ], // 4
    [
        "#####", "#    ", "#### ", "    #", "    #", "#   #", " ### ",
    ], // 5
    [
        " ### ", "#    ", "#    ", "#### ", "#   #", "#   #", " ### ",
    ], // 6
    [
        "#####", "    #", "   # ", "  #  ", " #   ", " #   ", " #   ",
    ], // 7
    [
        " ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### ",
    ], // 8
    [
        " ### ", "#   #", "#   #", " ####", "    #", "    #", " ### ",
    ], // 9
];

/// One labelled sample.
#[derive(Debug, Clone)]
pub struct Sample {
    /// The image.
    pub frame: Frame,
    /// The digit class, `0..10`.
    pub label: usize,
}

/// Renders the clean (noise-free) glyph of a digit, centred in the frame.
///
/// # Panics
///
/// Panics if `digit >= 10`.
pub fn glyph(digit: usize) -> Frame {
    render(digit, 0, 0, 0.0, &mut Lfsr::new(1))
}

fn render(digit: usize, dx: i32, dy: i32, flip_p: f64, rng: &mut Lfsr) -> Frame {
    assert!(digit < CLASSES, "digit out of range");
    // Upscale 5×7 → 10×14, centred in 16×16 with the jitter offset.
    let mut pixels = vec![0.0f64; PIXELS];
    let x0 = 3 + dx;
    let y0 = 1 + dy;
    for (gy, row) in GLYPHS[digit].iter().enumerate() {
        for (gx, ch) in row.chars().enumerate() {
            if ch == '#' {
                for sy in 0..2 {
                    for sx in 0..2 {
                        let x = x0 + (gx * 2 + sx) as i32;
                        let y = y0 + (gy * 2 + sy) as i32;
                        if (0..SIDE as i32).contains(&x) && (0..SIDE as i32).contains(&y) {
                            pixels[y as usize * SIDE + x as usize] = 1.0;
                        }
                    }
                }
            }
        }
    }
    if flip_p > 0.0 {
        let numerator = (flip_p * 256.0).round() as u32;
        for p in pixels.iter_mut() {
            if rng.bernoulli_256(numerator) {
                *p = 1.0 - *p;
            }
        }
    }
    Frame::new(SIDE, SIDE, pixels)
}

/// Generates `per_class` samples per digit with position jitter (±1 px) and
/// independent pixel flips with probability `noise`.
pub fn generate(per_class: usize, noise: f64, seed: u32) -> Vec<Sample> {
    let mut rng = Lfsr::new(seed);
    let mut samples = Vec::with_capacity(per_class * CLASSES);
    for digit in 0..CLASSES {
        for _ in 0..per_class {
            let dx = (rng.next_u32() % 3) as i32 - 1;
            let dy = (rng.next_u32() % 3) as i32 - 1;
            samples.push(Sample {
                frame: render(digit, dx, dy, noise, &mut rng),
                label: digit,
            });
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn glyphs_are_distinct() {
        for a in 0..CLASSES {
            for b in (a + 1)..CLASSES {
                assert_ne!(
                    glyph(a).pixels(),
                    glyph(b).pixels(),
                    "glyphs {a} and {b} are identical"
                );
            }
        }
    }

    #[test]
    fn glyphs_have_reasonable_ink() {
        for d in 0..CLASSES {
            let ink: f64 = glyph(d).pixels().iter().sum();
            assert!((30.0..140.0).contains(&ink), "digit {d} has ink {ink}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(3, 0.05, 42);
        let b = generate(3, 0.05, 42);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.frame.pixels(), y.frame.pixels());
            assert_eq!(x.label, y.label);
        }
    }

    #[test]
    fn noise_flips_roughly_expected_fraction() {
        let clean = generate(1, 0.0, 7);
        let noisy = generate(1, 0.1, 7);
        let mut diffs = 0usize;
        let mut total = 0usize;
        for (c, n) in clean.iter().zip(&noisy) {
            for (a, b) in c.frame.pixels().iter().zip(n.frame.pixels()) {
                // Jitter offsets differ between runs with different render
                // parameters, so compare only the flip statistics loosely.
                if (a - b).abs() > 0.5 {
                    diffs += 1;
                }
                total += 1;
            }
        }
        let fraction = diffs as f64 / total as f64;
        assert!(fraction > 0.02 && fraction < 0.5, "fraction {fraction}");
    }

    #[test]
    fn labels_cover_all_classes() {
        let data = generate(2, 0.0, 3);
        for d in 0..CLASSES {
            assert_eq!(data.iter().filter(|s| s.label == d).count(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "digit out of range")]
    fn bad_digit_panics() {
        let _ = glyph(10);
    }
}
