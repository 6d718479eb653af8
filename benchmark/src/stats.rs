//! Order statistics over step timings.

/// The `p`-th percentile (0.0..=1.0) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `p` of the samples at or below it.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `samples`, in their own unit.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median<T: Copy + Ord>(samples: &[T]) -> T {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile(&sorted, 0.5)
}

/// Splits `samples` into `parts` equal consecutive repetitions, dropping
/// the remainder from the end.
///
/// # Panics
///
/// Panics if there are fewer samples than parts.
pub fn repetitions<T>(samples: &[T], parts: usize) -> impl Iterator<Item = &[T]> {
    let len = samples.len() / parts;
    assert!(len > 0, "fewer samples than repetitions");
    samples.chunks_exact(len).take(parts)
}
