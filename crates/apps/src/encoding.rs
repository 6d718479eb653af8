//! Spike codecs: the bridges between analogue values and the chip's binary,
//! tick-quantised world.
//!
//! * [`RateCode`] — value ↦ spike count over a window. The deterministic
//!   encoder uses error diffusion (no random sparkle, exactly
//!   `round(v · window)` spikes); the stochastic encoder draws Bernoulli
//!   spikes from a seeded LFSR, matching the silicon's pseudo-random
//!   sources.
//! * [`TimeToSpikeCode`] — value ↦ latency of a single spike; the fastest
//!   code at one spike per value.
//! * [`PopulationCode`] — value ↦ place-coded activity across N channels
//!   with triangular tuning curves; decoded by centre-of-mass.
//! * [`image_to_rates`] / [`FrameEncoder`] — grayscale frames ↦ per-pixel
//!   spike trains for the vision front-ends.
//!
//! Every codec has a decode side and a tested round-trip error bound.
//! The [`aer`] module adds the address-event representation wire format
//! for recording and replaying spike streams.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod aer;

use brainsim_neuron::Lfsr;

/// Rate coding over a fixed window of ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateCode {
    window: usize,
}

impl RateCode {
    /// Creates a rate code over `window` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> RateCode {
        assert!(window > 0, "rate window must be non-zero");
        RateCode { window }
    }

    /// The window length in ticks.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Deterministic (error-diffusion) encoding of `value ∈ [0, 1]`.
    ///
    /// Produces exactly `round(value · window)` spikes, maximally evenly
    /// spaced. Values are clamped to `[0, 1]`.
    pub fn encode(&self, value: f64) -> Vec<bool> {
        let v = value.clamp(0.0, 1.0);
        let mut acc = 0.5; // rounding offset
        let mut train = Vec::with_capacity(self.window);
        for _ in 0..self.window {
            acc += v;
            if acc >= 1.0 {
                acc -= 1.0;
                train.push(true);
            } else {
                train.push(false);
            }
        }
        train
    }

    /// Stochastic (Bernoulli) encoding of `value ∈ [0, 1]` using `rng`.
    pub fn encode_stochastic(&self, value: f64, rng: &mut Lfsr) -> Vec<bool> {
        let v = value.clamp(0.0, 1.0);
        let numerator = (v * 256.0).round() as u32;
        (0..self.window)
            .map(|_| rng.bernoulli_256(numerator))
            .collect()
    }

    /// Decodes a spike train back to a value in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the train length differs from the window.
    pub fn decode(&self, train: &[bool]) -> f64 {
        assert_eq!(train.len(), self.window, "train length != window");
        train.iter().filter(|&&s| s).count() as f64 / self.window as f64
    }
}

/// Time-to-first-spike coding: larger values spike earlier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeToSpikeCode {
    window: usize,
}

impl TimeToSpikeCode {
    /// Creates a latency code over `window` ticks.
    ///
    /// # Panics
    ///
    /// Panics if `window < 2`.
    pub fn new(window: usize) -> TimeToSpikeCode {
        assert!(window >= 2, "latency window must be at least 2");
        TimeToSpikeCode { window }
    }

    /// Encodes `value ∈ [0, 1]` as a single spike at latency
    /// `round((1 − value) · (window − 1))`.
    pub fn encode(&self, value: f64) -> Vec<bool> {
        let v = value.clamp(0.0, 1.0);
        let latency = ((1.0 - v) * (self.window - 1) as f64).round() as usize;
        (0..self.window).map(|t| t == latency).collect()
    }

    /// Decodes the first spike's latency back to a value; an empty train
    /// decodes to 0.
    ///
    /// # Panics
    ///
    /// Panics if the train length differs from the window.
    pub fn decode(&self, train: &[bool]) -> f64 {
        assert_eq!(train.len(), self.window, "train length != window");
        match train.iter().position(|&s| s) {
            Some(latency) => 1.0 - latency as f64 / (self.window - 1) as f64,
            None => 0.0,
        }
    }
}

/// Place coding across `channels` channels with triangular tuning curves of
/// half-width one inter-channel spacing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PopulationCode {
    channels: usize,
    window: usize,
}

impl PopulationCode {
    /// Creates a population code.
    ///
    /// # Panics
    ///
    /// Panics if `channels < 2` or `window` is zero.
    pub fn new(channels: usize, window: usize) -> PopulationCode {
        assert!(channels >= 2, "population needs at least 2 channels");
        assert!(window > 0, "window must be non-zero");
        PopulationCode { channels, window }
    }

    /// Per-channel firing intensities for `value ∈ [0, 1]` (each in `[0, 1]`).
    pub fn intensities(&self, value: f64) -> Vec<f64> {
        let v = value.clamp(0.0, 1.0);
        let spacing = 1.0 / (self.channels - 1) as f64;
        (0..self.channels)
            .map(|c| {
                let centre = c as f64 * spacing;
                (1.0 - (v - centre).abs() / spacing).max(0.0)
            })
            .collect()
    }

    /// Encodes a value as one deterministic rate train per channel.
    pub fn encode(&self, value: f64) -> Vec<Vec<bool>> {
        let rate = RateCode::new(self.window);
        self.intensities(value)
            .into_iter()
            .map(|i| rate.encode(i))
            .collect()
    }

    /// Decodes per-channel spike counts by centre of mass.
    ///
    /// Returns 0 if no channel spiked.
    ///
    /// # Panics
    ///
    /// Panics if the number of trains differs from the channel count.
    pub fn decode(&self, trains: &[Vec<bool>]) -> f64 {
        assert_eq!(trains.len(), self.channels, "train count != channels");
        let spacing = 1.0 / (self.channels - 1) as f64;
        let mut mass = 0.0;
        let mut moment = 0.0;
        for (c, train) in trains.iter().enumerate() {
            let count = train.iter().filter(|&&s| s).count() as f64;
            mass += count;
            moment += count * c as f64 * spacing;
        }
        if mass == 0.0 {
            0.0
        } else {
            moment / mass
        }
    }
}

/// A grayscale frame with pixels in `[0, 1]`, row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    width: usize,
    height: usize,
    pixels: Vec<f64>,
}

impl Frame {
    /// Creates a frame from row-major pixels.
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != width * height`.
    pub fn new(width: usize, height: usize, pixels: Vec<f64>) -> Frame {
        assert_eq!(pixels.len(), width * height, "pixel count mismatch");
        Frame {
            width,
            height,
            pixels,
        }
    }

    /// Frame width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Frame height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn pixel(&self, x: usize, y: usize) -> f64 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x]
    }

    /// Row-major pixel slice.
    pub fn pixels(&self) -> &[f64] {
        &self.pixels
    }
}

/// Encodes a frame into one deterministic rate train per pixel
/// (row-major), over `window` ticks.
pub fn image_to_rates(frame: &Frame, window: usize) -> Vec<Vec<bool>> {
    let code = RateCode::new(window);
    frame.pixels().iter().map(|&p| code.encode(p)).collect()
}

/// Streams a frame as per-tick spike vectors: `tick_spikes(t)[p]` is whether
/// pixel `p` spikes at tick `t` of the window.
#[derive(Debug, Clone)]
pub struct FrameEncoder {
    trains: Vec<Vec<bool>>,
    window: usize,
}

impl FrameEncoder {
    /// Builds the per-pixel trains for a frame.
    pub fn new(frame: &Frame, window: usize) -> FrameEncoder {
        FrameEncoder {
            trains: image_to_rates(frame, window),
            window,
        }
    }

    /// The encoding window in ticks.
    pub fn window(&self) -> usize {
        self.window
    }

    /// The spike vector for tick `t` (all pixels), `t` beyond the window
    /// yields all-false.
    pub fn tick_spikes(&self, t: usize) -> Vec<bool> {
        self.trains
            .iter()
            .map(|train| t < self.window && train[t])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_round_trip_error_bounded() {
        let code = RateCode::new(32);
        for i in 0..=100 {
            let v = i as f64 / 100.0;
            let err = (code.decode(&code.encode(v)) - v).abs();
            assert!(err <= 0.5 / 32.0 + 1e-12, "v={v} err={err}");
        }
    }

    #[test]
    fn rate_extremes() {
        let code = RateCode::new(16);
        assert_eq!(code.decode(&code.encode(0.0)), 0.0);
        assert_eq!(code.decode(&code.encode(1.0)), 1.0);
        assert_eq!(code.decode(&code.encode(-5.0)), 0.0); // clamped
        assert_eq!(code.decode(&code.encode(7.0)), 1.0);
    }

    #[test]
    fn rate_spikes_evenly_spaced() {
        let code = RateCode::new(8);
        let train = code.encode(0.5);
        assert_eq!(train.iter().filter(|&&s| s).count(), 4);
        // Alternating pattern, no two adjacent spikes.
        for w in train.windows(2) {
            assert!(!(w[0] && w[1]));
        }
    }

    #[test]
    fn rate_stochastic_tracks_value() {
        let code = RateCode::new(4000);
        let mut rng = Lfsr::new(77);
        let train = code.encode_stochastic(0.3, &mut rng);
        let decoded = code.decode(&train);
        assert!((decoded - 0.3).abs() < 0.03, "decoded {decoded}");
    }

    #[test]
    fn time_to_spike_round_trip() {
        let code = TimeToSpikeCode::new(33);
        for i in 0..=32 {
            let v = i as f64 / 32.0;
            let decoded = code.decode(&code.encode(v));
            assert!((decoded - v).abs() < 1e-9, "v={v} decoded={decoded}");
        }
    }

    #[test]
    fn time_to_spike_extremes_and_empty() {
        let code = TimeToSpikeCode::new(10);
        let one = code.encode(1.0);
        assert!(one[0]);
        let zero = code.encode(0.0);
        assert!(zero[9]);
        assert_eq!(code.decode(&[false; 10]), 0.0);
    }

    #[test]
    fn population_intensities_peak_at_value() {
        let code = PopulationCode::new(5, 8);
        let ints = code.intensities(0.5);
        assert_eq!(ints.len(), 5);
        // Middle channel (centre 0.5) peaks at 1.
        assert!((ints[2] - 1.0).abs() < 1e-9);
        assert!(ints[0] < 1e-9 && ints[4] < 1e-9);
    }

    #[test]
    fn population_round_trip() {
        let code = PopulationCode::new(9, 64);
        for i in 0..=16 {
            let v = i as f64 / 16.0;
            let decoded = code.decode(&code.encode(v));
            assert!((decoded - v).abs() < 0.07, "v={v} decoded={decoded}");
        }
    }

    #[test]
    fn population_empty_decodes_to_zero() {
        let code = PopulationCode::new(3, 4);
        assert_eq!(code.decode(&vec![vec![false; 4]; 3]), 0.0);
    }

    #[test]
    fn frame_accessors_and_encoding() {
        let frame = Frame::new(2, 2, vec![0.0, 1.0, 0.5, 0.25]);
        assert_eq!(frame.pixel(1, 0), 1.0);
        assert_eq!(frame.pixel(0, 1), 0.5);
        let rates = image_to_rates(&frame, 8);
        assert_eq!(rates.len(), 4);
        assert_eq!(rates[1].iter().filter(|&&s| s).count(), 8);
        assert_eq!(rates[0].iter().filter(|&&s| s).count(), 0);
    }

    #[test]
    fn frame_encoder_streams_ticks() {
        let frame = Frame::new(2, 1, vec![1.0, 0.0]);
        let enc = FrameEncoder::new(&frame, 4);
        for t in 0..4 {
            assert_eq!(enc.tick_spikes(t), vec![true, false]);
        }
        assert_eq!(enc.tick_spikes(10), vec![false, false]);
    }

    #[test]
    #[should_panic(expected = "pixel count")]
    fn bad_frame_panics() {
        let _ = Frame::new(2, 2, vec![0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "train length")]
    fn rate_decode_length_checked() {
        RateCode::new(8).decode(&[true; 4]);
    }
}
