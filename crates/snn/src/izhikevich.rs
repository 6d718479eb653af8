//! Izhikevich's two-variable neuron model — the standard floating-point
//! reference for biological firing patterns.
//!
//! Included as a second baseline alongside the LIF simulator: the integer
//! behaviour catalogue (`brainsim_apps::behavior`) claims the silicon
//! neuron covers the canonical firing patterns; this module provides the
//! continuous-dynamics reference those patterns are defined against.
//!
//! Dynamics (Izhikevich 2003), integrated at 1 ms ticks with two 0.5 ms
//! half-steps for the fast variable (the standard stabilisation):
//!
//! ```text
//! v' = 0.04 v² + 5 v + 140 − u + I
//! u' = a (b v − u)
//! spike when v ≥ 30 mV:  v ← c,  u ← u + d
//! ```

/// The four Izhikevich parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IzhikevichParams {
    /// Recovery time scale.
    pub a: f64,
    /// Recovery sensitivity to `v`.
    pub b: f64,
    /// Post-spike reset value of `v` (mV).
    pub c: f64,
    /// Post-spike increment of `u`.
    pub d: f64,
}

impl IzhikevichParams {
    /// Regular spiking (cortical excitatory): tonic with adaptation.
    pub const fn regular_spiking() -> IzhikevichParams {
        IzhikevichParams {
            a: 0.02,
            b: 0.2,
            c: -65.0,
            d: 8.0,
        }
    }

    /// Fast spiking (inhibitory interneuron): high-rate tonic.
    pub const fn fast_spiking() -> IzhikevichParams {
        IzhikevichParams {
            a: 0.1,
            b: 0.2,
            c: -65.0,
            d: 2.0,
        }
    }

    /// Chattering: high-frequency bursts.
    pub const fn chattering() -> IzhikevichParams {
        IzhikevichParams {
            a: 0.02,
            b: 0.2,
            c: -50.0,
            d: 2.0,
        }
    }

    /// Intrinsically bursting: initial burst then tonic.
    pub const fn intrinsically_bursting() -> IzhikevichParams {
        IzhikevichParams {
            a: 0.02,
            b: 0.2,
            c: -55.0,
            d: 4.0,
        }
    }

    /// Low-threshold spiking: rebound-capable inhibitory cell.
    pub const fn low_threshold_spiking() -> IzhikevichParams {
        IzhikevichParams {
            a: 0.02,
            b: 0.25,
            c: -65.0,
            d: 2.0,
        }
    }
}

impl Default for IzhikevichParams {
    fn default() -> Self {
        IzhikevichParams::regular_spiking()
    }
}

/// One Izhikevich neuron: two state variables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IzhikevichNeuron {
    params: IzhikevichParams,
    v: f64,
    u: f64,
}

impl IzhikevichNeuron {
    /// Creates a neuron at the resting state (`v = −70`, `u = b·v`).
    pub fn new(params: IzhikevichParams) -> IzhikevichNeuron {
        let v = -70.0;
        IzhikevichNeuron {
            params,
            v,
            u: params.b * v,
        }
    }

    /// Membrane potential (mV).
    pub fn v(&self) -> f64 {
        self.v
    }

    /// Recovery variable.
    pub fn u(&self) -> f64 {
        self.u
    }

    /// Advances one 1 ms tick under input current `i` (two 0.5 ms
    /// half-steps for `v`). Returns whether the neuron spiked.
    pub fn step(&mut self, i: f64) -> bool {
        for _ in 0..2 {
            self.v += 0.5 * (0.04 * self.v * self.v + 5.0 * self.v + 140.0 - self.u + i);
        }
        self.u += self.params.a * (self.params.b * self.v - self.u);
        if self.v >= 30.0 {
            self.v = self.params.c;
            self.u += self.params.d;
            true
        } else {
            false
        }
    }

    /// Runs `ticks` ticks of constant current, returning the spike raster.
    pub fn run_dc(&mut self, i: f64, ticks: usize) -> Vec<bool> {
        (0..ticks).map(|_| self.step(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn count(raster: &[bool]) -> usize {
        raster.iter().filter(|&&s| s).count()
    }

    fn isis(raster: &[bool]) -> Vec<usize> {
        let times: Vec<usize> = raster
            .iter()
            .enumerate()
            .filter_map(|(t, &s)| s.then_some(t))
            .collect();
        times.windows(2).map(|w| w[1] - w[0]).collect()
    }

    #[test]
    fn resting_neuron_is_silent() {
        let mut n = IzhikevichNeuron::new(IzhikevichParams::regular_spiking());
        assert_eq!(count(&n.run_dc(0.0, 500)), 0);
        assert!((n.v() + 70.0).abs() < 10.0, "v drifted: {}", n.v());
    }

    #[test]
    fn regular_spiking_is_tonic_with_adaptation() {
        let mut n = IzhikevichNeuron::new(IzhikevichParams::regular_spiking());
        let raster = n.run_dc(10.0, 600);
        let isis = isis(&raster);
        assert!(isis.len() >= 5, "too few spikes: {}", isis.len());
        // Spike-frequency adaptation: later ISIs longer than the first.
        assert!(
            *isis.last().unwrap() > isis[0],
            "ISIs {isis:?} should lengthen"
        );
    }

    #[test]
    fn fast_spiking_outpaces_regular_spiking() {
        let mut rs = IzhikevichNeuron::new(IzhikevichParams::regular_spiking());
        let mut fs = IzhikevichNeuron::new(IzhikevichParams::fast_spiking());
        let rs_count = count(&rs.run_dc(10.0, 500));
        let fs_count = count(&fs.run_dc(10.0, 500));
        assert!(
            fs_count > rs_count,
            "FS {fs_count} should exceed RS {rs_count}"
        );
    }

    #[test]
    fn chattering_produces_bursts() {
        let mut n = IzhikevichNeuron::new(IzhikevichParams::chattering());
        let raster = n.run_dc(10.0, 600);
        let isis = isis(&raster);
        let short = isis.iter().filter(|&&i| i <= 6).count();
        let long = isis.iter().filter(|&&i| i > 12).count();
        assert!(
            short >= 4 && long >= 2,
            "expected burst structure, ISIs {isis:?}"
        );
    }

    #[test]
    fn firing_rate_grows_with_current() {
        let rates: Vec<usize> = [4.0, 8.0, 14.0]
            .iter()
            .map(|&i| {
                let mut n = IzhikevichNeuron::new(IzhikevichParams::regular_spiking());
                count(&n.run_dc(i, 500))
            })
            .collect();
        assert!(
            rates[0] < rates[1] && rates[1] < rates[2],
            "rates {rates:?}"
        );
    }
}
