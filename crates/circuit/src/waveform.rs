//! Source stimuli: DC, sinusoid, square/pulse, piecewise-linear, and
//! multi-tone waveforms, each tagged with the [`TimeScale`] it lives on so
//! the MPDE engines can evaluate `b̂(t₁, t₂)` (paper, Section 2.2).

use crate::dae::TwoTime;

/// Which MPDE time axis a stimulus varies along.
///
/// Univariate analyses ignore the distinction (both axes carry the same
/// time); the multi-rate engines route slow stimuli to `t₁` and fast ones
/// to `t₂`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeScale {
    /// Baseband / modulation / envelope time scale (`t₁`).
    #[default]
    Slow,
    /// Carrier / LO / switching time scale (`t₂`).
    Fast,
}

/// A single sinusoidal tone `amp·sin(2πft + φ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tone {
    /// Peak amplitude.
    pub amplitude: f64,
    /// Frequency in Hz.
    pub freq: f64,
    /// Phase in radians.
    pub phase: f64,
}

impl Tone {
    /// Creates a zero-phase tone.
    pub fn new(amplitude: f64, freq: f64) -> Self {
        Tone { amplitude, freq, phase: 0.0 }
    }

    /// Evaluates the tone at time `t`.
    pub fn eval(&self, t: f64) -> f64 {
        self.amplitude * (2.0 * std::f64::consts::PI * self.freq * t + self.phase).sin()
    }
}

/// A time-domain stimulus waveform.
#[derive(Debug, Clone, PartialEq)]
pub enum Stimulus {
    /// Constant value.
    Dc(f64),
    /// `offset + amp·sin(2πft + φ)` on the given time scale.
    Sine {
        /// DC offset.
        offset: f64,
        /// Tone parameters.
        tone: Tone,
        /// Time axis the sine varies along.
        scale: TimeScale,
    },
    /// Ideal square wave alternating ±`amplitude` with period `period`
    /// and 50% duty (first half-period positive), plus `offset`.
    Square {
        /// DC offset.
        offset: f64,
        /// Peak amplitude.
        amplitude: f64,
        /// Period in seconds.
        period: f64,
        /// Time axis.
        scale: TimeScale,
    },
    /// Trapezoidal pulse train (SPICE PULSE): low, high, delay, rise, fall,
    /// width, period.
    Pulse {
        /// Level before the pulse and after fall.
        low: f64,
        /// Plateau level.
        high: f64,
        /// Initial delay (s).
        delay: f64,
        /// Rise time (s).
        rise: f64,
        /// Fall time (s).
        fall: f64,
        /// Plateau width (s).
        width: f64,
        /// Repetition period (s).
        period: f64,
        /// Time axis.
        scale: TimeScale,
    },
    /// Piecewise-linear `(t, v)` samples; clamps outside the range.
    Pwl {
        /// Sorted sample points.
        points: Vec<(f64, f64)>,
        /// Time axis.
        scale: TimeScale,
    },
    /// Sum of tones, each on its own time scale, plus an offset — the
    /// two-tone / multi-tone drive of HB and MPDE studies.
    MultiTone {
        /// DC offset.
        offset: f64,
        /// The tones and their time scales.
        tones: Vec<(Tone, TimeScale)>,
    },
}

impl Stimulus {
    /// Convenience: a sine on the slow axis.
    pub fn sine(offset: f64, amplitude: f64, freq: f64) -> Self {
        Stimulus::Sine { offset, tone: Tone::new(amplitude, freq), scale: TimeScale::Slow }
    }

    /// Convenience: a sine on the fast axis.
    pub fn sine_fast(offset: f64, amplitude: f64, freq: f64) -> Self {
        Stimulus::Sine { offset, tone: Tone::new(amplitude, freq), scale: TimeScale::Fast }
    }

    /// Convenience: a ±`amplitude` square wave of frequency `freq` on the
    /// fast axis (the classic LO drive).
    pub fn square_fast(amplitude: f64, freq: f64) -> Self {
        Stimulus::Square { offset: 0.0, amplitude, period: 1.0 / freq, scale: TimeScale::Fast }
    }

    /// Evaluates at a (possibly bivariate) time.
    pub fn eval(&self, t: TwoTime) -> f64 {
        match self {
            Stimulus::Dc(v) => *v,
            Stimulus::Sine { offset, tone, scale } => offset + tone.eval(t.select(*scale)),
            Stimulus::Square { offset, amplitude, period, scale } => {
                let tt = t.select(*scale).rem_euclid(*period);
                if tt < period / 2.0 {
                    offset + amplitude
                } else {
                    offset - amplitude
                }
            }
            Stimulus::Pulse { low, high, delay, rise, fall, width, period, scale } => {
                let tt = t.select(*scale);
                if tt < *delay {
                    return *low;
                }
                let tp = (tt - delay).rem_euclid(*period);
                if tp < *rise {
                    low + (high - low) * tp / rise.max(1e-300)
                } else if tp < rise + width {
                    *high
                } else if tp < rise + width + fall {
                    high - (high - low) * (tp - rise - width) / fall.max(1e-300)
                } else {
                    *low
                }
            }
            Stimulus::Pwl { points, scale } => {
                let tt = t.select(*scale);
                if points.is_empty() {
                    return 0.0;
                }
                if tt <= points[0].0 {
                    return points[0].1;
                }
                if tt >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                let i = points.partition_point(|&(pt, _)| pt <= tt) - 1;
                let (t0, v0) = points[i];
                let (t1, v1) = points[i + 1];
                v0 + (v1 - v0) * (tt - t0) / (t1 - t0)
            }
            Stimulus::MultiTone { offset, tones } => {
                offset + tones.iter().map(|(tone, sc)| tone.eval(t.select(*sc))).sum::<f64>()
            }
        }
    }

    /// Fundamental frequencies present, paired with their time scales.
    /// (Used by HB/MPDE to choose analysis frequencies.)
    pub fn frequencies(&self) -> Vec<(f64, TimeScale)> {
        match self {
            Stimulus::Dc(_) => Vec::new(),
            Stimulus::Sine { tone, scale, .. } => vec![(tone.freq, *scale)],
            Stimulus::Square { period, scale, .. } => vec![(1.0 / period, *scale)],
            Stimulus::Pulse { period, scale, .. } => vec![(1.0 / period, *scale)],
            Stimulus::Pwl { .. } => Vec::new(),
            Stimulus::MultiTone { tones, .. } => tones.iter().map(|(t, s)| (t.freq, *s)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let s = Stimulus::Dc(3.0);
        assert_eq!(s.eval(TwoTime::uni(0.0)), 3.0);
        assert_eq!(s.eval(TwoTime::uni(1e9)), 3.0);
    }

    #[test]
    fn sine_peaks_at_quarter_period() {
        let s = Stimulus::sine(1.0, 2.0, 10.0);
        assert!((s.eval(TwoTime::uni(0.025)) - 3.0).abs() < 1e-12);
        assert!((s.eval(TwoTime::uni(0.0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn square_alternates() {
        let s = Stimulus::square_fast(1.0, 100.0);
        assert_eq!(s.eval(TwoTime::uni(0.001)), 1.0);
        assert_eq!(s.eval(TwoTime::uni(0.006)), -1.0);
        // Periodicity.
        assert_eq!(s.eval(TwoTime::uni(0.001)), s.eval(TwoTime::uni(0.011)));
    }

    #[test]
    fn pulse_shape() {
        let s = Stimulus::Pulse {
            low: 0.0,
            high: 1.0,
            delay: 1.0,
            rise: 0.1,
            fall: 0.1,
            width: 0.3,
            period: 1.0,
            scale: TimeScale::Slow,
        };
        assert_eq!(s.eval(TwoTime::uni(0.5)), 0.0); // before delay
        assert!((s.eval(TwoTime::uni(1.05)) - 0.5).abs() < 1e-12); // mid-rise
        assert_eq!(s.eval(TwoTime::uni(1.2)), 1.0); // plateau
        assert!((s.eval(TwoTime::uni(1.45)) - 0.5).abs() < 1e-12); // mid-fall
        assert_eq!(s.eval(TwoTime::uni(1.9)), 0.0); // off
        assert_eq!(s.eval(TwoTime::uni(2.2)), 1.0); // next period plateau
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let s = Stimulus::Pwl {
            points: vec![(0.0, 0.0), (1.0, 2.0), (2.0, 0.0)],
            scale: TimeScale::Slow,
        };
        assert_eq!(s.eval(TwoTime::uni(-1.0)), 0.0);
        assert!((s.eval(TwoTime::uni(0.5)) - 1.0).abs() < 1e-12);
        assert!((s.eval(TwoTime::uni(1.5)) - 1.0).abs() < 1e-12);
        assert_eq!(s.eval(TwoTime::uni(5.0)), 0.0);
    }

    #[test]
    fn multitone_separates_scales() {
        let s = Stimulus::MultiTone {
            offset: 0.0,
            tones: vec![
                (Tone::new(1.0, 1.0), TimeScale::Slow),
                (Tone::new(0.5, 100.0), TimeScale::Fast),
            ],
        };
        // At t1 = 0.25 (slow peak), t2 = 0: only slow contributes.
        let v = s.eval(TwoTime::new(0.25, 0.0));
        assert!((v - 1.0).abs() < 1e-12);
        // Frequencies advertised with their scales.
        let fs = s.frequencies();
        assert_eq!(fs.len(), 2);
        assert_eq!(fs[0], (1.0, TimeScale::Slow));
        assert_eq!(fs[1], (100.0, TimeScale::Fast));
    }
}
