//! Shared workloads for the experiment harnesses and benches: the
//! synthetic circuits standing in for the paper's proprietary test
//! vehicles (see DESIGN.md's substitution table), plus small reporting
//! helpers.

use rfsim::circuit::prelude::*;
use rfsim::circuit::waveform::{Stimulus, TimeScale, Tone};
use rfsim::circuit::{Circuit, CircuitDae, NodeId};

/// Parameters of the synthetic quadrature modulator (the Fig 1 stand-in).
#[derive(Debug, Clone, Copy)]
pub struct ModulatorSpec {
    /// Baseband frequency (paper: 80 kHz).
    pub f_bb: f64,
    /// Carrier / LO frequency (paper: 1.62 GHz).
    pub f_lo: f64,
    /// I/Q gain imbalance (fraction). 0.036 puts the image sideband near
    /// −35 dBc, the out-of-spec component the paper traced to a layout
    /// imbalance.
    pub gain_imbalance: f64,
    /// LO feedthrough (fraction of carrier). 1.26e-4 ≈ −78 dBc, the weak
    /// spurious response transient analysis missed.
    pub lo_leak: f64,
}

impl Default for ModulatorSpec {
    fn default() -> Self {
        ModulatorSpec { f_bb: 80e3, f_lo: 1.62e9, gain_imbalance: 0.036, lo_leak: 1.26e-4 }
    }
}

/// Builds the dual-multiplier quadrature modulator:
/// `out = I·LO_i + (1+ε)·Q·LO_q + leak·LO_i` driven by a single-sideband
/// (I = sin, Q = cos) baseband pair: `sin·sin + cos·cos = cos(ω₂−ω₁)`, so
/// the wanted output is the **lower** sideband at `f_lo − f_bb`, the
/// imbalance image lands at `f_lo + f_bb` with relative amplitude `ε/2`,
/// and the leak sits on the carrier itself.
pub fn quadrature_modulator(spec: &ModulatorSpec) -> (CircuitDae, NodeId) {
    let mut ckt = Circuit::new();
    let bb_i = ckt.node("bb_i");
    let bb_q = ckt.node("bb_q");
    let lo_i = ckt.node("lo_i");
    let lo_q = ckt.node("lo_q");
    let out = ckt.node("out");
    let half_pi = std::f64::consts::FRAC_PI_2;
    ckt.add(VSource::sine("VBI", bb_i, Circuit::GROUND, 0.0, 1.0, spec.f_bb));
    ckt.add(VSource::new(
        "VBQ",
        bb_q,
        Circuit::GROUND,
        Stimulus::Sine {
            offset: 0.0,
            tone: Tone { amplitude: 1.0, freq: spec.f_bb, phase: half_pi },
            scale: TimeScale::Slow,
        },
    ));
    ckt.add(VSource::sine_fast("VLI", lo_i, Circuit::GROUND, 0.0, 1.0, spec.f_lo));
    ckt.add(VSource::new(
        "VLQ",
        lo_q,
        Circuit::GROUND,
        Stimulus::Sine {
            offset: 0.0,
            tone: Tone { amplitude: 1.0, freq: spec.f_lo, phase: half_pi },
            scale: TimeScale::Fast,
        },
    ));
    let g = 1e-3; // multiplier gain into the 1 kΩ load → unity scaling
    ckt.add(Multiplier::new(
        "MIXI",
        out,
        Circuit::GROUND,
        bb_i,
        Circuit::GROUND,
        lo_i,
        Circuit::GROUND,
        -g,
    ));
    ckt.add(Multiplier::new(
        "MIXQ",
        out,
        Circuit::GROUND,
        bb_q,
        Circuit::GROUND,
        lo_q,
        Circuit::GROUND,
        -g * (1.0 + spec.gain_imbalance),
    ));
    // LO feedthrough: a VCCS tap from the I LO straight to the output.
    ckt.add(Vccs::new("LEAK", out, Circuit::GROUND, lo_i, Circuit::GROUND, -g * spec.lo_leak));
    ckt.add(Resistor::new("RL", out, Circuit::GROUND, 1e3).noiseless());
    let dae = ckt.into_dae().expect("valid modulator netlist");
    (dae, out)
}

/// Parameters of the double-balanced switching mixer (Figs 4–5 stand-in).
#[derive(Debug, Clone, Copy)]
pub struct MixerSpec {
    /// RF frequency (paper: 100 kHz).
    pub f_rf: f64,
    /// LO frequency (paper: 900 MHz).
    pub f_lo: f64,
    /// RF amplitude (paper: 100 mV — "mildly nonlinear regime").
    pub rf_amplitude: f64,
    /// Cubic coefficient of the RF path (sets the ~35 dB HD3).
    pub cubic: f64,
}

impl Default for MixerSpec {
    fn default() -> Self {
        MixerSpec { f_rf: 100e3, f_lo: 900e6, rf_amplitude: 0.1, cubic: 7.2 }
    }
}

/// Builds the switching mixer + filter: an RF path with a small cubic
/// nonlinearity feeding a four-quadrant multiplier chopped by a ±1 V
/// square LO, into an RC output filter. Mix products land at `m·f_lo ±
/// k·f_rf` exactly as in the paper's Fig 4 discussion.
pub fn switching_mixer(spec: &MixerSpec) -> (CircuitDae, NodeId) {
    let mut ckt = Circuit::new();
    let rf = ckt.node("rf");
    let lo = ckt.node("lo");
    ckt.add(VSource::sine("VRF", rf, Circuit::GROUND, 0.0, spec.rf_amplitude, spec.f_rf));
    ckt.add(VSource::square_lo("VLO", lo, Circuit::GROUND, 1.0, spec.f_lo));
    // v(rfsq) = v_rf², v(rf3) = v_rf³ via multiplier cascade.
    let rfsq = ckt.node("rfsq");
    ckt.add(Multiplier::new(
        "SQ",
        rfsq,
        Circuit::GROUND,
        rf,
        Circuit::GROUND,
        rf,
        Circuit::GROUND,
        -1e-3,
    ));
    ckt.add(Resistor::new("RSQ", rfsq, Circuit::GROUND, 1e3).noiseless());
    let rf3 = ckt.node("rf3");
    ckt.add(Multiplier::new(
        "CUBE",
        rf3,
        Circuit::GROUND,
        rfsq,
        Circuit::GROUND,
        rf,
        Circuit::GROUND,
        -1e-3,
    ));
    ckt.add(Resistor::new("RC3", rf3, Circuit::GROUND, 1e3).noiseless());
    // drive = rf + cubic·rf³.
    let drive = ckt.node("drive");
    ckt.add(Resistor::new("RDRV", drive, Circuit::GROUND, 1e3).noiseless());
    ckt.add(Vccs::new("V2I", drive, Circuit::GROUND, rf, Circuit::GROUND, -1e-3));
    ckt.add(Vccs::new("ADD3", drive, Circuit::GROUND, rf3, Circuit::GROUND, -1e-3 * spec.cubic));
    // Chopper and output filter.
    let mixed = ckt.node("mixed");
    ckt.add(Multiplier::new(
        "MIX",
        mixed,
        Circuit::GROUND,
        drive,
        Circuit::GROUND,
        lo,
        Circuit::GROUND,
        -1.08e-3, // tuned so the 900.1 MHz product is ≈ 60 mV (paper)
    ));
    ckt.add(Resistor::new("RMIX", mixed, Circuit::GROUND, 1e3).noiseless());
    let out = ckt.node("out");
    ckt.add(Resistor::new("RF1", mixed, out, 100.0).noiseless());
    ckt.add(Capacitor::new("CF1", out, Circuit::GROUND, 1e-13));
    let dae = ckt.into_dae().expect("valid mixer netlist");
    (dae, out)
}

/// Builds the modulator followed by a ladder of `stages` buffered RF
/// sections: a unity-gain transconductance buffer into a 1 kΩ load with a
/// mild cubic compression and a wideband RC pole per stage. Every stage
/// adds one node, so the harmonic-balance Jacobian's per-frequency blocks
/// grow with `stages` — this is the kernel-dominated HB workload (sparse
/// block factors and solves, FFTs, GMRES orthogonalization) used by the
/// e02 `hb:` speedup rows.
pub fn modulator_chain(spec: &ModulatorSpec, stages: usize) -> (CircuitDae, NodeId) {
    let mut ckt = Circuit::new();
    let bb_i = ckt.node("bb_i");
    let lo_i = ckt.node("lo_i");
    let mix = ckt.node("mix");
    ckt.add(VSource::sine("VBI", bb_i, Circuit::GROUND, 0.0, 1.0, spec.f_bb));
    ckt.add(VSource::sine_fast("VLI", lo_i, Circuit::GROUND, 0.0, 1.0, spec.f_lo));
    ckt.add(Multiplier::new(
        "MIX",
        mix,
        Circuit::GROUND,
        bb_i,
        Circuit::GROUND,
        lo_i,
        Circuit::GROUND,
        -1e-3,
    ));
    ckt.add(Resistor::new("RMIX", mix, Circuit::GROUND, 1e3).noiseless());
    let mut prev = mix;
    for k in 0..stages {
        let nk = ckt.node(&format!("st{k}"));
        // Unity voltage gain: gm · RL = 1e-3 · 1e3.
        ckt.add(Vccs::new(&format!("GM{k}"), nk, Circuit::GROUND, prev, Circuit::GROUND, -1e-3));
        ckt.add(Resistor::new(&format!("RL{k}"), nk, Circuit::GROUND, 1e3).noiseless());
        // Mild compression keeps every stage nonlinear without spraying
        // energy past the truncated spectrum.
        ckt.add(NonlinearConductance::new(&format!("NL{k}"), nk, Circuit::GROUND, 0.0, 2e-5));
        // Pole a decade above the carrier: shapes the spectrum without
        // killing the signal down the ladder.
        let c = 1.0 / (2.0 * std::f64::consts::PI * 1e3 * 10.0 * spec.f_lo);
        ckt.add(Capacitor::new(&format!("CP{k}"), nk, Circuit::GROUND, c));
        prev = nk;
    }
    let dae = ckt.into_dae().expect("valid modulator chain netlist");
    (dae, prev)
}

/// Wall-clock of a closure in seconds, with its result.
///
/// Thin wrapper over a telemetry span: the duration also lands in the
/// `bench.timed` node of the span tree when telemetry is on.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    timed_span("bench.timed", f)
}

/// Like [`timed`], under an explicit span name (shows up as its own node
/// in the telemetry span tree).
pub fn timed_span<T>(name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = rfsim::telemetry::span(name);
    let t0 = std::time::Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    drop(span);
    (out, secs)
}

/// Prints a header row for one of the experiment tables.
pub fn heading(title: &str) {
    println!();
    println!("== {title} ==");
}

/// Formats dBc values including −∞.
pub fn fmt_dbc(v: f64) -> String {
    if v.is_finite() {
        format!("{v:8.1}")
    } else {
        "    -inf".to_string()
    }
}

/// Returns `true` if `--paper-scale` was passed to the harness.
pub fn paper_scale() -> bool {
    std::env::args().any(|a| a == "--paper-scale")
}

/// Returns `true` if `--ablate` was passed to the harness.
pub fn ablate() -> bool {
    std::env::args().any(|a| a == "--ablate")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfsim::steady::{solve_hb, HbOptions, SpectralGrid, ToneAxis};

    #[test]
    fn modulator_produces_expected_spectrum() {
        // Scaled-down ratio for test speed; spectrum structure is
        // ratio-independent.
        let spec = ModulatorSpec { f_bb: 1e6, f_lo: 100e6, ..Default::default() };
        let (dae, out) = quadrature_modulator(&spec);
        let grid = SpectralGrid::two_tone(ToneAxis::new(spec.f_bb, 2), ToneAxis::new(spec.f_lo, 2))
            .unwrap();
        let sol = solve_hb(&dae, &grid, &HbOptions::default()).unwrap();
        let oi = dae.node_index(out).unwrap();
        let wanted = sol.amplitude(oi, &[-1, 1]); // lower sideband
        let image = sol.amplitude(oi, &[1, 1]);
        let carrier = sol.amplitude(oi, &[0, 1]);
        // Wanted sideband ≈ 1 V (SSB sum of both multipliers).
        assert!((wanted - 1.0).abs() < 0.05, "wanted = {wanted}");
        // Image at ≈ ε/2 relative → ≈ −35 dBc.
        let image_dbc = 20.0 * (image / wanted).log10();
        assert!((image_dbc + 35.0).abs() < 1.5, "image at {image_dbc} dBc");
        // Carrier leak ≈ −78 dBc.
        let leak_dbc = 20.0 * (carrier / wanted).log10();
        assert!((leak_dbc + 78.0).abs() < 2.0, "leak at {leak_dbc} dBc");
    }

    #[test]
    fn mixer_matches_fig4_numbers() {
        // Scaled LO for test speed (ratio preserved via MMFT anyway).
        let spec = MixerSpec { f_rf: 1e5, f_lo: 9e8, ..Default::default() };
        let (dae, out) = switching_mixer(&spec);
        let opts = rfsim::mpde::MmftOptions { slow_harmonics: 3, n2: 50, ..Default::default() };
        let sol = rfsim::mpde::solve_mmft(&dae, spec.f_rf, spec.f_lo, &opts).unwrap();
        let oi = dae.node_index(out).unwrap();
        let main = sol.mix_amplitude(oi, 1, 1);
        let hd3 = sol.mix_amplitude(oi, 3, 1);
        // Paper: "amplitude of 60 mV" at 900.1 MHz and "about 1.1 mV" at
        // 900.3 MHz, "distortion … about 35 dB below".
        assert!((main - 0.060).abs() < 0.008, "main = {main}");
        let ratio_db = 20.0 * (main / hd3).log10();
        assert!((ratio_db - 35.0).abs() < 4.0, "HD3 ratio = {ratio_db} dB");
    }
}
