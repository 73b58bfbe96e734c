//! Property-based tests on the circuit substrate: conservation laws and
//! linear-circuit theorems that must hold for any parameter values.

use proptest::prelude::*;
use rfsim_circuit::dae::{Dae, TwoTime};
use rfsim_circuit::prelude::*;
use rfsim_circuit::Circuit;
use rfsim_numerics::sparse::Triplets;

fn r_value() -> impl Strategy<Value = f64> {
    (1.0f64..1e5).prop_map(|x| x)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Voltage divider obeys the division formula for any resistor pair.
    #[test]
    fn divider_formula(r1 in r_value(), r2 in r_value(), v in -10.0f64..10.0) {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(VSource::dc("V1", a, Circuit::GROUND, v));
        ckt.add(Resistor::new("R1", a, b, r1));
        ckt.add(Resistor::new("R2", b, Circuit::GROUND, r2));
        let dae = ckt.into_dae().expect("netlist");
        let op = dc_operating_point(&dae, &DcOptions::default()).expect("dc");
        let expect = v * r2 / (r1 + r2);
        prop_assert!((op.voltage(b) - expect).abs() < 1e-9 * (1.0 + expect.abs()));
    }

    /// Superposition: response to two DC sources equals the sum of the
    /// responses to each alone (linear resistive network).
    #[test]
    fn superposition_holds(v1 in -5.0f64..5.0, v2 in -5.0f64..5.0,
                           r1 in r_value(), r2 in r_value(), r3 in r_value()) {
        let build = |va: f64, vb: f64| {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            let b = ckt.node("b");
            let m = ckt.node("m");
            ckt.add(VSource::dc("VA", a, Circuit::GROUND, va));
            ckt.add(VSource::dc("VB", b, Circuit::GROUND, vb));
            ckt.add(Resistor::new("R1", a, m, r1));
            ckt.add(Resistor::new("R2", b, m, r2));
            ckt.add(Resistor::new("R3", m, Circuit::GROUND, r3));
            let dae = ckt.into_dae().expect("netlist");
            let op = dc_operating_point(&dae, &DcOptions::default()).expect("dc");
            op.voltage(m)
        };
        let both = build(v1, v2);
        let first = build(v1, 0.0);
        let second = build(0.0, v2);
        prop_assert!((both - first - second).abs() < 1e-8 * (1.0 + both.abs()));
    }

    /// KCL: at the DC solution, f(x) − b sums to ~0 per node equation.
    #[test]
    fn kcl_residual_vanishes(r in r_value(), is in 1e-16f64..1e-12, v in 0.5f64..5.0) {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let d = ckt.node("d");
        ckt.add(VSource::dc("V1", a, Circuit::GROUND, v));
        ckt.add(Resistor::new("R1", a, d, r));
        ckt.add(Diode::new("D1", d, Circuit::GROUND, is));
        let dae = ckt.into_dae().expect("netlist");
        let op = dc_operating_point(&dae, &DcOptions::default()).expect("dc");
        let n = dae.dim();
        let mut f = vec![0.0; n];
        let mut q = vec![0.0; n];
        let mut g = Triplets::new(n, n);
        let mut c = Triplets::new(n, n);
        dae.eval(&op.x, &mut f, &mut q, &mut g, &mut c);
        let mut b = vec![0.0; n];
        dae.eval_b(TwoTime::uni(0.0), &mut b);
        for i in 0..n {
            prop_assert!((f[i] - b[i]).abs() < 1e-6, "residual {} at row {i}", f[i] - b[i]);
        }
    }

    /// Reciprocity of a resistive two-port: transfer resistance is
    /// symmetric (drive node 1, read node 2 ↔ drive 2, read 1).
    #[test]
    fn reciprocity(r1 in r_value(), r2 in r_value(), r3 in r_value(),
                   r4 in r_value(), r5 in r_value()) {
        let build = |drive_first: bool| {
            let mut ckt = Circuit::new();
            let n1 = ckt.node("n1");
            let n2 = ckt.node("n2");
            let m = ckt.node("m");
            ckt.add(Resistor::new("R1", n1, m, r1));
            ckt.add(Resistor::new("R2", m, n2, r2));
            ckt.add(Resistor::new("R3", m, Circuit::GROUND, r3));
            ckt.add(Resistor::new("R4", n1, Circuit::GROUND, r4));
            ckt.add(Resistor::new("R5", n2, Circuit::GROUND, r5));
            let (src, obs) = if drive_first { (n1, n2) } else { (n2, n1) };
            ckt.add(ISource::dc("I1", Circuit::GROUND, src, 1e-3));
            let dae = ckt.into_dae().expect("netlist");
            let op = dc_operating_point(&dae, &DcOptions::default()).expect("dc");
            op.voltage(obs)
        };
        let fwd = build(true);
        let rev = build(false);
        prop_assert!((fwd - rev).abs() < 1e-9 * (1.0 + fwd.abs()), "{fwd} vs {rev}");
    }

    /// Transient of a source-free RC decays monotonically and never goes
    /// negative from a positive initial state (passivity).
    #[test]
    fn rc_decay_is_monotone(r in 10.0f64..1e4, c in 1e-12f64..1e-9) {
        let mut ckt = Circuit::new();
        let n = ckt.node("n");
        // Charge via a pulse that ends at t = tau/10.
        let tau = r * c;
        ckt.add(ISource::new(
            "I1",
            Circuit::GROUND,
            n,
            Stimulus::Pulse {
                low: 0.0,
                high: 1e-3,
                delay: 0.0,
                rise: tau / 100.0,
                fall: tau / 100.0,
                width: tau / 10.0,
                period: 1e9,
                scale: TimeScale::Slow,
            },
        ));
        ckt.add(Resistor::new("R1", n, Circuit::GROUND, r));
        ckt.add(Capacitor::new("C1", n, Circuit::GROUND, c));
        let dae = ckt.into_dae().expect("netlist");
        let res = transient(
            &dae,
            0.0,
            3.0 * tau,
            &TranOptions { dt: tau / 50.0, start_from_dc: false, ..Default::default() },
        )
        .expect("transient");
        let v = res.unknown(0);
        // After the pulse ends, the waveform decays monotonically.
        let start = v.len() / 3;
        for w in v[start..].windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-9, "non-monotone decay: {} -> {}", w[0], w[1]);
        }
        prop_assert!(v.iter().all(|&x| x >= -1e-9));
    }

    /// Engineering-notation parser roundtrip for generated values.
    #[test]
    fn parser_value_roundtrip(mant in 0.1f64..999.0, suffix in 0usize..7) {
        let (sfx, mult) = [("", 1.0), ("k", 1e3), ("meg", 1e6), ("m", 1e-3),
                          ("u", 1e-6), ("n", 1e-9), ("p", 1e-12)][suffix];
        let text = format!("{mant}{sfx}");
        let parsed = rfsim_circuit::parser::parse_value(&text).expect("parse");
        let expect = mant * mult;
        prop_assert!((parsed - expect).abs() < 1e-9 * expect.abs());
    }

    /// The Maxwell-style MNA conductance matrix at any operating point has
    /// zero column sums over node equations for floating (ground-free)
    /// resistive elements — charge conservation in stamp form.
    #[test]
    fn stamp_column_sums(r1 in r_value(), r2 in r_value()) {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        let c_node = ckt.node("c");
        ckt.add(Resistor::new("R1", a, b, r1));
        ckt.add(Resistor::new("R2", b, c_node, r2));
        // Keep the matrix nonsingular for the builder but do not ground
        // the resistive chain itself.
        ckt.add(ISource::dc("I1", Circuit::GROUND, a, 0.0));
        let dae = ckt.into_dae().expect("netlist");
        let (g, _) = dae.linearize(&vec![0.0; dae.dim()]);
        // Each column of the floating-resistor network sums to zero over
        // the three node rows.
        for j in 0..3 {
            let col_sum: f64 = (0..3).map(|i| g.get(i, j)).sum();
            prop_assert!(col_sum.abs() < 1e-12, "column {j} sums to {col_sum}");
        }
    }
}

/// What fuzzed netlist lines are made of, whitespace-separated: every
/// card letter, nodes, good and bad values, parameters and flags in and
/// out of each card's set, waveform fragments, dot-cards and non-ASCII
/// text.
const NETLIST_TOKENS: &str =
    "R1 C1 L1 V1 I1 D1 Q1 M1 G1 E1 F1 H1 X1 q * ; .end .END .ends .tran . \
    a b out 0 gnd 1k 2.2u 3meg -1 0.5 1e999 abc nan infinity k DC dc SIN(0 1 1k) SINFAST( \
    SQUARE(1 1meg) PULSE(0 ( ) )( SIN) (( IS=1e-14 IS=0 IS=-1 IS=abc IS= = =1 N=2 BF=50 \
    BFF=1 VTO=0.5 KP=2m LAMBDA=0.01 PNP PMOS pnp FOO é Ré \u{0}";

/// Up to 8 lines of up to 8 tokens each.
fn token_netlist() -> impl Strategy<Value = String> {
    let vocab: Vec<&str> = NETLIST_TOKENS.split_whitespace().collect();
    proptest::collection::vec(proptest::collection::vec(0..vocab.len(), 0..8), 1..8).prop_map(
        move |lines| {
            let line =
                |ids: &Vec<usize>| ids.iter().map(|&i| vocab[i]).collect::<Vec<_>>().join(" ");
            lines.iter().map(line).collect::<Vec<_>>().join("\n")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Any line of netlist tokens parses or fails with a parse error on
    /// one of its lines; the parser never panics.
    #[test]
    fn parse_netlist_never_panics(text in token_netlist()) {
        match rfsim_circuit::parser::parse_netlist(&text) {
            Ok(_) => {}
            Err(rfsim_circuit::Error::Parse { line, .. }) => {
                prop_assert!((1..=text.lines().count()).contains(&line), "line {line} in {text:?}");
            }
            Err(other) => prop_assert!(false, "{text:?}: unexpected error {other:?}"),
        }
    }
}
