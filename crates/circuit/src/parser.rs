//! A SPICE-like netlist text parser.
//!
//! Supported card subset (case-insensitive, `*`/`;` comments, `.end`):
//!
//! ```text
//! R<name> n+ n- <value>
//! C<name> n+ n- <value>
//! L<name> n+ n- <value>
//! V<name> n+ n- DC <v> | SIN(<off> <amp> <freq>) | SINFAST(<off> <amp> <freq>)
//!                      | SQUARE(<amp> <freq>) | PULSE(<lo> <hi> <td> <tr> <tf> <pw> <per>)
//! I<name> n+ n- DC <v> | SIN(<off> <amp> <freq>)
//! D<name> a c [IS=<v>] [N=<v>]
//! Q<name> c b e [IS=<v>] [BF=<v>] [PNP]
//! M<name> d g s [VTO=<v>] [KP=<v>] [LAMBDA=<v>] [PMOS]
//! G<name> out+ out- in+ in- <gm>
//! E<name> out+ out- in+ in- <gain>
//! F<name> out+ out- sense+ sense- <gain>      (CCCS, internal 0 V sense)
//! H<name> out+ out- sense+ sense- <r_trans>   (CCVS, internal 0 V sense)
//! ```
//!
//! Values accept the usual engineering suffixes (`f p n u m k meg g t`).
//! Parsing is strict: a malformed value, a value its device cannot take
//! (R/C/L or diode `IS`/`N` not positive), a parameter or flag outside
//! its card's set, a stray token, or any dot-card other than `.end` is a
//! line-numbered [`Error::Parse`], never a silent default or a panic.

use crate::devices::{
    Bjt, Capacitor, Cccs, Ccvs, Diode, ISource, Inductor, Mosfet, Resistor, VSource, Vccs, Vcvs,
};
use crate::netlist::Circuit;
use crate::waveform::{Stimulus, TimeScale};
use crate::{Error, Result};

/// Parses an engineering-notation value such as `1k`, `2.2u`, `3meg`.
///
/// # Errors
/// Returns a message naming the offending token.
pub fn parse_value(tok: &str) -> std::result::Result<f64, String> {
    let t = tok.trim().to_ascii_lowercase();
    let (mult, stripped) = if let Some(s) = t.strip_suffix("meg") {
        (1e6, s)
    } else if let Some(s) = t.strip_suffix('f') {
        (1e-15, s)
    } else if let Some(s) = t.strip_suffix('p') {
        (1e-12, s)
    } else if let Some(s) = t.strip_suffix('n') {
        (1e-9, s)
    } else if let Some(s) = t.strip_suffix('u') {
        (1e-6, s)
    } else if let Some(s) = t.strip_suffix('m') {
        (1e-3, s)
    } else if let Some(s) = t.strip_suffix('k') {
        (1e3, s)
    } else if let Some(s) = t.strip_suffix('g') {
        (1e9, s)
    } else if let Some(s) = t.strip_suffix('t') {
        (1e12, s)
    } else {
        (1.0, t.as_str())
    };
    match stripped.parse::<f64>().map(|v| v * mult) {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(format!("cannot parse value `{tok}`")),
    }
}

/// A card's `KEY=VAL` parameters and bare flags, lowercased.
struct Params {
    values: Vec<(String, f64)>,
    flags: Vec<String>,
}

impl Params {
    fn get(&self, key: &str, default: f64) -> f64 {
        self.values.iter().find(|(k, _)| k == key).map_or(default, |(_, v)| *v)
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

/// Splits `KEY=VAL` parameter tokens and bare flags, accepting only the
/// card's `keys` (each at most once) and `flags`, all lowercase.
///
/// # Errors
/// Returns [`Error::Parse`] for an unparseable value, a repeated key, or
/// a key or flag outside the card's set.
fn split_params(tokens: &[&str], keys: &[&str], flags: &[&str], line: usize) -> Result<Params> {
    let err = |message: String| Error::Parse { line, message };
    let mut params = Params { values: Vec::new(), flags: Vec::new() };
    for t in tokens {
        if let Some((k, v)) = t.split_once('=') {
            let key = k.to_ascii_lowercase();
            if !keys.contains(&key.as_str()) {
                return Err(err(format!("unknown parameter `{k}` (expected {})", keys.join(", "))));
            }
            if params.values.iter().any(|(p, _)| *p == key) {
                return Err(err(format!("parameter `{k}` given twice")));
            }
            params.values.push((key, parse_value(v).map_err(err)?));
        } else {
            let flag = t.to_ascii_lowercase();
            if !flags.contains(&flag.as_str()) {
                return Err(err(format!("unknown flag `{t}`")));
            }
            params.flags.push(flag);
        }
    }
    Ok(params)
}

/// Checks that a fixed-form card has exactly `n` tokens.
fn expect_tokens(tokens: &[&str], n: usize, usage: &str, line: usize) -> Result<()> {
    let message = if tokens.len() < n {
        format!("need: {usage}")
    } else if let Some(extra) = tokens.get(n) {
        format!("unexpected `{extra}` after {usage}")
    } else {
        return Ok(());
    };
    Err(Error::Parse { line, message })
}

/// Parses a source specification (the tokens after the two node names):
/// `DC <v>`, a bare `<v>`, or one `KIND(<args>)` waveform.
fn parse_stimulus(tokens: &[&str], line: usize) -> Result<Stimulus> {
    let err = |message: &str| Error::Parse { line, message: message.into() };
    let value = |t: &str| parse_value(t).map_err(|message| Error::Parse { line, message });
    match tokens {
        [] => return Err(err("source needs a value")),
        [dc, v] if dc.eq_ignore_ascii_case("DC") => return Ok(Stimulus::Dc(value(v)?)),
        [dc, ..] if dc.eq_ignore_ascii_case("DC") => return Err(err("DC needs one value")),
        [v] if !v.contains('(') => return Ok(Stimulus::Dc(value(v)?)),
        _ => {}
    }
    let joined = tokens.join(" ");
    let open = joined.find('(').ok_or_else(|| err("expected DC <v>, <v> or KIND(args)"))?;
    let body = joined[open + 1..].strip_suffix(')').ok_or_else(|| err("missing ) at end"))?;
    let a: Vec<f64> = body.split_whitespace().map(value).collect::<Result<_>>()?;
    let kind = joined[..open].trim().to_ascii_uppercase();
    match (kind.as_str(), a.as_slice()) {
        ("SINFAST", &[off, amp, freq]) => Ok(Stimulus::sine_fast(off, amp, freq)),
        ("SINFAST", _) => Err(err("SINFAST(off amp freq)")),
        ("SIN", &[off, amp, freq]) => Ok(Stimulus::sine(off, amp, freq)),
        ("SIN", _) => Err(err("SIN(off amp freq)")),
        ("SQUARE", &[amp, freq]) => Ok(Stimulus::square_fast(amp, freq)),
        ("SQUARE", _) => Err(err("SQUARE(amp freq)")),
        ("PULSE", &[low, high, delay, rise, fall, width, period]) => Ok(Stimulus::Pulse {
            low,
            high,
            delay,
            rise,
            fall,
            width,
            period,
            scale: TimeScale::Slow,
        }),
        ("PULSE", _) => Err(err("PULSE(lo hi td tr tf pw per)")),
        _ => Err(Error::Parse { line, message: format!("unknown waveform `{kind}`") }),
    }
}

/// Parses a netlist text into a [`Circuit`].
///
/// # Errors
/// Returns [`Error::Parse`] with a line number on malformed input.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), rfsim_circuit::Error> {
/// let ckt = rfsim_circuit::parser::parse_netlist(
///     "* divider\n\
///      V1 in 0 DC 10\n\
///      R1 in out 3k\n\
///      R2 out 0 1k\n\
///      .end",
/// )?;
/// assert_eq!(ckt.device_count(), 3);
/// # Ok(())
/// # }
/// ```
pub fn parse_netlist(text: &str) -> Result<Circuit> {
    let mut ckt = Circuit::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('*') || trimmed.starts_with(';') {
            continue;
        }
        let tokens: Vec<&str> = trimmed.split_whitespace().collect();
        if tokens[0].starts_with('.') {
            if tokens[0].eq_ignore_ascii_case(".end") {
                break;
            }
            // Analyses are driven from code, so no other card applies.
            return Err(Error::Parse {
                line,
                message: format!("unsupported dot-card `{}`", tokens[0]),
            });
        }
        if tokens.len() < 3 {
            return Err(Error::Parse { line, message: "too few tokens".into() });
        }
        let name = tokens[0];
        let kind = name
            .chars()
            .next()
            .map(|c| c.to_ascii_uppercase())
            .ok_or(Error::Parse { line, message: "empty device name".into() })?;
        match kind {
            'R' | 'C' | 'L' => {
                expect_tokens(&tokens, 4, "name n+ n- value", line)?;
                let a = ckt.node(tokens[1]);
                let b = ckt.node(tokens[2]);
                let v = parse_value(tokens[3]).map_err(|message| Error::Parse { line, message })?;
                if v <= 0.0 {
                    return Err(Error::Parse { line, message: "value must be positive".into() });
                }
                match kind {
                    'R' => ckt.add(Resistor::new(name, a, b, v)),
                    'C' => ckt.add(Capacitor::new(name, a, b, v)),
                    _ => ckt.add(Inductor::new(name, a, b, v)),
                }
            }
            'V' | 'I' => {
                let a = ckt.node(tokens[1]);
                let b = ckt.node(tokens[2]);
                let stim = parse_stimulus(&tokens[3..], line)?;
                if kind == 'V' {
                    ckt.add(VSource::new(name, a, b, stim));
                } else {
                    ckt.add(ISource::new(name, a, b, stim));
                }
            }
            'D' => {
                let a = ckt.node(tokens[1]);
                let c = ckt.node(tokens[2]);
                let params = split_params(&tokens[3..], &["is", "n"], &[], line)?;
                let is = params.get("is", 1e-14);
                let n = params.get("n", 1.0);
                if is <= 0.0 || n <= 0.0 {
                    return Err(Error::Parse { line, message: "IS and N must be positive".into() });
                }
                ckt.add(Diode::new(name, a, c, is).with_ideality(n));
            }
            'Q' => {
                if tokens.len() < 4 {
                    return Err(Error::Parse { line, message: "need: name c b e".into() });
                }
                let c = ckt.node(tokens[1]);
                let b = ckt.node(tokens[2]);
                let e = ckt.node(tokens[3]);
                let params = split_params(&tokens[4..], &["is", "bf"], &["pnp"], line)?;
                let is = params.get("is", 1e-16);
                let bf = params.get("bf", 100.0);
                let q = if params.has("pnp") {
                    Bjt::pnp(name, c, b, e, is, bf)
                } else {
                    Bjt::npn(name, c, b, e, is, bf)
                };
                ckt.add(q);
            }
            'M' => {
                if tokens.len() < 4 {
                    return Err(Error::Parse { line, message: "need: name d g s".into() });
                }
                let d = ckt.node(tokens[1]);
                let g = ckt.node(tokens[2]);
                let s = ckt.node(tokens[3]);
                let params = split_params(&tokens[4..], &["vto", "kp", "lambda"], &["pmos"], line)?;
                let vto = params.get("vto", 0.7);
                let kp = params.get("kp", 1e-3);
                let lambda = params.get("lambda", 0.0);
                let m = if params.has("pmos") {
                    Mosfet::pmos(name, d, g, s, vto, kp)
                } else {
                    Mosfet::nmos(name, d, g, s, vto, kp)
                }
                .with_lambda(lambda);
                ckt.add(m);
            }
            'G' | 'E' | 'F' | 'H' => {
                expect_tokens(&tokens, 6, "name out+ out- ctl+ ctl- value", line)?;
                let op = ckt.node(tokens[1]);
                let on = ckt.node(tokens[2]);
                let ip = ckt.node(tokens[3]);
                let inn = ckt.node(tokens[4]);
                let v = parse_value(tokens[5]).map_err(|message| Error::Parse { line, message })?;
                match kind {
                    'G' => ckt.add(Vccs::new(name, op, on, ip, inn, v)),
                    'E' => ckt.add(Vcvs::new(name, op, on, ip, inn, v)),
                    'F' => ckt.add(Cccs::new(name, op, on, ip, inn, v)),
                    _ => ckt.add(Ccvs::new(name, op, on, ip, inn, v)),
                }
            }
            other => {
                return Err(Error::Parse {
                    line,
                    message: format!("unknown device type `{other}`"),
                });
            }
        }
    }
    Ok(ckt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn engineering_values() {
        assert_eq!(parse_value("1k").unwrap(), 1e3);
        assert!((parse_value("2.5u").unwrap() - 2.5e-6).abs() < 1e-18);
        assert_eq!(parse_value("3meg").unwrap(), 3e6);
        assert_eq!(parse_value("100").unwrap(), 100.0);
        assert_eq!(parse_value("1.5p").unwrap(), 1.5e-12);
        assert!(parse_value("abc").is_err());
    }

    #[test]
    fn divider_parses_and_solves() {
        let ckt = parse_netlist(
            "* comment line\n\
             V1 in 0 DC 10\n\
             R1 in out 3k\n\
             R2 out 0 1k\n\
             .end\n\
             R3 ignored 0 1k",
        )
        .unwrap();
        let out = ckt.find_node("out").unwrap();
        let dae = ckt.into_dae().unwrap();
        let op = dc_operating_point(&dae, &DcOptions::default()).unwrap();
        assert!((op.voltage(out) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn sin_source_and_devices() {
        let ckt = parse_netlist(
            "V1 a 0 SIN(0 1 1meg)\n\
             VLO b 0 SINFAST(0 1 1g)\n\
             D1 a d IS=1e-15\n\
             Q1 c b2 e IS=1e-16 BF=50\n\
             M1 dd gg ss VTO=0.5 KP=2m\n\
             G1 o 0 a 0 1m\n\
             E1 p 0 a 0 2\n\
             F1 q 0 a 0 3\n\
             H1 r 0 a 0 50\n\
             C1 d 0 1p\n\
             L1 e 0 1n",
        )
        .unwrap();
        assert_eq!(ckt.device_count(), 11);
    }

    #[test]
    fn current_controlled_sources_parse_and_solve() {
        let ckt = parse_netlist(
            "I1 0 s DC 1m\n\
             F1 0 o s 0 2\n\
             RL o 0 1k",
        )
        .unwrap();
        let o = ckt.find_node("o").unwrap();
        let dae = ckt.into_dae().unwrap();
        let op = dc_operating_point(&dae, &DcOptions::default()).unwrap();
        assert!((op.voltage(o) - 2.0).abs() < 1e-9, "v_o = {}", op.voltage(o));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_netlist("V1 a 0 DC 1\nXBAD a b c").unwrap_err();
        match err {
            Error::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    /// The line and message of the parse error `text` must produce.
    fn parse_error(text: &str) -> (usize, String) {
        match parse_netlist(text) {
            Err(Error::Parse { line, message }) => (line, message),
            other => panic!("{text:?}: expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn source_without_value_is_an_error() {
        assert_eq!(parse_error("R1 a 0 1k\nV1 a 0").0, 2);
        assert_eq!(parse_error("I1 a 0 DC").0, 1);
    }

    #[test]
    fn parameters_outside_the_card_set_are_errors() {
        for (card, needle) in [
            ("D1 a 0 IS=abc", "abc"),
            ("D1 a 0 IS=0", "positive"),
            ("D1 a 0 IS=1e-14 is=2e-14", "twice"),
            ("Q1 c b e BFF=120", "BFF"),
            ("Q1 c b e NPN", "NPN"),
            ("M1 d g s FOO", "FOO"),
            ("M1 d g s VTO=0.5 BF=2", "BF"),
        ] {
            let (line, message) = parse_error(&format!("V1 a 0 DC 1\n{card}"));
            assert_eq!(line, 2, "{card}");
            assert!(message.contains(needle), "{card}: {message}");
        }
    }

    #[test]
    fn dot_cards_other_than_end_are_errors() {
        let (line, message) = parse_error("V1 a 0 DC 1\n.tran 1n 1u\nR1 a 0 1k");
        assert_eq!(line, 2);
        assert!(message.contains(".tran"), "{message}");
        assert_eq!(parse_netlist("R1 a 0 1k\n.END\n.tran 1n 1u").unwrap().device_count(), 1);
    }

    #[test]
    fn malformed_cards_are_errors() {
        for card in [
            "R1 a 0 1k 2k",
            "R1 a 0 1e999",
            "R1 a 0 0",
            "C1 a 0 -1p",
            "G1 o 0 a 0 1m x",
            "V1 a 0 DC 1 2",
            "V1 a 0 1 2",
            "V1 a 0 SIN(0 1 1k) x",
            "V1 a 0 SIN)0 1 1k(",
            "V1 a 0 SIN(0 1)",
            "V1 a 0 SAW(0 1 1k)",
        ] {
            assert_eq!(parse_error(&format!("* header\n{card}")).0, 2, "{card}");
        }
    }
}
