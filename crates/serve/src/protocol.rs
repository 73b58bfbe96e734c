//! Request/response vocabulary of the service (DESIGN.md §13.2).
//!
//! One frame carries one JSON object. Requests name an `op` and an
//! optional numeric `id` the server echoes back, so clients can
//! pipeline. Every reply is either `{"ok":true,...}` with the result
//! and the per-job telemetry artifact, or `{"ok":false,"error":{...}}`
//! with a machine-readable `kind` — malformed input never kills the
//! server, it produces `bad_request`.

use rfsim_em::inductor::SpiralInductor;
use rfsim_telemetry::Json;

/// Ceiling on `sleep` requests so a hostile client cannot park a
/// worker forever.
pub const MAX_SLEEP_MS: u64 = 60_000;

/// A parsed request plus its client-chosen correlation id.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Echoed verbatim in the response (absent → echoed as null).
    pub id: Option<f64>,
    /// The operation.
    pub req: Request,
}

/// Service operations.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered inline, never queued.
    Ping,
    /// Queue/cache/counter introspection; answered inline.
    Stats,
    /// Full metrics snapshot (counters, gauges, quantile histograms)
    /// plus a Prometheus text rendering; answered inline.
    Metrics,
    /// Flight-recorder dump: the last N request records; answered
    /// inline.
    Dump,
    /// Deliberately panics the worker that picks it up. Exists to test
    /// the panic containment and automatic flight-recorder dump; the
    /// worker survives and the client gets a `solver` error.
    Panic,
    /// Asks the server to stop accepting work and drain.
    Shutdown,
    /// Occupies a worker for `ms` milliseconds. Exists for the
    /// backpressure tests: a deterministic way to saturate the pool.
    Sleep {
        /// Hold time, capped at [`MAX_SLEEP_MS`].
        ms: u64,
    },
    /// Harmonic-balance solve of a registry circuit.
    Hb(HbJob),
    /// Spiral-inductor extraction at one frequency.
    Extract(ExtractJob),
}

/// Harmonic-balance job parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct HbJob {
    /// Registry circuit name: `rectifier`, `clipper`, or `lowpass`.
    pub circuit: String,
    /// Drive fundamental (Hz).
    pub f0: f64,
    /// Harmonics per side of the spectral grid.
    pub harmonics: usize,
    /// Drive amplitude (V).
    pub amp: f64,
}

impl HbJob {
    /// Warm-cache key. Amplitude is deliberately excluded: a resident
    /// sweep warm-starts nearby amplitudes and falls back to a cold
    /// solve on its own if the guess is too far — that reuse is the
    /// point of the cache.
    pub fn cache_key(&self) -> String {
        format!("hb:{}:{:016x}:{}", self.circuit, self.f0.to_bits(), self.harmonics)
    }
}

/// Extraction job parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractJob {
    /// Spiral geometry and materials.
    pub geometry: SpiralInductor,
    /// MoM panels per trace segment.
    pub panels_per_seg: usize,
    /// Quadrature points per segment for mutual inductances.
    pub nq: usize,
    /// GMRES relative tolerance. Defaults tight (1e-12) so warm and
    /// cold answers agree to the 1e-10 the integration tests demand.
    pub tol: f64,
    /// Extraction frequency (Hz).
    pub freq: f64,
}

impl ExtractJob {
    /// Warm-cache key: FNV-1a over the exact bit patterns of every
    /// build input (geometry, discretization, tolerance). Frequency is
    /// excluded — one resident extractor serves the whole sweep, which
    /// is exactly the nearby-frequency reuse the service sells.
    pub fn cache_key(&self) -> String {
        let g = &self.geometry;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for v in [g.outer, g.width, g.spacing, g.thickness, g.sigma, g.oxide, g.eps_ox, g.rho_sub] {
            mix(v.to_bits());
        }
        mix(g.turns as u64);
        mix(self.panels_per_seg as u64);
        mix(self.nq as u64);
        mix(self.tol.to_bits());
        format!("em:{h:016x}")
    }
}

/// Machine-readable error category of a failed request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Unparseable or invalid request; the connection stays up.
    BadRequest,
    /// Admission control rejected the job: the queue is full.
    Overloaded,
    /// The server is draining; no new work is accepted.
    ShuttingDown,
    /// The solver itself failed (divergence, bad geometry).
    Solver,
}

impl ErrorKind {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Solver => "solver",
        }
    }
}

fn id_json(id: Option<f64>) -> Json {
    id.map_or(Json::Null, Json::Num)
}

/// Builds a success response.
pub fn ok_response(id: Option<f64>, op: &str, warm: bool, result: Json, telemetry: Json) -> Json {
    Json::obj([
        ("ok", Json::Bool(true)),
        ("id", id_json(id)),
        ("op", Json::Str(op.to_string())),
        ("warm", Json::Bool(warm)),
        ("result", result),
        ("telemetry", telemetry),
    ])
}

/// Builds a structured error response.
pub fn error_response(id: Option<f64>, kind: ErrorKind, message: &str) -> Json {
    Json::obj([
        ("ok", Json::Bool(false)),
        ("id", id_json(id)),
        (
            "error",
            Json::obj([
                ("kind", Json::Str(kind.as_str().to_string())),
                ("message", Json::Str(message.to_string())),
            ]),
        ),
    ])
}

fn finite(v: &Json, what: &str) -> Result<f64, String> {
    let x = v.as_f64().ok_or_else(|| format!("{what} must be a number"))?;
    if x.is_finite() {
        Ok(x)
    } else {
        Err(format!("{what} must be finite"))
    }
}

fn positive(v: &Json, what: &str) -> Result<f64, String> {
    let x = finite(v, what)?;
    if x > 0.0 {
        Ok(x)
    } else {
        Err(format!("{what} must be positive"))
    }
}

fn count(v: &Json, what: &str, max: usize) -> Result<usize, String> {
    let x = finite(v, what)?;
    if x.fract() != 0.0 || x < 1.0 || x > max as f64 {
        return Err(format!("{what} must be an integer in 1..={max}"));
    }
    Ok(x as usize)
}

fn count_or(v: Option<&Json>, what: &str, max: usize, default: usize) -> Result<usize, String> {
    v.map_or(Ok(default), |v| count(v, what, max))
}

fn positive_or(v: Option<&Json>, what: &str, default: f64) -> Result<f64, String> {
    v.map_or(Ok(default), |v| positive(v, what))
}

fn parse_geometry(v: Option<&Json>) -> Result<SpiralInductor, String> {
    let d = SpiralInductor::default();
    let Some(v) = v else { return Ok(d) };
    if !matches!(v, Json::Obj(_)) {
        return Err("geometry must be an object".into());
    }
    Ok(SpiralInductor {
        outer: positive_or(v.get("outer"), "geometry.outer", d.outer)?,
        turns: count_or(v.get("turns"), "geometry.turns", 16, d.turns)?,
        width: positive_or(v.get("width"), "geometry.width", d.width)?,
        spacing: positive_or(v.get("spacing"), "geometry.spacing", d.spacing)?,
        thickness: positive_or(v.get("thickness"), "geometry.thickness", d.thickness)?,
        sigma: positive_or(v.get("sigma"), "geometry.sigma", d.sigma)?,
        oxide: positive_or(v.get("oxide"), "geometry.oxide", d.oxide)?,
        eps_ox: positive_or(v.get("eps_ox"), "geometry.eps_ox", d.eps_ox)?,
        rho_sub: positive_or(v.get("rho_sub"), "geometry.rho_sub", d.rho_sub)?,
    })
}

/// Parses one request frame, already decoded from JSON.
///
/// # Errors
/// A human-readable message destined for a `bad_request` response.
pub fn parse_request(v: &Json) -> Result<Envelope, String> {
    if !matches!(v, Json::Obj(_)) {
        return Err("request must be a JSON object".into());
    }
    let id = match v.get("id") {
        None | Some(Json::Null) => None,
        Some(other) => Some(finite(other, "id")?),
    };
    let op = v.get("op").ok_or("missing \"op\"")?.as_str().ok_or("\"op\" must be a string")?;
    let req = match op {
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "dump" => Request::Dump,
        "panic" => Request::Panic,
        "shutdown" => Request::Shutdown,
        "sleep" => {
            let ms = finite(v.get("ms").ok_or("sleep: missing \"ms\"")?, "ms")?;
            if !(0.0..=MAX_SLEEP_MS as f64).contains(&ms) || ms.fract() != 0.0 {
                return Err(format!("ms must be an integer in 0..={MAX_SLEEP_MS}"));
            }
            Request::Sleep { ms: ms as u64 }
        }
        "hb" => {
            let circuit = v
                .get("circuit")
                .ok_or("hb: missing \"circuit\"")?
                .as_str()
                .ok_or("\"circuit\" must be a string")?
                .to_string();
            Request::Hb(HbJob {
                circuit,
                f0: positive(v.get("f0").ok_or("hb: missing \"f0\"")?, "f0")?,
                harmonics: count_or(v.get("harmonics"), "harmonics", 64, 7)?,
                amp: positive_or(v.get("amp"), "amp", 1.0)?,
            })
        }
        "extract" => Request::Extract(ExtractJob {
            geometry: parse_geometry(v.get("geometry"))?,
            panels_per_seg: count_or(v.get("panels_per_seg"), "panels_per_seg", 8, 2)?,
            nq: count_or(v.get("nq"), "nq", 16, 4)?,
            tol: positive_or(v.get("tol"), "tol", 1e-12)?,
            freq: positive(v.get("freq").ok_or("extract: missing \"freq\"")?, "freq")?,
        }),
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok(Envelope { id, req })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_and_full_requests() {
        let v = Json::parse(r#"{"op":"ping","id":7}"#).unwrap();
        let env = parse_request(&v).unwrap();
        assert_eq!(env.id, Some(7.0));
        assert_eq!(env.req, Request::Ping);

        let v =
            Json::parse(r#"{"op":"hb","circuit":"rectifier","f0":1e6,"harmonics":5,"amp":0.8}"#)
                .unwrap();
        let Request::Hb(job) = parse_request(&v).unwrap().req else { panic!("not hb") };
        assert_eq!(job.harmonics, 5);
        assert_eq!(job.cache_key(), "hb:rectifier:412e848000000000:5");
    }

    #[test]
    fn rejects_bad_fields_with_messages() {
        for text in [
            r#"[1,2,3]"#,
            r#"{"op":"warp"}"#,
            r#"{"op":"hb","circuit":"rectifier","f0":-1}"#,
            r#"{"op":"hb","circuit":"rectifier"}"#,
            r#"{"op":"sleep","ms":1e9}"#,
            r#"{"op":"extract","freq":1e9,"geometry":{"turns":0}}"#,
        ] {
            let v = Json::parse(text).unwrap();
            assert!(parse_request(&v).is_err(), "accepted {text}");
        }
    }

    #[test]
    fn extract_key_ignores_frequency_but_not_geometry() {
        let base = ExtractJob {
            geometry: SpiralInductor::default(),
            panels_per_seg: 2,
            nq: 4,
            tol: 1e-12,
            freq: 1e9,
        };
        let nearby = ExtractJob { freq: 1.1e9, ..base.clone() };
        assert_eq!(base.cache_key(), nearby.cache_key());
        let mut other = base.clone();
        other.geometry.turns = 5;
        assert_ne!(base.cache_key(), other.cache_key());
    }
}
