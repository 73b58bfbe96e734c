//! Wire-protocol robustness battery (ISSUE 7 satellite): the frame
//! codec and the server's frame handling must never panic on
//! malformed, truncated, oversized, or arbitrarily interleaved input —
//! every failure is a structured error response, and the connection
//! either survives or closes cleanly.

use proptest::prelude::*;
use rfsim_serve::wire::{depth_within, read_frame, FrameError, MAX_FRAME_BYTES, MAX_JSON_DEPTH};
use rfsim_serve::{Client, Server, ServerConfig};
use rfsim_telemetry::Json;
use std::io::Read;
use std::sync::OnceLock;

/// One server shared by every connection-level case in this binary —
/// robustness cases must not poison it for each other, which is itself
/// part of what is under test.
fn server_addr() -> std::net::SocketAddr {
    static SERVER: OnceLock<Server> = OnceLock::new();
    SERVER
        .get_or_init(|| {
            Server::spawn(ServerConfig { queue_capacity: 8, workers: 1, ..Default::default() })
                .expect("spawn shared test server")
        })
        .addr()
}

/// Arbitrary bytes, `range` long (the vendored proptest has no
/// inclusive u8 range strategy, hence the u16 detour).
fn bytes(range: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u16..256, range)
        .prop_map(|v| v.into_iter().map(|x| x as u8).collect())
}

fn frame_bytes(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut wire = Vec::new();
    for p in payloads {
        rfsim_serve::write_frame(&mut wire, p).unwrap();
    }
    wire
}

/// `data` split at up to two fractions, read back through `Read::chain`
/// so each chunk arrives on reads of its own, as socket segments do;
/// `chain` skips empty chunks instead of reading them as an early EOF.
fn chunked<'a>(data: &'a [u8], cuts: &[f64]) -> impl Read + 'a {
    let mut at: Vec<usize> = cuts.iter().map(|f| ((data.len() as f64) * f) as usize).collect();
    at.resize(2, data.len());
    at.sort_unstable();
    let (head, rest) = data.split_at(at[0]);
    let (mid, tail) = rest.split_at(at[1] - at[0]);
    head.chain(mid).chain(tail)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Reading arbitrary garbage in arbitrary chunkings never panics:
    /// `read_frame` yields frames until a clean EOF or a typed error,
    /// and a first prefix over the limit is `Oversized`.
    #[test]
    fn decoder_never_panics_on_garbage(
        data in bytes(0..512),
        cuts in proptest::collection::vec(0.0f64..1.0, 0..3),
    ) {
        let mut r = chunked(&data, &cuts);
        if data.len() >= 4
            && u32::from_be_bytes([data[0], data[1], data[2], data[3]]) as usize > MAX_FRAME_BYTES
        {
            prop_assert!(matches!(read_frame(&mut r), Err(FrameError::Oversized { .. })));
            return Ok(());
        }
        // Drain until a clean EOF or a typed failure; a panic is the bug.
        while let Ok(Some(frame)) = read_frame(&mut r) {
            prop_assert!(frame.len() <= MAX_FRAME_BYTES);
        }
    }

    /// Well-formed frames survive any chunking exactly.
    #[test]
    fn decoder_recovers_frames_across_any_chunking(
        payloads in proptest::collection::vec(bytes(0..64), 1..5),
        cuts in proptest::collection::vec(0.0f64..1.0, 0..3),
    ) {
        let wire = frame_bytes(&payloads);
        let mut r = chunked(&wire, &cuts);
        let mut got = Vec::new();
        while let Some(frame) = read_frame(&mut r).unwrap() {
            got.push(frame);
        }
        prop_assert_eq!(got, payloads);
    }

    /// A stream cut anywhere inside a frame is `Truncated`, never a
    /// frame and never a panic.
    #[test]
    fn decoder_reports_truncation(
        payload in bytes(1..64),
        keep in 0.0f64..1.0,
    ) {
        let wire = frame_bytes(std::slice::from_ref(&payload));
        let cut = 1 + ((wire.len() - 1) as f64 * keep) as usize;
        let mut r = &wire[..cut.min(wire.len() - 1)];
        prop_assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated)));
    }

    /// The depth guard never panics and never under-counts: anything it
    /// passes is safe for the recursive parser.
    #[test]
    fn depth_guard_never_panics(data in bytes(0..256)) {
        let _ = depth_within(&data, MAX_JSON_DEPTH);
    }

    #[test]
    fn depth_guard_rejects_deep_nesting(depth in 65usize..600) {
        let mut s = "[".repeat(depth);
        s.push_str(&"]".repeat(depth));
        prop_assert!(!depth_within(s.as_bytes(), MAX_JSON_DEPTH));
        prop_assert!(depth_within(&s.as_bytes()[..MAX_JSON_DEPTH], MAX_JSON_DEPTH));
    }

    /// Live-server fuzz: a frame of arbitrary bytes gets a structured
    /// reply (almost always `bad_request`) and the connection keeps
    /// working — a ping afterwards still answers.
    #[test]
    fn server_answers_garbage_with_structured_errors(
        data in bytes(0..128),
    ) {
        let mut client = Client::connect(server_addr()).unwrap();
        client.send_raw(&data).unwrap();
        let reply = client.recv().unwrap();
        prop_assert!(matches!(reply.get("ok"), Some(Json::Bool(_))));
        if reply.get("ok") == Some(&Json::Bool(false)) {
            let kind = reply.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
            prop_assert!(kind.is_some(), "error reply must carry a kind");
        }
        // The connection survived: a ping still round-trips.
        let pong = client.call(&Json::parse(r#"{"op":"ping"}"#).unwrap()).unwrap();
        prop_assert_eq!(pong.get("ok"), Some(&Json::Bool(true)));
    }
}

#[test]
fn deeply_nested_json_is_rejected_not_overflowed() {
    let mut client = Client::connect(server_addr()).unwrap();
    let depth = 100_000; // would overflow the stack if it reached Json::parse
    let mut req = "[".repeat(depth);
    req.push_str(&"]".repeat(depth));
    client.send_raw(req.as_bytes()).unwrap();
    let reply = client.recv().unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
    let kind = reply.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
    assert_eq!(kind, Some("bad_request"));
}

#[test]
fn oversized_frame_gets_error_then_clean_close() {
    let addr = server_addr();
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    use std::io::Write;
    // Announce an impossible frame; never send the body.
    stream.write_all(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes()).unwrap();
    stream.flush().unwrap();
    let reply = rfsim_serve::read_frame(&mut stream).unwrap().expect("error reply");
    let v = Json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
    assert_eq!(v.get("ok"), Some(&Json::Bool(false)));
    // The server closes the connection afterwards: clean EOF.
    assert!(rfsim_serve::read_frame(&mut stream).unwrap().is_none());
}

#[test]
fn malformed_requests_all_get_bad_request_and_survive() {
    let mut client = Client::connect(server_addr()).unwrap();
    for bad in [
        &b"\xff\xfe not utf8"[..],
        b"",
        b"{\"op\":",
        b"42",
        b"[1,2,3]",
        b"{\"op\":\"warp\"}",
        b"{\"op\":\"hb\"}",
        b"{\"op\":\"hb\",\"circuit\":\"rectifier\",\"f0\":\"fast\"}",
        b"{\"op\":\"sleep\",\"ms\":-3}",
        b"{\"op\":\"extract\"}",
    ] {
        client.send_raw(bad).unwrap();
        let reply = client.recv().unwrap();
        assert_eq!(
            reply.get("ok"),
            Some(&Json::Bool(false)),
            "payload {:?} must be refused",
            String::from_utf8_lossy(bad)
        );
        let kind = reply.get("error").and_then(|e| e.get("kind")).and_then(Json::as_str);
        assert_eq!(kind, Some("bad_request"));
    }
    // After the whole gauntlet the connection still does real work.
    let reply = client
        .call(
            &Json::parse(r#"{"op":"hb","id":9,"circuit":"lowpass","f0":1e6,"harmonics":3}"#)
                .unwrap(),
        )
        .unwrap();
    assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
    assert_eq!(reply.get("id").and_then(Json::as_f64), Some(9.0));
}
