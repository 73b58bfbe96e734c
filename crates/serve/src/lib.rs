#![warn(missing_docs)]
//! `rfsim-serve` — the persistent simulation service (DESIGN.md §13).
//!
//! The paper's economics are about *reuse*: FFT plans, factored HB
//! preconditioner blocks, compressed IES³ operators, and Krylov
//! recycle spaces all cost far more to build than to apply. A batch
//! process throws that state away at exit; this crate keeps it alive.
//! A daemon accepts simulation and extraction jobs over TCP
//! (length-prefixed JSON frames), schedules them on a bounded worker
//! pool with explicit admission control, and holds warm solver state
//! resident across requests under an LRU byte budget — so the second
//! job for a circuit or geometry, or a nearby frequency point, is
//! dramatically cheaper than the first. Every job's response embeds a
//! telemetry artifact in the `rfsim-observe` schema whose counters
//! (`fft.plan_hits`, `krylov.warm_starts`, `serve.cache.*`) prove
//! which layers of warm state it hit.
//!
//! ```no_run
//! use rfsim_serve::{Client, Server, ServerConfig};
//! use rfsim_telemetry::Json;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let server = Server::spawn(ServerConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//! let reply = client.call(&Json::parse(
//!     r#"{"op":"hb","id":1,"circuit":"rectifier","f0":1e6,"harmonics":7}"#,
//! )?)?;
//! assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod client;
pub mod engine;
pub mod observability;
pub mod protocol;
pub mod scheduler;
pub mod server;
pub mod wire;

pub use cache::{CacheStats, CacheWeight, WarmCache};
pub use client::{Client, ClientError};
pub use engine::{Engine, JobOutcome, CIRCUITS};
pub use observability::{AccessLog, FlightRecorder, RequestRecord};
pub use protocol::{
    error_response, ok_response, parse_request, Envelope, ErrorKind, ExtractJob, HbJob, Request,
};
pub use scheduler::{Reject, Scheduler, SchedulerStats};
pub use server::{Server, ServerConfig};
pub use wire::{read_frame, write_frame, FrameError, MAX_FRAME_BYTES, MAX_JSON_DEPTH};
