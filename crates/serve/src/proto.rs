//! Wire protocol for distributed serve: length-prefixed frames over
//! loopback TCP.
//!
//! The cluster subsystem (`crates/cluster`) runs one scheduler process
//! and N worker processes; everything they say to each other — and what
//! clients say to the scheduler — travels as [`Message`] frames:
//!
//! ```text
//! +----------------+----------------------------+
//! | u32 big-endian |  JSON-encoded Message      |
//! |  payload len   |  (exactly `len` bytes)     |
//! +----------------+----------------------------+
//! ```
//!
//! The codec lives in `serve` (not `cluster`) because the payload types
//! are this crate's: a forwarded request is a [`QueryRequest`] and a
//! reply is a [`QueryReply`] — the same `Result<QueryResponse,
//! QueryError>` an in-process caller gets from
//! [`ServiceHandle::query`](crate::ServiceHandle::query). One process
//! and N processes literally share the response type, which is what
//! makes the byte-identical-outcomes pin meaningful, and it lets
//! `serve-loadgen` drive a remote scheduler without depending on the
//! cluster crate.
//!
//! Framing choices:
//!
//! * **Length prefix, not delimiters** — payloads are JSON with
//!   arbitrary string content; a delimiter would need escaping.
//! * **JSON payloads** — human-inspectable (`tcpdump` shows readable
//!   frames), reuses the vendored serde stack, and the protocol is not
//!   the bottleneck (a request costs hundreds of µs of translate+execute
//!   against single-digit µs of codec).
//! * **Bounded frames** — a reader rejects frames over [`MAX_FRAME`]
//!   bytes instead of allocating attacker-controlled sizes. Loopback
//!   only, but the bound also catches a desynced stream early.

use crate::{QueryReply, QueryRequest};
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on one frame's payload. A serialized request or response
/// is a few hundred bytes; a megabyte of headroom keeps pathological SQL
/// strings servable while still refusing a desynced or hostile length.
pub const MAX_FRAME: usize = 1 << 20;

/// Everything that travels between cluster processes.
///
/// Directionality:
/// * client → scheduler: [`Submit`](Message::Submit)
/// * scheduler → client: [`SubmitResult`](Message::SubmitResult)
/// * worker → scheduler: [`Register`](Message::Register),
///   [`Heartbeat`](Message::Heartbeat)
/// * scheduler → worker: [`Execute`](Message::Execute)
/// * worker → scheduler: [`ExecuteResult`](Message::ExecuteResult)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// A worker introducing itself on a fresh control connection. The
    /// scheduler dials `serve_addr` (a loopback `host:port` string) to
    /// forward work.
    Register {
        /// Stable worker identity; re-registration under the same id
        /// replaces the previous incarnation.
        worker_id: String,
        /// Where this worker accepts [`Message::Execute`] connections.
        serve_addr: String,
        /// Methods the worker serves (scheduler-side validation only;
        /// every worker currently serves the full method set).
        methods: Vec<String>,
    },
    /// Periodic liveness + admission report on the control connection.
    Heartbeat {
        /// Must match the `Register` on this connection.
        worker_id: String,
        /// Whether the worker's `/readyz` would answer 200 right now.
        ready: bool,
        /// The `/readyz` failure body when not ready ("draining: ...",
        /// "saturated: queue 230/256 >= 90% threshold"); the scheduler's
        /// reaper logs the last one seen when it evicts the worker.
        reason: Option<String>,
        /// Requests queued inside the worker's own admission queue.
        queue_depth: u64,
        /// Requests the worker has completed since it started.
        completed: u64,
    },
    /// Scheduler → worker: run this request and answer with the same id.
    Execute {
        /// Scheduler-assigned id, unique per in-flight request per
        /// connection; echoed back in [`Message::ExecuteResult`].
        id: u64,
        /// The request, exactly as an in-process caller would submit it.
        request: QueryRequest,
    },
    /// Worker → scheduler: the outcome for [`Message::Execute`] `id`.
    ExecuteResult {
        /// Echo of the `Execute` id.
        id: u64,
        /// The reply, byte-identical to what the worker's in-process
        /// handle produced.
        reply: QueryReply,
        /// The worker-side spans of this request's trace, when the
        /// forwarded request carried a trace context and the worker runs
        /// with tracing on; the scheduler merges them into its own store
        /// so one trace spans both processes. Empty (and absent on the
        /// wire from pre-tracing workers) otherwise.
        #[serde(default)]
        spans: Vec<crate::SpanRecord>,
    },
    /// Client → scheduler: serve this request somewhere.
    Submit {
        /// Client-assigned id; replies on a connection may arrive out of
        /// submission order and are matched by id.
        id: u64,
        /// The request to route.
        request: QueryRequest,
    },
    /// Scheduler → client: the outcome for [`Message::Submit`] `id`.
    SubmitResult {
        /// Echo of the `Submit` id.
        id: u64,
        /// The routed reply.
        reply: QueryReply,
    },
}

/// Write one frame. Not atomic against interleaved writers — callers
/// serialize writes per stream (the cluster holds one writer per
/// connection or a mutex around the stream).
pub fn write_frame(stream: &mut impl Write, msg: &Message) -> io::Result<()> {
    let payload = serde_json::to_string(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("encode frame: {e}")))?;
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {} bytes exceeds MAX_FRAME", bytes.len()),
        ));
    }
    stream.write_all(&(bytes.len() as u32).to_be_bytes())?;
    stream.write_all(bytes)?;
    stream.flush()
}

/// Read one frame. `Err(UnexpectedEof)` with an empty partial read means
/// the peer closed cleanly between frames; any other error means a torn
/// frame or a desynced stream.
pub fn read_frame(stream: &mut impl Read) -> io::Result<Message> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME (desynced stream?)"),
        ));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    let text = std::str::from_utf8(&payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("frame not UTF-8: {e}")))?;
    serde_json::from_str(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("decode frame: {e}")))
}

/// Blocking client for one scheduler connection: submit requests, match
/// replies by id. Used by `serve-loadgen --endpoints` and the cluster
/// tests; one instance is NOT thread-safe (wrap it per client thread,
/// the way loadgen's closed-loop clients each own one).
pub struct ClusterClient {
    stream: TcpStream,
    next_id: u64,
}

impl ClusterClient {
    /// Connect to a scheduler's client port.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<ClusterClient> {
        let parsed: std::net::SocketAddr = addr
            .parse()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("{addr}: {e}")))?;
        let stream = TcpStream::connect_timeout(&parsed, timeout)?;
        stream.set_nodelay(true)?;
        Ok(ClusterClient { stream, next_id: 0 })
    }

    /// Bound how long one blocking reply read may take. `None` waits
    /// forever.
    pub fn set_reply_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Send a request without waiting; returns the assigned id.
    pub fn submit(&mut self, request: QueryRequest) -> io::Result<u64> {
        self.next_id += 1;
        let id = self.next_id;
        write_frame(&mut self.stream, &Message::Submit { id, request })?;
        Ok(id)
    }

    /// Block for the next reply frame, whatever request it answers.
    pub fn next_reply(&mut self) -> io::Result<(u64, QueryReply)> {
        match read_frame(&mut self.stream)? {
            Message::SubmitResult { id, reply } => Ok((id, reply)),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected SubmitResult, got {other:?}"),
            )),
        }
    }

    /// Closed-loop convenience: submit and block for its reply (panics
    /// only on protocol violation — an id mismatch with one in flight).
    pub fn query(&mut self, request: QueryRequest) -> io::Result<QueryReply> {
        let id = self.submit(request)?;
        let (got, reply) = self.next_reply()?;
        if got != id {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reply id {got} for in-flight id {id}"),
            ));
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QueryError, QueryResponse};
    use nl2sql360::ExecFailureKind;

    fn roundtrip(msg: &Message) -> Message {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg).expect("writes");
        // length prefix says exactly what follows
        let len = u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize;
        assert_eq!(len, buf.len() - 4);
        read_frame(&mut &buf[..]).expect("reads")
    }

    fn request() -> QueryRequest {
        QueryRequest {
            method: "C3SQL".into(),
            db_id: "concert_singer".into(),
            question: "How many singers are there?".into(),
            deadline: Some(Duration::from_millis(250)),
            trace: None,
        }
    }

    #[test]
    fn every_message_kind_roundtrips() {
        let ok_reply: QueryReply = Ok(QueryResponse {
            ex: true,
            em: false,
            pred_sql: "SELECT count(*) FROM singer".into(),
            pred_work: Some(42),
            exec_failure: None,
            cache_hit: true,
            batch_size: 3,
            latency: Duration::from_micros(1234),
            trace_id: "00000000000000ab".into(),
        });
        let failed_reply: QueryReply = Ok(QueryResponse {
            ex: false,
            pred_work: None,
            exec_failure: Some(ExecFailureKind::UnknownColumn),
            ..ok_reply.clone().unwrap()
        });
        let err_reply: QueryReply =
            Err(QueryError::StaticRejected(vec!["unknown-column".into()]));
        let traced_request = QueryRequest {
            trace: Some(crate::TraceContext {
                trace_id: "00000000000000ab".into(),
                parent_span: 512_000_000_007,
            }),
            ..request()
        };
        let worker_spans = vec![crate::SpanRecord {
            trace_id: "00000000000000ab".into(),
            span_id: 7_000_000_001,
            parent_id: 512_000_000_007,
            name: "request".into(),
            process: "w0".into(),
            start_us: 10,
            dur_us: 950,
            attrs: "outcome=ok batch=1".into(),
        }];
        let messages = [
            Message::Register {
                worker_id: "w0".into(),
                serve_addr: "127.0.0.1:4100".into(),
                methods: vec!["C3SQL".into(), "DINSQL".into()],
            },
            Message::Heartbeat {
                worker_id: "w0".into(),
                ready: false,
                reason: Some("saturated: queue 230/256 >= 90% threshold".into()),
                queue_depth: 230,
                completed: 10_411,
            },
            Message::Execute { id: 7, request: traced_request },
            Message::ExecuteResult { id: 7, reply: ok_reply, spans: worker_spans },
            Message::ExecuteResult { id: 8, reply: failed_reply, spans: Vec::new() },
            Message::Submit { id: 9, request: request() },
            Message::SubmitResult { id: 9, reply: err_reply },
        ];
        for msg in &messages {
            assert_eq!(&roundtrip(msg), msg);
        }
    }

    #[test]
    fn pre_tracing_frames_still_parse() {
        // an ExecuteResult written before the `spans` field existed
        let old = br#"{"ExecuteResult":{"id":3,"reply":{"Err":"Overloaded"}}}"#;
        let mut buf = Vec::new();
        buf.extend_from_slice(&(old.len() as u32).to_be_bytes());
        buf.extend_from_slice(old);
        let msg = read_frame(&mut &buf[..]).expect("old frame parses");
        assert_eq!(
            msg,
            Message::ExecuteResult {
                id: 3,
                reply: Err(QueryError::Overloaded),
                spans: Vec::new()
            }
        );
        // a request without a trace context parses with trace = None
        let old_req = br#"{"Submit":{"id":1,"request":{"method":"C3SQL","db_id":"d","question":"q","deadline":null}}}"#;
        let mut buf = Vec::new();
        buf.extend_from_slice(&(old_req.len() as u32).to_be_bytes());
        buf.extend_from_slice(old_req);
        let Message::Submit { request, .. } = read_frame(&mut &buf[..]).expect("parses") else {
            panic!("expected Submit");
        };
        assert_eq!(request.trace, None);
    }

    #[test]
    fn frames_concatenate_and_stream() {
        let mut buf = Vec::new();
        let a = Message::Submit { id: 1, request: request() };
        let b = Message::Heartbeat {
            worker_id: "w1".into(),
            ready: true,
            reason: None,
            queue_depth: 0,
            completed: 0,
        };
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();
        let mut reader = &buf[..];
        assert_eq!(read_frame(&mut reader).unwrap(), a);
        assert_eq!(read_frame(&mut reader).unwrap(), b);
        // clean EOF between frames
        assert_eq!(
            read_frame(&mut reader).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversized_and_torn_frames_are_rejected() {
        // a length prefix past the bound is refused before allocating
        let mut huge = Vec::new();
        huge.extend_from_slice(&((MAX_FRAME as u32) + 1).to_be_bytes());
        huge.extend_from_slice(b"xxxx");
        assert_eq!(
            read_frame(&mut &huge[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // a torn frame (length promises more than the stream holds)
        let mut torn = Vec::new();
        write_frame(&mut torn, &Message::Submit { id: 1, request: request() }).unwrap();
        torn.truncate(torn.len() - 3);
        assert_eq!(
            read_frame(&mut &torn[..]).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        // garbage payload of the promised length
        let mut garbage = Vec::new();
        garbage.extend_from_slice(&4u32.to_be_bytes());
        garbage.extend_from_slice(b"!!!!");
        assert_eq!(
            read_frame(&mut &garbage[..]).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
        // the largest frame, all of it nesting: the decoder's depth bound
        // refuses it where unbounded recursion would overflow this thread's
        // stack and abort the scheduler or worker that read it
        let mut deep = Vec::new();
        deep.extend_from_slice(&(MAX_FRAME as u32).to_be_bytes());
        deep.extend_from_slice("[".repeat(MAX_FRAME).as_bytes());
        let err = read_frame(&mut &deep[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
    }
}
