//! The framed wire protocol (DESIGN.md §13.1).
//!
//! Every message — request or response — is one frame: a little-endian
//! `u32` payload length followed by that many bytes of UTF-8 text. The
//! text payload is HTTP-shaped but deliberately not HTTP:
//!
//! ```text
//! PARHDE/1 LAYOUT          PARHDE/1 200 ok
//! graph: gen:grid:30:30    n: 900
//! deadline-ms: 2000        rung: full
//!                          cache: cold
//! <optional body>          <coordinate CSV body>
//! ```
//!
//! A `u32` length prefix capped at [`MAX_FRAME`] keeps a hostile or
//! corrupted peer from inducing an unbounded allocation, and framing
//! (rather than delimiter scanning) means a slow or truncated write is
//! detected as a short read, never misparsed as a smaller message.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Hard cap on one frame's payload: large enough for a multi-million-edge
/// inline edge list or coordinate set, small enough that a hostile length
/// prefix cannot exhaust memory.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Protocol identifier opening every message.
pub const PROTO: &str = "PARHDE/1";

/// Success.
pub const OK: u16 = 200;
/// Malformed request, unparseable graph, or a graph the pipeline rejects.
pub const BAD_REQUEST: u16 = 400;
/// The request's deadline elapsed before a worker could start it.
pub const TIMEOUT: u16 = 408;
/// The request can never fit the server's total memory budget, or its
/// reply would exceed one frame.
pub const TOO_LARGE: u16 = 413;
/// Overloaded: the queue or the shared memory budget is full *right now*;
/// retry after the hinted backoff.
pub const OVERLOADED: u16 = 429;
/// The client disconnected while its request was in flight.
pub const CANCELLED: u16 = 499;
/// An internal error the typed error layer classifies as a bug.
pub const INTERNAL: u16 = 500;
/// The daemon is draining and accepts no new work.
pub const DRAINING: u16 = 503;

/// Writes one frame.
///
/// # Errors
/// Propagates I/O errors; rejects payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large")
        })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame, enforcing [`MAX_FRAME`] *before* allocating.
///
/// # Errors
/// Propagates I/O errors (including `UnexpectedEof` on truncation) and
/// rejects oversized length prefixes as `InvalidData`.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// Staged deadlines for [`read_frame_staged`] (DESIGN.md §16.2).
///
/// A keep-alive connection has two distinct waiting regimes: *idle*
/// (between frames — nothing has arrived, waiting is normal and cheap)
/// and *mid-frame* (the first byte of a length prefix has arrived — the
/// peer owes us a whole frame). The old flat
/// `set_read_timeout(2s)` + `read_exact` conflated them: each received
/// byte reset the clock, so a byte-dripping client could hold a worker
/// forever at one byte per 2 s. Here the frame clock starts at the first
/// byte and never resets.
#[derive(Clone, Copy, Debug)]
pub struct ReadBudget {
    /// How long to wait for the *first byte* of the next frame.
    pub idle: Duration,
    /// Wall-clock budget for one whole frame (prefix + payload), counted
    /// from its first byte.
    pub frame: Duration,
}

/// Why [`read_frame_staged`] returned without a frame.
#[derive(Debug)]
pub enum FrameError {
    /// No byte arrived within the idle budget. Close quietly.
    Idle,
    /// The abort condition (drain) became true while idle. Close quietly.
    Aborted,
    /// Clean EOF on a frame boundary. Close quietly.
    Eof,
    /// EOF after the frame started: the peer died mid-frame.
    TruncatedEof,
    /// The frame's first byte arrived but the whole frame did not land
    /// within the frame budget (byte-dripping or a stalled peer).
    Timeout,
    /// The length prefix exceeds [`MAX_FRAME`]; payload never allocated.
    TooLarge(u32),
    /// A real transport error.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Idle => write!(f, "idle timeout waiting for next frame"),
            FrameError::Aborted => write!(f, "aborted while idle"),
            FrameError::Eof => write!(f, "clean EOF on frame boundary"),
            FrameError::TruncatedEof => write!(f, "EOF mid-frame"),
            FrameError::Timeout => write!(f, "frame budget exhausted mid-frame"),
            FrameError::TooLarge(len) => {
                write!(f, "frame length {len} exceeds cap {MAX_FRAME}")
            }
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

/// Granularity of the poll loop inside [`read_frame_staged`]. Small
/// enough that drain aborts and deadline checks stay responsive, large
/// enough that an idle connection costs a handful of syscalls per second.
const POLL_SLICE: Duration = Duration::from_millis(100);

/// One bounded poll: sets the stream's read timeout to the remaining
/// slice and reads whatever is available. Returns the byte count.
fn poll_read(
    stream: &TcpStream,
    buf: &mut [u8],
    budget: &ReadBudget,
    idle_start: Instant,
    frame_start: Option<Instant>,
    abort: &impl Fn() -> bool,
) -> Result<usize, FrameError> {
    loop {
        // Recompute the governing deadline every slice: the regime flips
        // from idle to frame once the first byte lands, and the frame
        // clock must never reset on progress.
        let remaining = match frame_start {
            None => budget
                .idle
                .checked_sub(idle_start.elapsed())
                .ok_or(FrameError::Idle)?,
            Some(t0) => budget
                .frame
                .checked_sub(t0.elapsed())
                .ok_or(FrameError::Timeout)?,
        };
        // set_read_timeout rejects zero; clamp the slice to ≥ 1 ms. This
        // must be (re)set before every read: the disconnect watchdog's
        // `try_clone` shares the file description, so its 1 ms probe
        // timeout would otherwise stick to this stream.
        let slice = remaining.min(POLL_SLICE).max(Duration::from_millis(1));
        stream.set_read_timeout(Some(slice)).map_err(FrameError::Io)?;
        match Read::read(&mut { stream }, buf) {
            Ok(0) => {
                return Err(match frame_start {
                    None => FrameError::Eof,
                    Some(_) => FrameError::TruncatedEof,
                })
            }
            Ok(n) => return Ok(n),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                // Abort is checked only after an *empty* slice: bytes the
                // peer already sent always win over the abort condition,
                // so a draining server still reads — and answers — a
                // request that was fully buffered before drain began.
                if frame_start.is_none() && abort() {
                    return Err(FrameError::Aborted);
                }
                continue;
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
}

/// Reads one frame under staged deadlines (DESIGN.md §16.2).
///
/// Waits up to `budget.idle` for the first byte; from that byte on, the
/// entire frame must land within `budget.frame` of wall clock — progress
/// does not extend the deadline, which is what defeats byte-dripping
/// (slowloris) clients. `abort` is polled (≈ every [`POLL_SLICE`]) only
/// while idle, so a draining server reclaims parked keep-alive workers
/// promptly but still finishes — and answers — a frame already in
/// flight.
///
/// On success returns the payload and the instant the frame's first byte
/// arrived, which the server uses as the queue-admission timestamp for
/// pipelined requests.
///
/// # Errors
/// A typed [`FrameError`]; `Idle`, `Aborted`, and `Eof` are the quiet
/// close paths of a healthy keep-alive connection.
pub fn read_frame_staged(
    stream: &TcpStream,
    budget: &ReadBudget,
    abort: impl Fn() -> bool,
) -> Result<(Vec<u8>, Instant), FrameError> {
    let idle_start = Instant::now();
    let mut frame_start: Option<Instant> = None;
    let mut prefix = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        let n = poll_read(stream, &mut prefix[got..], budget, idle_start, frame_start, &abort)?;
        if frame_start.is_none() {
            frame_start = Some(Instant::now());
        }
        got += n;
    }
    let t0 = frame_start.unwrap_or(idle_start);
    let len = u32::from_le_bytes(prefix);
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    let mut got = 0usize;
    while got < payload.len() {
        let n = poll_read(
            stream,
            &mut payload[got..],
            budget,
            idle_start,
            frame_start,
            &abort,
        )?;
        got += n;
    }
    Ok((payload, t0))
}

/// Operations a client can request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Lay out a graph.
    Layout,
    /// Health probe; never queued, never sheds.
    Ping,
    /// Telemetry scrape: a metrics-registry snapshot (Prometheus text by
    /// default, NDJSON with `format: ndjson`). Never waits for a layout.
    Stats,
}

/// A parsed request frame.
#[derive(Clone, Debug)]
pub struct Request {
    /// The requested operation.
    pub op: Op,
    /// Header key–value pairs, keys lowercased.
    pub headers: Vec<(String, String)>,
    /// Everything after the blank line (inline graph text for `LAYOUT`).
    pub body: String,
}

impl Request {
    /// A bare request with no headers or body.
    pub fn new(op: Op) -> Self {
        Request { op, headers: Vec::new(), body: String::new() }
    }

    /// Appends a header.
    pub fn with(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.headers.push((key.to_ascii_lowercase(), value.to_string()));
        self
    }

    /// First value of `key`, if present.
    pub fn header(&self, key: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Encodes the request payload.
    pub fn encode(&self) -> Vec<u8> {
        let op = match self.op {
            Op::Layout => "LAYOUT",
            Op::Ping => "PING",
            Op::Stats => "STATS",
        };
        let mut out = format!("{PROTO} {op}\n");
        for (k, v) in &self.headers {
            out.push_str(&format!("{k}: {v}\n"));
        }
        out.push('\n');
        out.push_str(&self.body);
        out.into_bytes()
    }

    /// Parses a request payload.
    ///
    /// # Errors
    /// A description of the first structural violation.
    pub fn parse(payload: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("not UTF-8: {e}"))?;
        let (head, body) = split_head(text);
        let mut lines = head.lines();
        let first = lines.next().ok_or("empty request")?;
        let mut words = first.split_whitespace();
        if words.next() != Some(PROTO) {
            return Err(format!("unknown protocol in {first:?}"));
        }
        let op = match words.next() {
            Some("LAYOUT") => Op::Layout,
            Some("PING") => Op::Ping,
            Some("STATS") => Op::Stats,
            other => return Err(format!("unknown op {other:?}")),
        };
        let headers = parse_headers(lines)?;
        Ok(Request { op, headers, body: body.to_string() })
    }
}

/// A parsed response frame.
#[derive(Clone, Debug)]
pub struct Response {
    /// Status code (HTTP-flavored, see this module's constants).
    pub code: u16,
    /// Short human-readable reason.
    pub reason: String,
    /// Header key–value pairs, keys lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body (coordinate CSV on success, empty otherwise).
    pub body: String,
}

impl Response {
    /// A response with the given status and reason.
    pub fn new(code: u16, reason: &str) -> Self {
        Response {
            code,
            reason: reason.to_string(),
            headers: Vec::new(),
            body: String::new(),
        }
    }

    /// Appends a header.
    pub fn with(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.headers.push((key.to_ascii_lowercase(), value.to_string()));
        self
    }

    /// First value of `key`, if present.
    pub fn header(&self, key: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Whether the status code is 200.
    pub fn is_ok(&self) -> bool {
        self.code == OK
    }

    /// The status line, the headers and the blank line before the body.
    fn head(&self) -> String {
        let mut out = format!("{PROTO} {} {}\n", self.code, self.reason);
        for (k, v) in &self.headers {
            out.push_str(&format!("{k}: {v}\n"));
        }
        out.push('\n');
        out
    }

    /// Bytes of the encoded payload: the head, then the body.
    pub(crate) fn payload_len(&self) -> usize {
        self.head().len() + self.body.len()
    }

    /// Encodes the response as one frame, length prefix included, into a
    /// buffer of exactly the frame's size: the body is copied once.
    ///
    /// # Errors
    /// The payload's length, when it exceeds [`MAX_FRAME`].
    pub fn encode_frame(&self) -> Result<Vec<u8>, usize> {
        let head = self.head();
        let len = head.len() + self.body.len();
        let prefix = u32::try_from(len)
            .ok()
            .filter(|&l| l <= MAX_FRAME)
            .ok_or(len)?;
        let mut frame = Vec::with_capacity(4 + len);
        frame.extend_from_slice(&prefix.to_le_bytes());
        frame.extend_from_slice(head.as_bytes());
        frame.extend_from_slice(self.body.as_bytes());
        Ok(frame)
    }

    /// Parses a response payload.
    ///
    /// # Errors
    /// A description of the first structural violation.
    pub fn parse(payload: &[u8]) -> Result<Response, String> {
        let text = std::str::from_utf8(payload).map_err(|e| format!("not UTF-8: {e}"))?;
        let (head, body) = split_head(text);
        let mut lines = head.lines();
        let first = lines.next().ok_or("empty response")?;
        let mut words = first.split_whitespace();
        if words.next() != Some(PROTO) {
            return Err(format!("unknown protocol in {first:?}"));
        }
        let code: u16 = words
            .next()
            .and_then(|w| w.parse().ok())
            .ok_or_else(|| format!("bad status line {first:?}"))?;
        let reason = words.collect::<Vec<_>>().join(" ");
        let headers = parse_headers(lines)?;
        Ok(Response { code, reason, headers, body: body.to_string() })
    }
}

/// Splits a text payload at the first blank line into (head, body).
fn split_head(text: &str) -> (&str, &str) {
    match text.find("\n\n") {
        Some(i) => (&text[..i], &text[i + 2..]),
        None => (text, ""),
    }
}

fn parse_headers<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<Vec<(String, String)>, String> {
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (k, v) = line.split_once(':').ok_or_else(|| format!("bad header {line:?}"))?;
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }
    Ok(headers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::new(Op::Layout)
            .with("graph", "gen:grid:4:5")
            .with("Deadline-Ms", 250)
            .with("subspace", 8);
        let parsed = Request::parse(&req.encode()).unwrap();
        assert_eq!(parsed.op, Op::Layout);
        assert_eq!(parsed.header("graph"), Some("gen:grid:4:5"));
        assert_eq!(parsed.header("deadline-ms"), Some("250"));
        assert_eq!(parsed.body, "");
    }

    #[test]
    fn request_with_body_roundtrip() {
        let mut req = Request::new(Op::Layout).with("graph", "inline");
        req.body = "0 1\n1 2\n2 0\n".into();
        let parsed = Request::parse(&req.encode()).unwrap();
        assert_eq!(parsed.body, "0 1\n1 2\n2 0\n");
    }

    #[test]
    fn stats_roundtrip() {
        let req = Request::new(Op::Stats).with("format", "ndjson");
        let parsed = Request::parse(&req.encode()).unwrap();
        assert_eq!(parsed.op, Op::Stats);
        assert_eq!(parsed.header("format"), Some("ndjson"));
    }

    #[test]
    fn response_roundtrip() {
        let mut resp = Response::new(OK, "ok").with("n", 9).with("rung", "full");
        resp.body = "0,1\n2,3\n".into();
        let frame = resp.encode_frame().unwrap();
        // One exact-size buffer: the prefix, then the payload.
        assert_eq!(frame.len(), frame.capacity());
        assert_eq!(frame.len(), 4 + resp.payload_len());
        let parsed = Response::parse(&read_frame(&mut frame.as_slice()).unwrap()).unwrap();
        assert!(parsed.is_ok());
        assert_eq!(parsed.header("n"), Some("9"));
        assert_eq!(parsed.body, "0,1\n2,3\n");
    }

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        assert_eq!(read_frame(&mut buf.as_slice()).unwrap(), b"hello");

        // A hostile length prefix is rejected before allocation.
        let evil = (MAX_FRAME + 1).to_le_bytes();
        let err = read_frame(&mut evil.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frames_are_short_reads() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"truncate me").unwrap();
        let cut = &buf[..buf.len() - 3];
        let err = read_frame(&mut &cut[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn garbage_parses_to_typed_errors() {
        assert!(Request::parse(b"HTTP/1.1 GET /").is_err());
        assert!(Request::parse(b"PARHDE/1 FROBNICATE\n\n").is_err());
        assert!(Response::parse(b"PARHDE/1 notanumber ok\n\n").is_err());
        assert!(Request::parse(&[0xff, 0xfe, 0x00]).is_err());
    }

    #[test]
    fn zero_length_frame_reads_but_parses_to_typed_error() {
        // A 0-byte payload is a legal *frame* (the prefix is honest) but
        // an illegal *request*: it must surface as a parse error the
        // server answers with 400, never as a panic or a hang.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"").unwrap();
        assert_eq!(buf, vec![0, 0, 0, 0]);
        let payload = read_frame(&mut buf.as_slice()).unwrap();
        assert!(payload.is_empty());
        assert!(Request::parse(&payload).unwrap_err().contains("empty request"));
    }

    #[test]
    fn frame_cap_is_exact_at_the_boundary() {
        // Exactly MAX_FRAME is accepted; MAX_FRAME + 1 is rejected
        // before the payload allocation.
        let head = MAX_FRAME.to_le_bytes();
        let mut r = head.chain(std::io::repeat(0x2a).take(u64::from(MAX_FRAME)));
        let payload = read_frame(&mut r).unwrap();
        assert_eq!(payload.len(), MAX_FRAME as usize);
        assert_eq!(payload[MAX_FRAME as usize - 1], 0x2a);
        drop(payload);

        let head = (MAX_FRAME + 1).to_le_bytes();
        let mut r = head.chain(std::io::repeat(0).take(u64::from(MAX_FRAME) + 1));
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    /// Loopback socket pair for the staged-reader tests.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn staged_read_reassembles_header_split_across_segments() {
        let (client, server) = socket_pair();
        let body = Request::new(Op::Ping).encode();
        let mut frame = Vec::new();
        write_frame(&mut frame, &body).unwrap();
        let writer = std::thread::spawn(move || {
            let mut c = &client;
            // Drip the length prefix two bytes at a time, then the
            // payload in two segments, with real gaps between writes.
            c.write_all(&frame[..2]).unwrap();
            std::thread::sleep(Duration::from_millis(40));
            c.write_all(&frame[2..4]).unwrap();
            std::thread::sleep(Duration::from_millis(40));
            let mid = 4 + (frame.len() - 4) / 2;
            c.write_all(&frame[4..mid]).unwrap();
            std::thread::sleep(Duration::from_millis(40));
            c.write_all(&frame[mid..]).unwrap();
        });
        let budget = ReadBudget {
            idle: Duration::from_secs(2),
            frame: Duration::from_secs(2),
        };
        let (payload, _t0) = read_frame_staged(&server, &budget, || false).unwrap();
        assert_eq!(payload, body);
        writer.join().unwrap();
    }

    #[test]
    fn staged_read_times_out_on_byte_drip_without_resetting() {
        let (client, server) = socket_pair();
        let writer = std::thread::spawn(move || {
            let mut c = &client;
            // One byte every 60 ms would satisfy a per-read timeout
            // forever; the whole-frame budget must still trip.
            for b in 0u8..20 {
                if c.write_all(&[b]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(60));
            }
        });
        let budget = ReadBudget {
            idle: Duration::from_secs(5),
            frame: Duration::from_millis(250),
        };
        let t0 = Instant::now();
        let err = read_frame_staged(&server, &budget, || false).unwrap_err();
        assert!(matches!(err, FrameError::Timeout), "got {err}");
        let elapsed = t0.elapsed();
        assert!(
            elapsed < Duration::from_secs(2),
            "budget must not reset per byte (took {elapsed:?})"
        );
        drop(server);
        writer.join().unwrap();
    }

    #[test]
    fn staged_read_idle_and_abort_paths() {
        let (_client, server) = socket_pair();
        let budget = ReadBudget {
            idle: Duration::from_millis(120),
            frame: Duration::from_secs(1),
        };
        let err = read_frame_staged(&server, &budget, || false).unwrap_err();
        assert!(matches!(err, FrameError::Idle), "got {err}");

        let long = ReadBudget { idle: Duration::from_secs(10), frame: Duration::from_secs(1) };
        let t0 = Instant::now();
        let err = read_frame_staged(&server, &long, || true).unwrap_err();
        assert!(matches!(err, FrameError::Aborted), "got {err}");
        assert!(t0.elapsed() < Duration::from_secs(2), "abort must be prompt");
    }

    #[test]
    fn staged_read_reports_clean_vs_truncated_eof() {
        let (client, server) = socket_pair();
        drop(client);
        let budget = ReadBudget {
            idle: Duration::from_secs(1),
            frame: Duration::from_secs(1),
        };
        let err = read_frame_staged(&server, &budget, || false).unwrap_err();
        assert!(matches!(err, FrameError::Eof), "got {err}");

        let (client, server) = socket_pair();
        {
            let mut c = &client;
            c.write_all(&[7, 0]).unwrap(); // half a length prefix
        }
        drop(client);
        let err = read_frame_staged(&server, &budget, || false).unwrap_err();
        assert!(matches!(err, FrameError::TruncatedEof), "got {err}");
    }

    #[test]
    fn staged_read_rejects_hostile_length_before_allocating() {
        let (client, server) = socket_pair();
        {
            let mut c = &client;
            c.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
        }
        let budget = ReadBudget {
            idle: Duration::from_secs(1),
            frame: Duration::from_secs(1),
        };
        let err = read_frame_staged(&server, &budget, || false).unwrap_err();
        assert!(matches!(err, FrameError::TooLarge(l) if l == MAX_FRAME + 1), "got {err}");
    }
}
