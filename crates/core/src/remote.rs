//! The `tawa-cached 1` wire protocol and its client — the **remote
//! tier** behind [`CompileSession`](crate::session::CompileSession).
//!
//! A fleet of sessions shares one `tawa-cached` daemon (see the
//! `tawa_cached` crate) fronting a fingerprint-sharded cache directory.
//! The protocol is deliberately in the same family as every other Tawa
//! serialization: versioned, line-oriented, content-addressed. Requests
//! are keyed by [`CacheKey`] (and the simulator's
//! [`COST_MODEL_VERSION`] for sim outcomes); payloads travel verbatim
//! in the existing `wsir 1` / `sim-report 1` text formats, framed by a
//! decimal byte count on the request or response line.
//!
//! ## Wire grammar
//!
//! ```text
//! greeting   := "tawa-cached 1\n"                      server → client, on accept
//! hello      := "tawa-cached 1\n"                      client → server, once per connection
//! request    := get-kernel | put-kernel | put-negative
//!             | get-sim | put-sim | stats | evict
//! get-kernel   := "get-kernel <module_fp> <env_fp>\n"
//! put-kernel   := "put-kernel <module_fp> <env_fp> <n>\n" <n bytes: wsir 1 text>
//! put-negative := "put-negative <module_fp> <env_fp> <n>\n" <n bytes: verdict text>
//! get-sim      := "get-sim <module_fp> <env_fp> <cost-model>\n"
//! put-sim      := "put-sim <module_fp> <env_fp> <cost-model> <n>\n" <n bytes: sim outcome>
//! stats        := "stats\n"
//! evict        := "evict <max-bytes>\n"
//!
//! response   := "kernel <n>\n" <n bytes>               get-kernel hit
//!             | "negative <n>\n" <n bytes>             get-kernel infeasibility hit
//!             | "sim <n>\n" <n bytes>                  get-sim hit
//!             | "miss\n"                               either get, no entry
//!             | "ok\n"                                 put accepted
//!             | "ok evicted=<n>\n"                     evict done
//!             | "stats <key>=<n> ...\n"                daemon counters
//!             | "err <quoted-message>\n"               request rejected
//! ```
//!
//! Fingerprints are 16-digit lowercase hex; byte counts are decimal and
//! capped at [`MAX_PAYLOAD_BYTES`]. A connection carries any number of
//! requests after the single hello exchange, and the client holds its
//! connections open across requests (see [`RemoteCache`]); either side
//! may close one between requests. Sim payloads are the
//! [`encode_sim_outcome`] body *without* the local tier's `cost-model`
//! header — the version rides on the request line instead, so a daemon
//! never serves an outcome priced by a different timing model.
//!
//! ## Degradation contract
//!
//! The client never fails a compile. Any transport error, version
//! mismatch or protocol violation latches the client down, warns once
//! on stderr, and every subsequent call becomes a cheap no-op — the
//! session quietly runs on its local tiers. All traffic is counted in
//! [`RemoteCacheStats`].

use std::fmt;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use gpu_sim::COST_MODEL_VERSION;
use tawa_wsir::doc::{quote, Doc, Line, Table, Writer};
use tawa_wsir::{deserialize_kernel, serialize_kernel, Kernel};

use crate::cache::{decode_sim_outcome, encode_sim_outcome, CacheKey, SimOutcome};
use crate::tier::{lock, KernelSlot, Tier};

/// Protocol name, echoed in both hello lines.
pub const REMOTE_PROTOCOL: &str = "tawa-cached";

/// Protocol version. Bump on any incompatible grammar change; a
/// mismatched peer is refused (server) or latched down (client).
pub const REMOTE_PROTOCOL_VERSION: u32 = 1;

/// Environment variable naming the daemon endpoint: a Unix-socket path,
/// or `tcp:host:port` for TCP (tests, cross-host fleets).
pub const REMOTE_CACHE_ENV: &str = "TAWA_CACHED";

/// Upper bound on a single framed payload. Far above any real kernel or
/// sim report; a length past this is a protocol violation, not an
/// allocation request.
pub const MAX_PAYLOAD_BYTES: u64 = 64 << 20;

/// Per-operation socket read/write timeout. A wedged daemon must stall
/// a compile by at most this long, once, before the client latches down;
/// a daemon closes a connection that stays idle this long between
/// requests.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// The hello/greeting line (without the trailing newline).
pub fn hello_line() -> String {
    format!("{REMOTE_PROTOCOL} {REMOTE_PROTOCOL_VERSION}")
}

/// Validates a peer's hello line against [`REMOTE_PROTOCOL`] /
/// [`REMOTE_PROTOCOL_VERSION`].
///
/// The hello is a document header — `<name> <version>` — and is checked
/// as one.
pub fn check_hello(line: &str) -> io::Result<()> {
    match Doc::open(line, REMOTE_PROTOCOL, REMOTE_PROTOCOL_VERSION) {
        Ok(_) => Ok(()),
        Err(_) => Err(protocol_err(format!(
            "expected {:?} hello, got {line:?}",
            hello_line()
        ))),
    }
}

/// Builds an [`io::Error`] for a protocol violation.
pub fn protocol_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads one `\n`-terminated line, returning `None` at a clean EOF.
/// The terminator (and a preceding `\r`, for telnet-style debugging)
/// is stripped.
pub fn read_line(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = String::new();
    // Guard against an unterminated flood: a line longer than any legal
    // request or status is a protocol violation.
    let mut limited = reader.take(4096);
    if limited.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    match line.pop() {
        Some('\n') => {
            if line.ends_with('\r') {
                line.pop();
            }
            Ok(Some(line))
        }
        _ => Err(protocol_err("unterminated line")),
    }
}

/// Reads an exactly-`len`-byte UTF-8 payload, refusing lengths past
/// [`MAX_PAYLOAD_BYTES`] before allocating.
pub fn read_payload(reader: &mut impl BufRead, len: u64) -> io::Result<String> {
    if len > MAX_PAYLOAD_BYTES {
        return Err(protocol_err(format!(
            "payload of {len} bytes exceeds the {MAX_PAYLOAD_BYTES}-byte cap"
        )));
    }
    let mut buf = vec![0u8; len as usize];
    reader.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| protocol_err("payload is not UTF-8"))
}

/// Where a `tawa-cached` daemon listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RemoteAddr {
    /// A Unix-domain socket path — the production default.
    Unix(PathBuf),
    /// A `host:port` TCP endpoint — tests and cross-host fleets.
    Tcp(String),
}

impl RemoteAddr {
    /// Parses the [`REMOTE_CACHE_ENV`] syntax: `tcp:host:port` is TCP,
    /// anything else is a Unix-socket path.
    pub fn parse(text: &str) -> RemoteAddr {
        match text.strip_prefix("tcp:") {
            Some(addr) => RemoteAddr::Tcp(addr.to_string()),
            None => RemoteAddr::Unix(PathBuf::from(text)),
        }
    }
}

impl fmt::Display for RemoteAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RemoteAddr::Unix(path) => write!(f, "{}", path.display()),
            RemoteAddr::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// A connected socket of either transport, as both ends of the protocol
/// hold it: the client dials one, the daemon accepts them.
pub trait Socket: Read + Write + Send {
    /// Bounds every read and write by [`IO_TIMEOUT`].
    fn set_timeouts(&self) -> io::Result<()>;
    /// A second handle on the same connection. The daemon keeps one per
    /// connection so that shutting down can close a connection whose
    /// handler is blocked reading it.
    fn duplicate(&self) -> io::Result<Box<dyn Socket>>;
    /// Shuts both directions down, best effort: the peer reads EOF even
    /// while a [`Socket::duplicate`] stays open, and a read blocked on
    /// any handle of the connection returns.
    fn close(&self);
}

impl Socket for UnixStream {
    fn set_timeouts(&self) -> io::Result<()> {
        self.set_read_timeout(Some(IO_TIMEOUT))?;
        self.set_write_timeout(Some(IO_TIMEOUT))
    }
    fn duplicate(&self) -> io::Result<Box<dyn Socket>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn close(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

impl Socket for TcpStream {
    fn set_timeouts(&self) -> io::Result<()> {
        self.set_read_timeout(Some(IO_TIMEOUT))?;
        self.set_write_timeout(Some(IO_TIMEOUT))
    }
    fn duplicate(&self) -> io::Result<Box<dyn Socket>> {
        Ok(Box::new(self.try_clone()?))
    }
    fn close(&self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

/// A dialled connection whose greeting has been checked, buffered for
/// reading.
type Conn = BufReader<Box<dyn Socket>>;

/// Connects to the daemon at `addr`, sets the timeouts and checks the
/// daemon's greeting. The client's hello rides on the first request.
fn dial(addr: &RemoteAddr) -> io::Result<Conn> {
    let socket: Box<dyn Socket> = match addr {
        RemoteAddr::Unix(path) => Box::new(UnixStream::connect(path)?),
        RemoteAddr::Tcp(addr) => Box::new(TcpStream::connect(addr.as_str())?),
    };
    socket.set_timeouts()?;
    let mut conn = BufReader::new(socket);
    let greeting = read_line(&mut conn)?.ok_or_else(|| protocol_err("closed before greeting"))?;
    check_hello(&greeting)?;
    Ok(conn)
}

/// Sends `out` (a request line and its payload) on `conn` and reads the
/// status line back. `Ok(None)` means the peer had closed the stream
/// before answering: EOF before any byte of a status line, a reset or a
/// broken pipe. A timeout or a torn line is an error.
fn request_status(conn: &mut Conn, out: &str) -> io::Result<Option<String>> {
    let sent = conn.get_mut().write_all(out.as_bytes());
    match sent
        .and_then(|()| conn.get_mut().flush())
        .and_then(|()| read_line(conn))
    {
        Err(e)
            if matches!(
                e.kind(),
                ErrorKind::BrokenPipe
                    | ErrorKind::ConnectionReset
                    | ErrorKind::ConnectionAborted
                    | ErrorKind::NotConnected
            ) =>
        {
            Ok(None)
        }
        other => other,
    }
}

crate::counters! {
    /// Client-side traffic counters for the remote tier. All monotone;
    /// the session folds them into
    /// [`CacheStats`](crate::session::CacheStats).
    pub struct RemoteCacheStats / RemoteCounters {
        counters {
            /// `get-kernel` requests answered with a kernel payload.
            kernel_hits,
            /// `get-kernel` requests answered with an infeasibility
            /// verdict.
            negative_hits,
            /// `get-sim` requests answered with a successful simulation
            /// report.
            sim_hits,
            /// `get-sim` requests answered with a cached failure or static
            /// rejection.
            sim_negative_hits,
            /// Get requests the daemon answered `miss`.
            misses,
            /// Put requests the daemon acknowledged.
            puts,
            /// Failed operations: transport errors, version mismatches,
            /// protocol violations, rejected puts.
            errors,
            /// Round trips attempted (every request that reached the
            /// wire, successful or not).
            roundtrips,
        }
        gauges {}
        nested {}
    }
}

impl RemoteCacheStats {
    /// Total hits across all four get classes.
    pub fn hits(&self) -> u64 {
        self.kernel_hits + self.negative_hits + self.sim_hits + self.sim_negative_hits
    }
}

/// One `stats` response from the daemon: aggregate [`DiskCacheStats`]
/// across the shards plus server-side connection accounting.
///
/// [`DiskCacheStats`]: crate::cache::DiskCacheStats
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Entries across all shards.
    pub entries: u64,
    /// Payload bytes across all shards.
    pub bytes: u64,
    /// Kernel hits served.
    pub hits: u64,
    /// Get requests that found no entry.
    pub misses: u64,
    /// Entries written (puts accepted).
    pub writes: u64,
    /// Infeasibility hits served.
    pub negative_hits: u64,
    /// Sim-report hits served.
    pub sim_hits: u64,
    /// Sim-failure / static-rejection hits served.
    pub sim_negative_hits: u64,
    /// Corrupt or stale entries deleted on read.
    pub invalidations: u64,
    /// Entries evicted by `evict`.
    pub evictions: u64,
    /// Always 0: there is no sweep log to fail. The field stays on the
    /// `tawa-cached 1` stats line so the wire format holds.
    pub sweep_log_errors: u64,
    /// Connections accepted since the daemon started.
    pub connections: u64,
    /// Requests served since the daemon started.
    pub requests: u64,
    /// Malformed requests and per-connection failures.
    pub errors: u64,
}

impl DaemonStats {
    /// Every wire field, in line order — the one list
    /// [`DaemonStats::to_line`] and [`DaemonStats::parse`] both walk.
    const FIELDS: &'static Table<DaemonStats> = &tawa_wsir::field_table!(DaemonStats {
        entries: U64,
        bytes: U64,
        hits: U64,
        misses: U64,
        writes: U64,
        negative_hits: U64,
        sim_hits: U64,
        sim_negative_hits: U64,
        invalidations: U64,
        evictions: U64,
        sweep_log_errors: U64,
        connections: U64,
        requests: U64,
        errors: U64,
    });

    /// Renders the `stats ...` response line (without the newline).
    pub fn to_line(&self) -> String {
        let mut w = Writer::default();
        w.line("stats").fields(Self::FIELDS, self);
        w.finish()
    }

    /// Parses a `stats ...` response line. Unknown fields are ignored
    /// (a newer daemon may report more), missing fields are an error.
    pub fn parse(line: &str) -> Option<DaemonStats> {
        let line = Line::parse("stats", 1, line).ok()?;
        if line.keyword() != "stats" {
            return None;
        }
        line.read(Self::FIELDS).ok()
    }
}

/// One parsed response: the status line's tokens plus an optional
/// framed payload.
struct Response {
    status: Vec<String>,
    payload: Option<String>,
}

impl Response {
    fn head(&self) -> &str {
        self.status.first().map(String::as_str).unwrap_or("")
    }
}

/// Client for a `tawa-cached` daemon — the session's fourth tier.
///
/// Thread-safe, and holds its connections: an operation takes an idle,
/// already-greeted stream from the client's pool (or dials one), runs
/// one request on it, and returns it to the pool after a clean response.
/// A stream that answered `err` is dropped, because the daemon closes
/// after every `err`. Concurrent batch workers each hold their own
/// stream, so the pool never grows past the number of callers at once
/// and needs no size limit.
///
/// A pooled stream the daemon has closed while it sat idle (a restart,
/// its idle timeout) fails before a status line comes back; that request
/// is retried exactly once on a fresh dial. Any other failure, and any
/// failure on a fresh dial, latches the client down (see the module
/// docs) and all methods return instantly.
pub struct RemoteCache {
    addr: RemoteAddr,
    /// Idle streams, each greeted and between requests.
    idle: Mutex<Vec<Conn>>,
    down: AtomicBool,
    warned: AtomicBool,
    counters: RemoteCounters,
}

impl fmt::Debug for RemoteCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RemoteCache")
            .field("addr", &self.addr)
            .field("down", &self.is_down())
            .field("stats", &self.stats())
            .finish()
    }
}

impl RemoteCache {
    /// Creates a client for `addr`. No connection is attempted until
    /// the first operation — a session pointed at a dead daemon costs
    /// one failed dial, one warning, and nothing more.
    pub fn new(addr: RemoteAddr) -> RemoteCache {
        RemoteCache {
            addr,
            idle: Mutex::new(Vec::new()),
            down: AtomicBool::new(false),
            warned: AtomicBool::new(false),
            counters: RemoteCounters::default(),
        }
    }

    /// The daemon endpoint this client dials.
    pub fn addr(&self) -> &RemoteAddr {
        &self.addr
    }

    /// Whether the client has latched down after a failure.
    pub fn is_down(&self) -> bool {
        self.down.load(Ordering::Relaxed)
    }

    /// Point-in-time snapshot of the client's traffic counters.
    pub fn stats(&self) -> RemoteCacheStats {
        self.counters.snapshot()
    }

    /// Latches the client down, counting the failure, closing the idle
    /// streams and warning once.
    fn fail(&self, context: &str, err: impl fmt::Display) {
        self.counters.errors.add(1);
        self.down.store(true, Ordering::Relaxed);
        lock(&self.idle).clear();
        if !self.warned.swap(true, Ordering::Relaxed) {
            eprintln!(
                "tawa-cached: remote cache {} unavailable ({context}: {err}); \
                 falling back to local tiers",
                self.addr
            );
        }
    }

    /// Sends one request (plus optional payload) on an idle stream or a
    /// fresh dial and reads the response. A pooled stream found closed
    /// is retried once on a fresh dial; the stream goes back to the pool
    /// after a clean response.
    fn transact(&self, request: &str, payload: Option<&str>) -> io::Result<Response> {
        self.counters.roundtrips.add(1);
        // The hello leads the request on a fresh dial only.
        let hello = hello_line();
        let mut out = format!("{hello}\n{request}\n");
        if let Some(payload) = payload {
            out.push_str(payload);
        }
        let pooled = lock(&self.idle).pop();
        let answered = match pooled {
            Some(mut conn) => {
                request_status(&mut conn, &out[hello.len() + 1..])?.map(|status| (conn, status))
            }
            None => None,
        };
        let (mut conn, status) = match answered {
            Some(answered) => answered,
            None => {
                let mut conn = dial(&self.addr)?;
                let status = request_status(&mut conn, &out)?
                    .ok_or_else(|| protocol_err("closed before response"))?;
                (conn, status)
            }
        };
        let status: Vec<String> = status.split_whitespace().map(str::to_string).collect();
        let payload = match status.as_slice() {
            [kind, len] if matches!(kind.as_str(), "kernel" | "negative" | "sim") => {
                let len = len
                    .parse::<u64>()
                    .map_err(|_| protocol_err(format!("bad payload length {len:?}")))?;
                Some(read_payload(&mut conn, len)?)
            }
            _ => None,
        };
        let response = Response { status, payload };
        // Bytes past the response would be read as the next one's.
        if response.head() != "err" && conn.buffer().is_empty() {
            lock(&self.idle).push(conn);
        }
        Ok(response)
    }

    /// One request/response exchange — the path every operation takes.
    /// A down client answers `None` without dialling; a transport error,
    /// or a response `read` does not accept, latches the client down.
    fn exchange<T>(
        &self,
        context: &str,
        request: &str,
        payload: Option<&str>,
        read: impl FnOnce(&Response) -> Option<T>,
    ) -> Option<T> {
        if self.is_down() {
            return None;
        }
        let answer = self.transact(request, payload).map_err(|e| e.to_string());
        match answer.and_then(|resp| read(&resp).ok_or_else(|| unexpected(&resp))) {
            Ok(value) => Some(value),
            Err(why) => {
                self.fail(context, why);
                None
            }
        }
    }

    /// A `get-*` exchange: `decode` turns a `(status, payload)` hit into
    /// a value; `miss` is counted and `None`, anything undecodable
    /// latches the client down.
    fn get<T>(
        &self,
        context: &str,
        request: &str,
        decode: impl FnOnce(&str, &str) -> Option<T>,
    ) -> Option<T> {
        let hit = self.exchange(context, request, None, |resp| {
            match (resp.head(), &resp.payload) {
                ("miss", None) => Some(None),
                (kind, Some(text)) => decode(kind, text).map(Some),
                _ => None,
            }
        })?;
        if hit.is_none() {
            self.counters.misses.add(1);
        }
        hit
    }

    /// Looks up the compiled kernel (or cached infeasibility verdict)
    /// for `key`. `None` is a miss — or a down client, which is
    /// indistinguishable by design.
    pub fn get_kernel(&self, key: &CacheKey) -> Option<KernelSlot> {
        let request = format!("get-kernel {}", key_text(key));
        let slot = self.get("get-kernel", &request, |kind, text| match kind {
            "kernel" => Some(KernelSlot::Kernel(Arc::new(deserialize_kernel(text).ok()?))),
            "negative" => Some(KernelSlot::Infeasible(text.to_string())),
            _ => None,
        })?;
        match slot {
            KernelSlot::Kernel(_) => self.counters.kernel_hits.add(1),
            KernelSlot::Infeasible(_) => self.counters.negative_hits.add(1),
        }
        Some(slot)
    }

    /// Publishes a compiled kernel for `key` (write-back after a cold
    /// compile). Best-effort: failures are counted, never surfaced.
    pub fn put_kernel(&self, key: &CacheKey, kernel: &Kernel) {
        self.put("put-kernel", key_text(key), &serialize_kernel(kernel));
    }

    /// Publishes an infeasibility verdict for `key`.
    pub fn put_infeasible(&self, key: &CacheKey, message: &str) {
        self.put("put-negative", key_text(key), message);
    }

    /// Looks up the simulation outcome for `(key, COST_MODEL_VERSION)`.
    pub fn get_sim(&self, key: &CacheKey) -> Option<SimOutcome> {
        let request = format!("get-sim {} {COST_MODEL_VERSION}", key_text(key));
        let outcome = self.get("get-sim", &request, |kind, text| {
            decode_sim_outcome(text).filter(|_| kind == "sim")
        })?;
        match outcome {
            SimOutcome::Report(_) => self.counters.sim_hits.add(1),
            _ => self.counters.sim_negative_hits.add(1),
        }
        Some(outcome)
    }

    /// Publishes a simulation outcome for `(key, COST_MODEL_VERSION)`.
    pub fn put_sim(&self, key: &CacheKey, outcome: &SimOutcome) {
        let target = format!("{} {COST_MODEL_VERSION}", key_text(key));
        self.put("put-sim", target, &encode_sim_outcome(outcome));
    }

    /// A `put-*` exchange of `payload` under `target` (the key, plus the
    /// cost-model version for sim outcomes). `ok` counts a put; `err`
    /// counts a rejection without latching — the daemon is alive and
    /// speaking the protocol, it just refused this payload.
    fn put(&self, verb: &str, target: String, payload: &str) {
        if !self.is_down() && payload.len() as u64 > MAX_PAYLOAD_BYTES {
            self.counters.errors.add(1);
            return;
        }
        let request = format!("{verb} {target} {}", payload.len());
        let accepted = self.exchange(verb, &request, Some(payload), |resp| match resp.head() {
            "ok" => Some(true),
            "err" => Some(false),
            _ => None,
        });
        match accepted {
            Some(true) => self.counters.puts.add(1),
            Some(false) => self.counters.errors.add(1),
            None => {}
        }
    }

    /// Fetches the daemon's aggregate counters (`tawa-cache stats
    /// --remote`). `None` if the daemon is unreachable or mis-speaking.
    pub fn fetch_stats(&self) -> Option<DaemonStats> {
        self.exchange("stats", "stats", None, |resp| {
            DaemonStats::parse(&resp.status.join(" "))
        })
    }

    /// Asks the daemon to evict LRU entries down to `max_bytes`,
    /// returning how many entries went.
    pub fn evict(&self, max_bytes: u64) -> Option<u64> {
        let request = format!("evict {max_bytes}");
        self.exchange("evict", &request, None, |resp| {
            match resp.status.as_slice() {
                [ok, field] if ok == "ok" => field.strip_prefix("evicted=")?.parse::<u64>().ok(),
                _ => None,
            }
        })
    }
}

impl Tier for RemoteCache {
    fn get_kernel_slot(&self, key: &CacheKey) -> Option<KernelSlot> {
        self.get_kernel(key)
    }
    fn put_kernel_slot(&self, key: &CacheKey, slot: &KernelSlot) {
        match slot {
            KernelSlot::Kernel(kernel) => self.put_kernel(key, kernel),
            KernelSlot::Infeasible(message) => self.put_infeasible(key, message),
        }
    }
    fn get_sim_slot(&self, key: &CacheKey) -> Option<SimOutcome> {
        self.get_sim(key)
    }
    fn put_sim_slot(&self, key: &CacheKey, outcome: &SimOutcome) {
        self.put_sim(key, outcome);
    }
}

/// A key's two fingerprints as they travel on request lines.
fn key_text(key: &CacheKey) -> String {
    format!("{:016x} {:016x}", key.module_fp, key.env_fp)
}

fn unexpected(resp: &Response) -> String {
    format!("unexpected response {:?}", resp.status.join(" "))
}

/// Renders an `err` response line for `message` (server side).
pub fn err_line(message: &str) -> String {
    format!("err {}", quote(message))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_parses_unix_and_tcp() {
        assert_eq!(
            RemoteAddr::parse("/run/tawa/cached.sock"),
            RemoteAddr::Unix(PathBuf::from("/run/tawa/cached.sock"))
        );
        assert_eq!(
            RemoteAddr::parse("tcp:127.0.0.1:7450"),
            RemoteAddr::Tcp("127.0.0.1:7450".to_string())
        );
        assert_eq!(
            RemoteAddr::parse("tcp:127.0.0.1:7450").to_string(),
            "tcp:127.0.0.1:7450"
        );
    }

    #[test]
    fn hello_round_trips_and_rejects_mismatches() {
        assert!(check_hello(&hello_line()).is_ok());
        for bad in [
            "",
            "tawa-cached",
            "tawa-cached 2",
            "tawa-cached one",
            "tawa-kernel-cache 1",
            "tawa-cached 1 extra",
        ] {
            assert!(check_hello(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn daemon_stats_line_round_trips() {
        let stats = DaemonStats {
            entries: 12,
            bytes: 34_567,
            hits: 8,
            misses: 3,
            writes: 12,
            negative_hits: 1,
            sim_hits: 6,
            sim_negative_hits: 2,
            invalidations: 1,
            evictions: 4,
            sweep_log_errors: 1,
            connections: 9,
            requests: 40,
            errors: 2,
        };
        assert_eq!(DaemonStats::parse(&stats.to_line()), Some(stats));
        assert_eq!(
            DaemonStats::parse("stats entries=1"),
            None,
            "missing fields"
        );
        assert_eq!(DaemonStats::parse("nonsense"), None);
    }

    #[test]
    fn read_line_handles_eof_and_floods() {
        let mut ok = io::Cursor::new(b"hello\nworld\n".to_vec());
        assert_eq!(read_line(&mut ok).unwrap().as_deref(), Some("hello"));
        assert_eq!(read_line(&mut ok).unwrap().as_deref(), Some("world"));
        assert_eq!(read_line(&mut ok).unwrap(), None);

        let mut torn = io::Cursor::new(b"no newline".to_vec());
        assert!(read_line(&mut torn).is_err());

        let mut flood = io::Cursor::new(vec![b'x'; 1 << 20]);
        assert!(read_line(&mut flood).is_err(), "unbounded line refused");
    }

    #[test]
    fn read_payload_enforces_cap_and_utf8() {
        let mut r = io::Cursor::new(b"abcdef".to_vec());
        assert_eq!(read_payload(&mut r, 3).unwrap(), "abc");
        let mut r = io::Cursor::new(b"ab".to_vec());
        assert!(read_payload(&mut r, 3).is_err(), "short read");
        let mut r = io::Cursor::new(Vec::new());
        assert!(
            read_payload(&mut r, MAX_PAYLOAD_BYTES + 1).is_err(),
            "cap enforced before allocation"
        );
        let mut r = io::Cursor::new(vec![0xff, 0xfe]);
        assert!(read_payload(&mut r, 2).is_err(), "non-UTF-8 refused");
    }

    #[test]
    fn down_client_is_a_quiet_no_op() {
        // A client pointed at a nonexistent socket fails its first
        // operation, latches down, and then never dials again.
        let client = RemoteCache::new(RemoteAddr::parse("/nonexistent/tawa-cached.sock"));
        let key = CacheKey {
            module_fp: 1,
            env_fp: 2,
        };
        assert!(client.get_kernel(&key).is_none());
        assert!(client.is_down());
        let after_first = client.stats();
        assert_eq!(after_first.errors, 1);
        assert_eq!(after_first.roundtrips, 1);
        // Everything after the latch is free: no further round trips.
        assert!(client.get_sim(&key).is_none());
        client.put_infeasible(&key, "nope");
        assert!(client.fetch_stats().is_none());
        assert!(client.evict(0).is_none());
        let stats = client.stats();
        assert_eq!(stats.roundtrips, 1);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.hits(), 0);
    }
}
