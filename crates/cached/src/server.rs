//! The daemon: listeners, one handler thread per live connection, and
//! a spawn/shutdown handle for embedding in tests.
//!
//! The server side of the `tawa-cached 1` protocol defined in
//! [`tawa_core::remote`]. On accept it greets, validates the client's
//! hello, then serves any number of requests until the peer closes.
//! Clients hold their connections across requests, so a handler lives
//! as long as its client's session keeps the stream. Every protocol
//! violation — bad hello, unknown verb, malformed fingerprint, oversized
//! or undecodable payload, cost-model mismatch on a put — answers `err`
//! and closes the connection: with a byte-count-framed stream there is
//! no safe way to resynchronize past a malformed request, and a client
//! drops a stream that answered `err`.
//!
//! Between requests, EOF or [`IO_TIMEOUT`](tawa_core::remote::IO_TIMEOUT)
//! of silence is a clean close: no `err` line (a client coming back to
//! the stream would read it as the answer to its next request) and no
//! error counted. The acceptor joins finished handlers as it accepts new
//! connections, and [`ServerHandle::shutdown`] closes every live
//! connection before joining its handler.
//!
//! Payloads are validated by *parsing* before anything is stored: a
//! client cannot plant bytes the fleet's sessions would later fail to
//! decode, because the store only ever persists what `wsir 1` /
//! sim-outcome deserialization accepted.

use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use gpu_sim::COST_MODEL_VERSION;
use tawa_core::cache::{decode_sim_outcome, encode_sim_outcome, CacheKey};
use tawa_core::remote::{
    check_hello, err_line, hello_line, protocol_err, read_line, read_payload, DaemonStats,
    RemoteAddr, Socket,
};
use tawa_core::tier::{KernelSlot, Tier};
use tawa_wsir::{deserialize_kernel, serialize_kernel};

use crate::store::ShardedStore;

tawa_core::counters! {
    /// Server-side lifetime counters, reported in the `stats` response.
    struct ConnectionStats / Counters {
        counters {
            connections,
            requests,
            errors,
        }
        gauges {}
        nested {}
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    fn accept(&self) -> io::Result<Box<dyn Socket>> {
        Ok(match self {
            Listener::Unix(l) => Box::new(l.accept()?.0),
            Listener::Tcp(l) => Box::new(l.accept()?.0),
        })
    }
}

/// A connection's handler thread, and a second handle on its socket so
/// that shutting down can close a connection the handler is blocked
/// reading.
struct Handler {
    thread: JoinHandle<()>,
    socket: Box<dyn Socket>,
}

type Handlers = Arc<Mutex<Vec<Handler>>>;

/// Locks the handler list. A list is consistent after any single push or
/// removal, so a poisoned lock is recovered, never a panic.
fn lock(handlers: &Mutex<Vec<Handler>>) -> MutexGuard<'_, Vec<Handler>> {
    handlers.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Joins every handler whose connection has ended (each join returns at
/// once) and closes its duplicate socket handle.
fn reap(handlers: &Mutex<Vec<Handler>>) {
    let finished: Vec<Handler> = lock(handlers)
        .extract_if(.., |h| h.thread.is_finished())
        .collect();
    for h in finished {
        let _ = h.thread.join();
    }
}

/// A running daemon: the bound address, its acceptor thread and
/// accounting. Dropping the handle shuts the daemon down.
pub struct ServerHandle {
    addr: RemoteAddr,
    socket_file: Option<PathBuf>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Handlers,
    store: Arc<ShardedStore>,
    counters: Arc<Counters>,
}

impl ServerHandle {
    /// The address the daemon actually listens on. For `tcp:host:0`
    /// requests this carries the kernel-assigned port — tests bind port
    /// zero and read the real endpoint here.
    pub fn addr(&self) -> &RemoteAddr {
        &self.addr
    }

    /// The backing store (tests inspect and verify it directly).
    pub fn store(&self) -> &ShardedStore {
        &self.store
    }

    /// The counters a `stats` request would report right now.
    pub fn daemon_stats(&self) -> DaemonStats {
        daemon_stats(&self.store, &self.counters)
    }

    /// Handler threads not yet joined: the live connections, plus any
    /// that ended since the last accept. Tests bound the daemon's
    /// threads with it.
    #[doc(hidden)]
    pub fn handler_threads(&self) -> usize {
        lock(&self.handlers).len()
    }

    /// Blocks until the daemon is shut down from another thread (the
    /// foreground mode of the `tawa-cached` binary: it never returns in
    /// normal operation).
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    /// Stops accepting, closes every live connection, joins its handler,
    /// and removes the Unix socket file. A client holding a closed stream
    /// redials on its next request.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Unblock the acceptor with a wake-up dial; it sees the stop
        // flag before handling the connection.
        match &self.addr {
            RemoteAddr::Unix(path) => drop(UnixStream::connect(path)),
            RemoteAddr::Tcp(addr) => drop(TcpStream::connect(addr.as_str())),
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // A handler waits up to `IO_TIMEOUT` for its client's next
        // request; closing the connection ends the wait at once.
        let handlers = std::mem::take(&mut *lock(&self.handlers));
        for h in &handlers {
            h.socket.close();
        }
        for h in handlers {
            let _ = h.thread.join();
        }
        if let Some(path) = self.socket_file.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Binds `addr` and starts serving `store` on background threads.
///
/// A stale Unix socket file (a crashed daemon's leftover) is removed
/// before binding. `tcp:host:0` binds an ephemeral port; the handle's
/// [`ServerHandle::addr`] reports the resolved endpoint.
///
/// # Errors
/// Propagates bind failures (address in use, unwritable socket path) and
/// a failure to start the acceptor thread.
pub fn spawn(store: ShardedStore, addr: &RemoteAddr) -> io::Result<ServerHandle> {
    let (listener, addr, socket_file) = match addr {
        RemoteAddr::Unix(path) => {
            if path.exists() {
                std::fs::remove_file(path)?;
            }
            (
                Listener::Unix(UnixListener::bind(path)?),
                RemoteAddr::Unix(path.clone()),
                Some(path.clone()),
            )
        }
        RemoteAddr::Tcp(requested) => {
            let listener = TcpListener::bind(requested.as_str())?;
            let actual = listener.local_addr()?.to_string();
            (Listener::Tcp(listener), RemoteAddr::Tcp(actual), None)
        }
    };
    let store = Arc::new(store);
    let counters = Arc::new(Counters::default());
    let stop = Arc::new(AtomicBool::new(false));
    let handlers: Handlers = Arc::new(Mutex::new(Vec::new()));

    let acceptor = {
        let store = store.clone();
        let counters = counters.clone();
        let stop = stop.clone();
        let handlers = handlers.clone();
        std::thread::Builder::new().spawn(move || loop {
            let conn = listener.accept();
            if stop.load(Ordering::Relaxed) {
                return;
            }
            let Ok(conn) = conn else { continue };
            counters.connections.add(1);
            reap(&handlers);
            let Ok(socket) = conn.duplicate() else {
                counters.errors.add(1);
                continue;
            };
            let thread = {
                let store = store.clone();
                let counters = counters.clone();
                std::thread::Builder::new().spawn(move || serve_connection(conn, &store, &counters))
            };
            match thread {
                Ok(thread) => lock(&handlers).push(Handler { thread, socket }),
                Err(_) => counters.errors.add(1),
            }
        })?
    };

    Ok(ServerHandle {
        addr,
        socket_file,
        stop,
        acceptor: Some(acceptor),
        handlers,
        store,
        counters,
    })
}

fn daemon_stats(store: &ShardedStore, counters: &Counters) -> DaemonStats {
    let s = store.stats();
    let c = counters.snapshot();
    DaemonStats {
        entries: s.entries as u64,
        bytes: s.bytes,
        hits: s.hits,
        misses: s.misses,
        writes: s.writes,
        negative_hits: s.negative_hits,
        sim_hits: s.sim_hits,
        // A static rejection gates the same stage as a sim failure; the
        // wire stats fold them together like the client's counter does.
        sim_negative_hits: s.sim_negative_hits + s.static_rejections,
        invalidations: s.invalidations,
        evictions: s.evictions,
        sweep_log_errors: 0,
        connections: c.connections,
        requests: c.requests,
        errors: c.errors,
    }
}

/// Serves one connection to completion. Failures end the connection
/// with a best-effort `err` reply and count toward the daemon's error
/// counter; they never touch any other connection.
fn serve_connection(conn: Box<dyn Socket>, store: &ShardedStore, counters: &Counters) {
    let mut conn = BufReader::new(conn);
    let served = conn
        .get_ref()
        .set_timeouts()
        .and_then(|()| serve_requests(&mut conn, store, counters));
    if let Err(e) = served {
        counters.errors.add(1);
        let reply = format!("{}\n", err_line(&e.to_string()));
        let _ = conn.get_mut().write_all(reply.as_bytes());
        let _ = conn.get_mut().flush();
    }
    // The acceptor holds a duplicate of this socket, so dropping ours
    // would not end the connection: shut it down for the peer to see EOF.
    conn.get_ref().close();
}

/// Waits for the first byte of the next request. `false` is a clean
/// close at a request boundary: the peer hung up, or sent nothing for
/// [`IO_TIMEOUT`](tawa_core::remote::IO_TIMEOUT).
fn request_pending(conn: &mut impl BufRead) -> io::Result<bool> {
    loop {
        return match conn.fill_buf() {
            Ok(buffered) => Ok(!buffered.is_empty()),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(false),
            Err(e) => Err(e),
        };
    }
}

fn serve_requests(
    conn: &mut BufReader<Box<dyn Socket>>,
    store: &ShardedStore,
    counters: &Counters,
) -> io::Result<()> {
    conn.get_mut()
        .write_all(format!("{}\n", hello_line()).as_bytes())?;
    conn.get_mut().flush()?;
    let hello = read_line(conn)?.ok_or_else(|| protocol_err("closed before hello"))?;
    check_hello(&hello)?;
    while request_pending(conn)? {
        let line = read_line(conn)?.ok_or_else(|| protocol_err("closed mid-request"))?;
        counters.requests.add(1);
        let (status, payload) = execute(&line, conn, store, counters)?;
        let mut reply = status;
        reply.push('\n');
        if let Some(payload) = payload {
            reply.push_str(&payload);
        }
        conn.get_mut().write_all(reply.as_bytes())?;
        conn.get_mut().flush()?;
    }
    Ok(())
}

fn parse_fp(text: &str) -> io::Result<u64> {
    u64::from_str_radix(text, 16).map_err(|_| protocol_err(format!("bad fingerprint {text:?}")))
}

fn parse_key(m: &str, e: &str) -> io::Result<CacheKey> {
    Ok(CacheKey {
        module_fp: parse_fp(m)?,
        env_fp: parse_fp(e)?,
    })
}

fn parse_count(text: &str, what: &str) -> io::Result<u64> {
    text.parse::<u64>()
        .map_err(|_| protocol_err(format!("bad {what} {text:?}")))
}

/// Executes one request, returning the response status line and
/// optional payload. Any `Err` ends the connection with an `err` reply.
fn execute(
    line: &str,
    conn: &mut BufReader<Box<dyn Socket>>,
    store: &ShardedStore,
    counters: &Counters,
) -> io::Result<(String, Option<String>)> {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    match tokens.as_slice() {
        ["get-kernel", m, e] => Ok(match store.get_kernel_slot(&parse_key(m, e)?) {
            // The slot answers with the infeasibility verdict first: a
            // negatively cached key has no kernel.
            Some(KernelSlot::Infeasible(msg)) => (format!("negative {}", msg.len()), Some(msg)),
            Some(KernelSlot::Kernel(kernel)) => {
                let text = serialize_kernel(&kernel);
                (format!("kernel {}", text.len()), Some(text))
            }
            None => ("miss".to_string(), None),
        }),
        ["put-kernel", m, e, n] => {
            let key = parse_key(m, e)?;
            let payload = read_payload(conn, parse_count(n, "payload length")?)?;
            let kernel = deserialize_kernel(&payload)
                .map_err(|err| protocol_err(format!("undecodable kernel payload: {err}")))?;
            store.put_kernel_slot(&key, &KernelSlot::Kernel(Arc::new(kernel)));
            Ok(("ok".to_string(), None))
        }
        ["put-negative", m, e, n] => {
            let key = parse_key(m, e)?;
            let payload = read_payload(conn, parse_count(n, "payload length")?)?;
            store.put_kernel_slot(&key, &KernelSlot::Infeasible(payload));
            Ok(("ok".to_string(), None))
        }
        ["get-sim", m, e, v] => {
            let key = parse_key(m, e)?;
            // A different cost model is a miss, not an error: entries
            // priced by another timing model must never be served, but
            // a version-skewed fleet is operating normally otherwise.
            if parse_count(v, "cost-model version")? != u64::from(COST_MODEL_VERSION) {
                return Ok(("miss".to_string(), None));
            }
            match store.get_sim_slot(&key) {
                Some(outcome) => {
                    let text = encode_sim_outcome(&outcome);
                    Ok((format!("sim {}", text.len()), Some(text)))
                }
                None => Ok(("miss".to_string(), None)),
            }
        }
        ["put-sim", m, e, v, n] => {
            let key = parse_key(m, e)?;
            // The payload is consumed before any verdict so the framing
            // stays consistent whatever the outcome.
            let payload = read_payload(conn, parse_count(n, "payload length")?)?;
            if parse_count(v, "cost-model version")? != u64::from(COST_MODEL_VERSION) {
                return Err(protocol_err(format!(
                    "cost-model {v} != {COST_MODEL_VERSION}"
                )));
            }
            let outcome = decode_sim_outcome(&payload)
                .ok_or_else(|| protocol_err("undecodable sim payload"))?;
            store.put_sim_slot(&key, &outcome);
            Ok(("ok".to_string(), None))
        }
        ["stats"] => Ok((daemon_stats(store, counters).to_line(), None)),
        ["evict", n] => {
            let evicted = store.gc(parse_count(n, "byte budget")?);
            Ok((format!("ok evicted={evicted}"), None))
        }
        _ => Err(protocol_err(format!("unknown request {line:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::io::Read;

    use super::*;

    /// A scripted peer: `read` hands out `input` chunk by chunk, then
    /// either reports EOF or times out the way a socket with a read
    /// timeout does (`WouldBlock`), without sleeping.
    struct MockSocket {
        input: VecDeque<Vec<u8>>,
        idle_times_out: bool,
        output: Arc<Mutex<Vec<u8>>>,
        closed: Arc<AtomicBool>,
    }

    impl Read for MockSocket {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(mut chunk) = self.input.pop_front() else {
                return if self.idle_times_out {
                    Err(ErrorKind::WouldBlock.into())
                } else {
                    Ok(0)
                };
            };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                self.input.push_front(chunk.split_off(n));
            }
            Ok(n)
        }
    }

    impl Write for MockSocket {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.output
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Socket for MockSocket {
        fn set_timeouts(&self) -> io::Result<()> {
            Ok(())
        }
        fn duplicate(&self) -> io::Result<Box<dyn Socket>> {
            Err(ErrorKind::Unsupported.into())
        }
        fn close(&self) {
            self.closed.store(true, Ordering::Relaxed);
        }
    }

    /// Serves `chunks` on a fresh store, returning what the daemon wrote
    /// back, its request and error counts, and whether it closed the
    /// socket.
    fn serve(name: &str, chunks: &[&str], idle_times_out: bool) -> (String, u64, u64, bool) {
        let root = std::env::temp_dir().join(format!(
            "tawa-cached-server-unit-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = ShardedStore::open(&root).unwrap();
        let counters = Counters::default();
        let output = Arc::new(Mutex::new(Vec::new()));
        let closed = Arc::new(AtomicBool::new(false));
        let socket = MockSocket {
            input: chunks.iter().map(|c| c.as_bytes().to_vec()).collect(),
            idle_times_out,
            output: output.clone(),
            closed: closed.clone(),
        };
        serve_connection(Box::new(socket), &store, &counters);
        let _ = std::fs::remove_dir_all(&root);
        let c = counters.snapshot();
        let output = String::from_utf8(output.lock().unwrap().clone()).unwrap();
        (output, c.requests, c.errors, closed.load(Ordering::Relaxed))
    }

    #[test]
    fn idle_or_eof_between_requests_is_a_clean_close() {
        for idle_times_out in [true, false] {
            let (out, requests, errors, closed) = serve(
                "idle",
                &[
                    "tawa-cached 1\n",
                    "get-kernel 0000000000000001 0000000000000002\n",
                ],
                idle_times_out,
            );
            assert_eq!(out, "tawa-cached 1\nmiss\n", "no err line owed");
            assert_eq!((requests, errors), (1, 0));
            assert!(closed, "the handler shuts its socket down");
        }
    }

    #[test]
    fn a_stats_request_reports_the_store_and_zero_sweep_log_errors() {
        let (out, requests, errors, _) = serve(
            "stats",
            &[
                "tawa-cached 1\n",
                "put-negative 0000000000000001 0000000000000002 3\nabc",
                "get-kernel 0000000000000001 0000000000000002\n",
                "stats\n",
            ],
            false,
        );
        // The payload follows its count unterminated; the stats line
        // comes straight after it.
        let stats_line = out
            .strip_prefix("tawa-cached 1\nok\nnegative 3\nabc")
            .unwrap_or_else(|| panic!("{out:?}"));
        let stats = DaemonStats::parse(stats_line.trim_end()).expect(&out);
        assert_eq!((stats.entries, stats.writes), (1, 1), "{stats:?}");
        assert_eq!(stats.negative_hits, 1, "{stats:?}");
        assert_eq!(stats.sweep_log_errors, 0, "{stats:?}");
        assert_eq!((requests, errors), (3, 0));
    }

    #[test]
    fn a_timeout_inside_a_request_is_an_error() {
        // Mid-line: part of a request line, then silence.
        let (out, requests, errors, closed) = serve("mid-line", &["tawa-cached 1\nget-ker"], true);
        assert!(out.starts_with("tawa-cached 1\nerr "), "{out:?}");
        assert_eq!((requests, errors), (0, 1));
        assert!(closed);

        // Mid-payload: a framed put whose bytes stop short.
        let (out, requests, errors, _) = serve(
            "mid-payload",
            &["tawa-cached 1\nput-negative 0 0 10\n", "abc"],
            true,
        );
        assert!(out.starts_with("tawa-cached 1\nerr "), "{out:?}");
        assert_eq!((requests, errors), (1, 1));

        // Silence before the hello is still an error: no session began.
        let (out, _, errors, _) = serve("no-hello", &[], true);
        assert!(out.starts_with("tawa-cached 1\nerr "), "{out:?}");
        assert_eq!(errors, 1);
    }
}
