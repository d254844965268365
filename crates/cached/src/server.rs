//! The daemon: listeners, thread-per-connection request handling, and
//! a spawn/shutdown handle for embedding in tests.
//!
//! The server side of the `tawa-cached 1` protocol defined in
//! [`tawa_core::remote`]. On accept it greets, validates the client's
//! hello, then serves any number of requests until the peer closes.
//! Every protocol violation — bad hello, unknown verb, malformed
//! fingerprint, oversized or undecodable payload, cost-model mismatch
//! on a put — answers `err` and closes the connection: with a
//! byte-count-framed stream there is no safe way to resynchronize past
//! a malformed request, and clients dial per request anyway.
//!
//! Payloads are validated by *parsing* before anything is stored: a
//! client cannot plant bytes the fleet's sessions would later fail to
//! decode, because the store only ever persists what `wsir 1` /
//! sim-outcome deserialization accepted.

use std::io::{self, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
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

/// A running daemon: the bound address, its acceptor thread and
/// accounting. Dropping the handle shuts the daemon down.
pub struct ServerHandle {
    addr: RemoteAddr,
    socket_file: Option<PathBuf>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
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

    /// Blocks until the daemon is shut down from another thread (the
    /// foreground mode of the `tawa-cached` binary: it never returns in
    /// normal operation).
    pub fn wait(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }

    /// Stops accepting, joins every in-flight connection handler, and
    /// removes the Unix socket file.
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
        let handlers = std::mem::take(&mut *self.handlers.lock().expect("handler list poisoned"));
        for h in handlers {
            let _ = h.join();
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
/// Propagates bind failures (address in use, unwritable socket path).
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
    let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let acceptor = {
        let store = store.clone();
        let counters = counters.clone();
        let stop = stop.clone();
        let handlers = handlers.clone();
        std::thread::spawn(move || loop {
            let conn = listener.accept();
            if stop.load(Ordering::Relaxed) {
                return;
            }
            let Ok(conn) = conn else { continue };
            counters.connections.add(1);
            let store = store.clone();
            let counters = counters.clone();
            let handle = std::thread::spawn(move || serve_connection(conn, &store, &counters));
            handlers.lock().expect("handler list poisoned").push(handle);
        })
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
        sweep_log_errors: s.sweep_log_errors,
        connections: c.connections,
        requests: c.requests,
        errors: c.errors,
    }
}

/// Serves one connection to completion. Failures end the connection
/// with a best-effort `err` reply and count toward the daemon's error
/// counter; they never touch any other connection.
fn serve_connection(conn: Box<dyn Socket>, store: &ShardedStore, counters: &Counters) {
    if conn.set_timeouts().is_err() {
        counters.errors.add(1);
        return;
    }
    let mut conn = BufReader::new(conn);
    if let Err(e) = serve_requests(&mut conn, store, counters) {
        counters.errors.add(1);
        let reply = format!("{}\n", err_line(&e.to_string()));
        let _ = conn.get_mut().write_all(reply.as_bytes());
        let _ = conn.get_mut().flush();
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
    loop {
        let Some(line) = read_line(conn)? else {
            return Ok(());
        };
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
