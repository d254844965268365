//! Protocol robustness corpus.
//!
//! Client side: a session pointed at a misbehaving peer — version-bumped
//! greeting, truncated frames, oversized payload lengths, mid-stream
//! disconnects, garbage — must degrade to its local tiers with one
//! counted error and *never* surface a failure through
//! `compile_and_simulate`, returning results identical to a session
//! that never had a remote tier.
//!
//! Server side: a daemon fed the same classes of garbage must stay up,
//! count the errors, answer `err` where a reply is still possible, and
//! keep serving well-behaved clients on subsequent connections.
//!
//! Held connections: a client reuses its streams across requests and
//! redials once when the daemon has closed one; the daemon joins its
//! finished handlers as it goes and closes live connections on shutdown.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gpu_sim::{Device, SimReport};
use tawa_cached::{spawn, ShardedStore};
use tawa_core::cache::CacheKey;
use tawa_core::remote::{RemoteAddr, RemoteCache};
use tawa_core::tier::KernelSlot;
use tawa_core::{CompileOptions, CompileSession};
use tawa_frontend::config::GemmConfig;
use tawa_frontend::kernels::gemm;
use tawa_wsir::{serialize_kernel, Kernel};

/// Starts a one-shot fake daemon running `behavior` on the first
/// accepted connection, returning its address. The thread is detached
/// on purpose: a hung fake must not hang the test.
fn fake_server(behavior: impl FnOnce(TcpStream) + Send + 'static) -> RemoteAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    std::thread::spawn(move || {
        if let Ok((stream, _)) = listener.accept() {
            behavior(stream);
        }
    });
    RemoteAddr::Tcp(addr)
}

fn reference_report() -> SimReport {
    CompileSession::in_memory(&Device::h100_sxm5())
        .compile_and_simulate_program(
            &gemm(&GemmConfig::new(512, 512, 512)),
            &CompileOptions::default(),
        )
        .expect("the reference compile is feasible")
}

/// The invariant every corpus entry must satisfy: compile succeeds,
/// result identical to the no-remote session, at least one error
/// counted, client latched down (so the damage is paid once).
fn assert_degrades_to_local(addr: RemoteAddr, reference: &SimReport) {
    let session = CompileSession::in_memory(&Device::h100_sxm5()).with_remote_cache(addr);
    let report = session
        .compile_and_simulate_program(
            &gemm(&GemmConfig::new(512, 512, 512)),
            &CompileOptions::default(),
        )
        .expect("a broken remote must never fail a compile");
    assert_eq!(&report, reference, "local fallback must be bit-identical");
    let remote = session.remote_cache().unwrap();
    assert!(remote.is_down(), "client must latch down");
    let stats = remote.stats();
    assert!(stats.errors >= 1, "{stats:?}");
    assert_eq!(stats.hits(), 0, "{stats:?}");
    // Latched: the whole workload above cost at most two dials
    // (get-sim, then get-kernel at the latest), not one per operation.
    assert!(stats.roundtrips <= 2, "{stats:?}");
}

#[test]
fn client_corpus_degrades_to_local_fallback() {
    let reference = reference_report();

    // Version-bumped greeting: a daemon from the future.
    let bumped = fake_server(|mut s| {
        let _ = s.write_all(b"tawa-cached 2\n");
        let _ = s.flush();
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink);
    });
    assert_degrades_to_local(bumped, &reference);

    // Truncated frame: a hit whose payload stops short.
    let truncated = fake_server(|mut s| {
        let _ = s.write_all(b"tawa-cached 1\n");
        let mut buf = [0u8; 4096];
        let _ = s.read(&mut buf);
        let _ = s.write_all(b"sim 4096\nonly these bytes arrive");
        let _ = s.flush();
    });
    assert_degrades_to_local(truncated, &reference);

    // Oversized payload length: must be refused before allocation.
    let oversized = fake_server(|mut s| {
        let _ = s.write_all(b"tawa-cached 1\n");
        let mut buf = [0u8; 4096];
        let _ = s.read(&mut buf);
        let _ = s.write_all(b"kernel 99999999999999\n");
        let _ = s.flush();
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink);
    });
    assert_degrades_to_local(oversized, &reference);

    // Mid-stream disconnect: accept, then hang up immediately.
    let disconnect = fake_server(drop);
    assert_degrades_to_local(disconnect, &reference);

    // Garbage status line after a valid hello exchange.
    let garbage = fake_server(|mut s| {
        let _ = s.write_all(b"tawa-cached 1\n");
        let mut buf = [0u8; 4096];
        let _ = s.read(&mut buf);
        let _ = s.write_all(b"!!! not a protocol line !!!\n");
        let _ = s.flush();
    });
    assert_degrades_to_local(garbage, &reference);

    // Unterminated flood: no newline ever arrives.
    let flood = fake_server(|mut s| {
        let _ = s.write_all(&vec![b'x'; 64 * 1024]);
        let _ = s.flush();
    });
    assert_degrades_to_local(flood, &reference);

    // Nobody listening at all (the daemon-down case).
    assert_degrades_to_local(RemoteAddr::Tcp("127.0.0.1:1".into()), &reference);
}

/// Drives one raw client exchange against a real daemon: sends `bytes`
/// after reading the greeting, returns whatever the daemon replies.
fn raw_exchange(addr: &RemoteAddr, bytes: &[u8]) -> String {
    let RemoteAddr::Tcp(tcp) = addr else {
        panic!("raw_exchange expects the TCP listener");
    };
    let mut s = TcpStream::connect(tcp.as_str()).unwrap();
    let mut greeting = [0u8; 14];
    s.read_exact(&mut greeting).unwrap();
    assert_eq!(&greeting, b"tawa-cached 1\n");
    s.write_all(bytes).unwrap();
    s.flush().unwrap();
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut reply = String::new();
    let _ = s.read_to_string(&mut reply);
    reply
}

#[test]
fn server_survives_garbage_clients_and_keeps_serving() {
    let root =
        std::env::temp_dir().join(format!("tawa-cached-protocol-srv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = ShardedStore::open(&root).unwrap();
    let handle = spawn(store, &RemoteAddr::Tcp("127.0.0.1:0".into())).unwrap();
    let addr = handle.addr().clone();

    // Wrong protocol name, bumped version, raw garbage, an unknown
    // verb, a bad fingerprint, an oversized put, a truncated put, and
    // a client that hangs up before saying hello.
    let corpus: &[&[u8]] = &[
        b"tawa-kernel-cache 1\nget-kernel 0 0\n",
        b"tawa-cached 2\nget-kernel 0 0\n",
        b"complete nonsense\n",
        b"tawa-cached 1\nfetch-everything now\n",
        b"tawa-cached 1\nget-kernel zz zz\n",
        b"tawa-cached 1\nput-kernel 0 0 99999999999999\n",
        b"tawa-cached 1\nput-kernel 0 0 500\ntoo few bytes",
        b"",
    ];
    for bytes in corpus {
        let reply = raw_exchange(&addr, bytes);
        assert!(
            reply.is_empty() || reply.starts_with("err "),
            "garbage {bytes:?} got a non-error reply {reply:?}"
        );
    }
    let stats = handle.daemon_stats();
    assert!(stats.errors >= corpus.len() as u64 - 1, "{stats:?}");
    assert_eq!(stats.writes, 0, "no garbage may reach the store");

    // An invalid kernel payload (framed correctly, fails to parse) is
    // rejected by validation, not persisted.
    let reply = raw_exchange(&addr, b"tawa-cached 1\nput-kernel 0 0 7\ngarbage");
    assert!(reply.starts_with("err "), "{reply:?}");
    assert_eq!(handle.daemon_stats().writes, 0);

    // A cost-model-mismatched get is a clean miss, not an error.
    let reply = raw_exchange(&addr, b"tawa-cached 1\nget-sim 0 0 999999\n");
    assert_eq!(reply, "miss\n");

    // After all that abuse a well-behaved session still gets service.
    let session = CompileSession::in_memory(&Device::h100_sxm5()).with_remote_cache(addr.clone());
    let report = session
        .compile_and_simulate_program(
            &gemm(&GemmConfig::new(512, 512, 512)),
            &CompileOptions::default(),
        )
        .unwrap();
    assert!(report.cycles > 0);
    assert!(!session.remote_cache().unwrap().is_down());
    assert!(
        handle.daemon_stats().writes > 0,
        "the real session published"
    );
    let (sound, bad) = handle.store().verify();
    assert_eq!(bad, 0);
    assert!(sound > 0);

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_hostile_loop_nest_is_an_err_reply_and_the_daemon_keeps_serving() {
    // `put-kernel` parses its payload on a 2 MiB handler thread: 5 000
    // nested loops (45 KB) used to overflow it and abort the daemon.
    let root =
        std::env::temp_dir().join(format!("tawa-cached-protocol-nest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = ShardedStore::open(&root).unwrap();
    let handle = spawn(store, &RemoteAddr::Tcp("127.0.0.1:0".into())).unwrap();
    let addr = handle.addr().clone();

    let sound = serialize_kernel(&Kernel::new("nest"));
    let mut hostile = sound.clone();
    hostile.push_str("warp_group role=producer regs_per_thread=24 {\n");
    hostile.push_str(&"loop 1 {\n".repeat(5_000));
    hostile.push_str(&"}\n".repeat(5_001));
    let put = |text: &str| {
        let request = format!("tawa-cached 1\nput-kernel 2 2 {}\n{text}", text.len());
        raw_exchange(&addr, request.as_bytes())
    };

    let reply = put(&hostile);
    assert!(reply.starts_with("err "), "{reply:?}");
    assert!(reply.contains("loop nesting deeper than"), "{reply:?}");
    let stats = handle.daemon_stats();
    assert_eq!((stats.errors, stats.writes), (1, 0), "{stats:?}");

    // The same daemon then serves a well-formed put/get pair.
    assert_eq!(put(&sound), "ok\n");
    let reply = raw_exchange(&addr, b"tawa-cached 1\nget-kernel 2 2\n");
    assert_eq!(reply, format!("kernel {}\n{sound}", sound.len()));
    let stats = handle.daemon_stats();
    assert_eq!(
        (stats.errors, stats.writes, stats.hits),
        (1, 1, 1),
        "{stats:?}"
    );

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A unique, pre-cleaned scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tawa-cached-protocol-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key(i: u64) -> CacheKey {
    CacheKey {
        module_fp: 0x1000 + i,
        env_fp: 0x2000 + i,
    }
}

#[test]
fn sequential_connections_do_not_accumulate_handler_threads() {
    let root = scratch("reap");
    let handle = spawn(
        ShardedStore::open(&root).unwrap(),
        &RemoteAddr::Tcp("127.0.0.1:0".into()),
    )
    .unwrap();
    let addr = handle.addr().clone();
    let mut peak = 0;
    for _ in 0..2_000 {
        assert!(raw_exchange(&addr, b"tawa-cached 1\nstats\n").starts_with("stats "));
        peak = peak.max(handle.handler_threads());
    }
    assert!(peak <= 8, "{peak} handler threads left unjoined");
    let stats = handle.daemon_stats();
    assert_eq!((stats.connections, stats.requests), (2_000, 2_000));
    assert_eq!(stats.errors, 0, "EOF between requests is a clean close");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn shutdown_closes_a_connection_a_session_still_holds() {
    let root = scratch("shutdown");
    let handle = spawn(
        ShardedStore::open(root.join("store")).unwrap(),
        &RemoteAddr::Unix(root.join("d.sock")),
    )
    .unwrap();
    let session =
        CompileSession::in_memory(&Device::h100_sxm5()).with_remote_cache(handle.addr().clone());
    session
        .compile_and_simulate_program(
            &gemm(&GemmConfig::new(512, 512, 512)),
            &CompileOptions::default(),
        )
        .unwrap();
    assert_eq!(handle.handler_threads(), 1, "the session holds one stream");
    let start = Instant::now();
    handle.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    drop(session);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_restarted_daemon_costs_one_redial_and_no_latch() {
    let root = scratch("restart");
    let addr = RemoteAddr::Unix(root.join("d.sock"));
    let open = || ShardedStore::open(root.join("store")).unwrap();
    let first = spawn(open(), &addr).unwrap();
    let client = RemoteCache::new(addr.clone());
    client.put_infeasible(&key(1), "doomed");
    assert_eq!(client.stats().roundtrips, 1);
    first.shutdown();

    // Same path, same store: the client's pooled stream is dead.
    let second = spawn(open(), &addr).unwrap();
    assert_eq!(
        client.get_kernel(&key(1)),
        Some(KernelSlot::Infeasible("doomed".to_string()))
    );
    assert!(!client.is_down());
    assert_eq!(client.get_kernel(&key(2)), None);
    let stats = client.stats();
    assert_eq!((stats.roundtrips, stats.errors), (3, 0), "{stats:?}");
    assert_eq!(
        second.daemon_stats().connections,
        1,
        "one redial, then reuse"
    );
    second.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Reads the hello and one request (with its framed payload, if the
/// request line ends in a byte count) from a fake daemon's client.
fn read_request(conn: &mut BufReader<TcpStream>) -> Vec<String> {
    let mut lines = Vec::new();
    for _ in 0..2 {
        let mut line = String::new();
        conn.read_line(&mut line).unwrap();
        lines.push(line.trim_end().to_string());
    }
    let len = lines[1].rsplit(' ').next().unwrap().parse::<usize>();
    if let (Ok(len), true) = (len, lines[1].starts_with("put-")) {
        let mut payload = vec![0u8; len];
        conn.read_exact(&mut payload).unwrap();
    }
    lines
}

#[test]
fn an_err_reply_drops_the_stream_without_latching() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = RemoteAddr::Tcp(listener.local_addr().unwrap().to_string());
    let fake = std::thread::spawn(move || {
        // First connection: reject the put and half-close, as the daemon
        // closes after every `err`; record anything sent after it.
        let (conn, _) = listener.accept().unwrap();
        let mut conn = BufReader::new(conn);
        conn.get_mut().write_all(b"tawa-cached 1\n").unwrap();
        let put = read_request(&mut conn);
        conn.get_mut().write_all(b"err \"rejected\"\n").unwrap();
        conn.get_mut().shutdown(std::net::Shutdown::Write).unwrap();
        let mut after_err = Vec::new();
        let _ = conn.read_to_end(&mut after_err);
        // Second connection: a miss.
        let (conn, _) = listener.accept().unwrap();
        let mut conn = BufReader::new(conn);
        conn.get_mut().write_all(b"tawa-cached 1\n").unwrap();
        let get = read_request(&mut conn);
        conn.get_mut().write_all(b"miss\n").unwrap();
        (put, after_err, get)
    });

    let client = RemoteCache::new(addr);
    client.put_infeasible(&key(1), "verdict");
    let stats = client.stats();
    assert_eq!((stats.errors, stats.puts, stats.roundtrips), (1, 0, 1));
    assert!(!client.is_down(), "a rejection is not a latch");
    assert_eq!(client.get_kernel(&key(1)), None);
    assert!(!client.is_down());
    let stats = client.stats();
    assert_eq!((stats.errors, stats.misses, stats.roundtrips), (1, 1, 2));

    let (put, after_err, get) = fake.join().unwrap();
    assert_eq!(put[0], "tawa-cached 1");
    assert!(put[1].starts_with("put-negative "), "{put:?}");
    assert!(after_err.is_empty(), "the err'd stream was reused");
    assert_eq!(get[0], "tawa-cached 1", "the next request dials fresh");
    assert!(get[1].starts_with("get-kernel "), "{get:?}");
}

#[test]
fn two_threads_share_one_client_over_at_most_two_connections() {
    let root = scratch("shared");
    let handle = spawn(
        ShardedStore::open(&root).unwrap(),
        &RemoteAddr::Tcp("127.0.0.1:0".into()),
    )
    .unwrap();
    let seeder = RemoteCache::new(handle.addr().clone());
    for i in (0..32).step_by(2) {
        seeder.put_infeasible(&key(i), &format!("verdict {i}"));
    }
    let lookups = |client: &RemoteCache| -> Vec<Option<KernelSlot>> {
        (0..32).map(|i| client.get_kernel(&key(i))).collect()
    };
    let serial = lookups(&seeder);
    assert_eq!(serial.iter().filter(|slot| slot.is_some()).count(), 16);

    let before = handle.daemon_stats().connections;
    let shared = RemoteCache::new(handle.addr().clone());
    let (a, b) = std::thread::scope(|scope| {
        let a = scope.spawn(|| lookups(&shared));
        let b = scope.spawn(|| lookups(&shared));
        (a.join().unwrap(), b.join().unwrap())
    });
    assert_eq!(a, serial);
    assert_eq!(b, serial);
    let opened = handle.daemon_stats().connections - before;
    assert!((1..=2).contains(&opened), "{opened} connections");
    let stats = shared.stats();
    assert_eq!((stats.roundtrips, stats.errors), (64, 0), "{stats:?}");
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
