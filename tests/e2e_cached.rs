//! End-to-end acceptance of the fleet cache (`tawa-cached`).
//!
//! The property the whole subsystem exists for: point a session with
//! EMPTY local tiers at a warm daemon and it performs **zero** kernel
//! compiles and **zero** simulate calls while reproducing the cold
//! run's phase aggregates bit-for-bit. And the inverse guarantee: with
//! the daemon unreachable the same replay produces identical results,
//! paying only one warning.

use std::fs;
use std::path::PathBuf;

use tawa::cached::{spawn, ServerHandle, ShardedStore};
use tawa::serve::{generate, replay_trace, serialize_fleet_report, Phase, TraceParams};
use tawa::sim::Device;
use tawa::{CompileSession, RemoteAddr};

fn dev() -> Device {
    Device::h100_sxm5()
}

/// A unique, pre-cleaned scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tawa-e2e-cached-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn daemon(root: &std::path::Path) -> ServerHandle {
    let store = ShardedStore::open(root.join("store")).expect("store dir must open");
    spawn(store, &RemoteAddr::Unix(root.join("cached.sock"))).expect("daemon must bind")
}

/// Same mixed workload the serve e2e uses: every phase sees traffic, so
/// kernels, sim reports and the memo tier are all exercised.
fn mixed_trace() -> tawa::Trace {
    let trace = generate(&TraceParams::quick("e2e-cached", 20260808, 14));
    for phase in Phase::ALL {
        assert!(trace.phase_count(phase) > 0, "trace must mix all phases");
    }
    trace
}

/// THE fleet warm-start property. Session 1 (cold, empty everything)
/// replays through the daemon and pays every compile and simulate call.
/// Sessions 2..N — fresh processes in spirit: empty memory, empty disk,
/// only the daemon shared — compile nothing, simulate nothing, and
/// report phase aggregates bit-identical to the cold run.
#[test]
fn warm_daemon_gives_fresh_sessions_a_zero_compile_replay() {
    let root = scratch("fleet");
    let handle = daemon(&root);
    let addr = handle.addr().clone();
    let trace = mixed_trace();

    let cold_session = CompileSession::in_memory(&dev()).with_remote_cache(addr.clone());
    let cold = replay_trace(&cold_session, &trace).unwrap();
    assert!(cold.accounting.compiles > 0, "session 1 must compile");
    assert!(
        cold.accounting.simulate_calls > 0,
        "session 1 must simulate"
    );
    assert!(cold.accounting.remote_puts > 0, "session 1 must publish");

    for i in 2..=3u32 {
        // Fresh local tiers: an empty disk directory of its own, empty
        // memory. Warm service can only come from the daemon.
        let disk = root.join(format!("local-{i}"));
        let session = CompileSession::in_memory(&dev())
            .with_disk_cache(&disk)
            .unwrap()
            .with_remote_cache(addr.clone());
        let warm = replay_trace(&session, &trace).unwrap();
        let a = &warm.accounting;
        assert_eq!(a.compiles, 0, "session {i} must not compile: {a:?}");
        assert_eq!(a.simulate_calls, 0, "session {i} must not simulate: {a:?}");
        assert!(
            a.remote_kernel_hits > 0 && a.remote_sim_hits > 0,
            "session {i} must be served by the daemon: {a:?}"
        );
        assert_eq!(a.remote_errors, 0, "{a:?}");
        assert!(
            cold.same_workload(&warm),
            "session {i} phase aggregates diverged from the cold run:\n\
             cold: {:?}\nwarm: {:?}",
            cold.phases,
            warm.phases
        );
    }

    // The daemon's own accounting agrees: it served a fleet.
    let stats = handle.daemon_stats();
    assert_eq!(stats.errors, 0, "{stats:?}");
    assert!(
        stats.writes > 0 && stats.hits > 0 && stats.sim_hits > 0,
        "{stats:?}"
    );

    handle.shutdown();
    let _ = fs::remove_dir_all(&root);
}

/// The degradation guarantee: a session pointed at a daemon that is not
/// there produces results bit-identical to a session with no remote
/// tier at all — phases AND accounting of the local tiers — and never
/// surfaces an error.
#[test]
fn unreachable_daemon_changes_nothing_but_the_remote_counters() {
    let root = scratch("down");
    let trace = mixed_trace();

    let plain = replay_trace(&CompileSession::in_memory(&dev()), &trace).unwrap();

    let session = CompileSession::in_memory(&dev())
        .with_remote_cache(RemoteAddr::Unix(root.join("nobody-home.sock")));
    let degraded = replay_trace(&session, &trace).unwrap();

    assert!(session.remote_cache().unwrap().is_down());
    assert!(degraded.accounting.remote_errors >= 1);
    assert_eq!(degraded.accounting.remote_puts, 0);

    // Identical replay: same phases, same local accounting. Zero out
    // the remote counters and the reports — and their serialized texts
    // — must match bit-for-bit.
    assert!(plain.same_workload(&degraded));
    let mut scrubbed = degraded.clone();
    scrubbed.accounting.remote_errors = 0;
    scrubbed.accounting.remote_roundtrips = 0;
    assert_eq!(plain, scrubbed);
    assert_eq!(
        serialize_fleet_report(&plain),
        serialize_fleet_report(&scrubbed)
    );

    let _ = fs::remove_dir_all(&root);
}

/// Promote-on-hit: a warm session's *second* pass over the same keys is
/// served from its own local tiers — the daemon is consulted once per
/// key, not once per request.
#[test]
fn remote_hits_promote_into_the_local_tiers() {
    let root = scratch("promote");
    let handle = daemon(&root);
    let addr = handle.addr().clone();
    let trace = mixed_trace();

    // Warm the daemon.
    let seeder = CompileSession::in_memory(&dev()).with_remote_cache(addr.clone());
    replay_trace(&seeder, &trace).unwrap();

    let session = CompileSession::in_memory(&dev())
        .with_disk_cache(root.join("local"))
        .unwrap()
        .with_remote_cache(addr.clone());
    replay_trace(&session, &trace).unwrap();
    let first = session.cache_stats();

    // Replay again on the SAME session: every answer is memoized or on
    // local disk now; the remote counters must not move at all.
    replay_trace(&session, &trace).unwrap();
    let second = session.cache_stats();
    assert_eq!(first.remote, second.remote, "remote tier consulted again");
    assert_eq!(second.kernel_misses, 0);
    assert_eq!(second.sim_misses, 0);

    handle.shutdown();
    let _ = fs::remove_dir_all(&root);
}

/// Promote-on-hit reaches the *disk* tier, not just memory: after a
/// replay served by the daemon into an empty local directory, a FRESH
/// session over that directory with NO remote tier — its memory empty,
/// the daemon gone — replays with zero compiles and zero simulate calls.
/// (`remote_hits_promote_into_the_local_tiers` reuses one session, whose
/// memory tier would mask a lost disk promotion.)
#[test]
fn remote_hits_land_on_disk_for_later_sessions_without_the_daemon() {
    let root = scratch("promote-disk");
    let handle = daemon(&root);
    let addr = handle.addr().clone();
    let trace = mixed_trace();

    let seeder = CompileSession::in_memory(&dev()).with_remote_cache(addr.clone());
    let cold = replay_trace(&seeder, &trace).unwrap();

    let local = root.join("local");
    let promoting = CompileSession::in_memory(&dev())
        .with_disk_cache(&local)
        .unwrap()
        .with_remote_cache(addr);
    let warm = replay_trace(&promoting, &trace).unwrap();
    assert_eq!(warm.accounting.compiles, 0, "{:?}", warm.accounting);
    assert!(promoting.cache_stats().disk.writes > 0);
    handle.shutdown();

    let offline = CompileSession::in_memory(&dev())
        .with_disk_cache(&local)
        .unwrap();
    let replay = replay_trace(&offline, &trace).unwrap();
    let a = &replay.accounting;
    assert_eq!(a.compiles, 0, "disk promotion lost a kernel: {a:?}");
    assert_eq!(a.simulate_calls, 0, "disk promotion lost a report: {a:?}");
    assert!(a.disk_kernel_hits > 0 && a.disk_sim_hits > 0, "{a:?}");
    assert!(cold.same_workload(&replay));

    let _ = fs::remove_dir_all(&root);
}

/// Held connections: a warm replay through one session reuses its
/// streams, so the daemon sees at most one connection per batch worker,
/// and the phases are the cold run's, bit for bit.
#[test]
fn a_warm_replay_opens_at_most_one_connection_per_worker() {
    let root = scratch("held");
    let handle = daemon(&root);
    let addr = handle.addr().clone();
    let trace = mixed_trace();
    let cold_session = CompileSession::in_memory(&dev()).with_remote_cache(addr.clone());
    let cold = replay_trace(&cold_session, &trace).unwrap();

    let workers = 2;
    let before = handle.daemon_stats().connections;
    let session = CompileSession::in_memory(&dev())
        .with_workers(workers)
        .with_remote_cache(addr);
    let warm = replay_trace(&session, &trace).unwrap();
    let opened = handle.daemon_stats().connections - before;
    let a = &warm.accounting;
    assert_eq!((a.compiles, a.simulate_calls, a.remote_errors), (0, 0, 0));
    assert!(
        (1..=workers as u64).contains(&opened),
        "{opened} connections for {} round trips",
        a.remote_roundtrips
    );
    assert!(cold.same_workload(&warm));

    handle.shutdown();
    let _ = fs::remove_dir_all(&root);
}
