//! `tawa-serve`: generate serving traces, replay them, and render fleet
//! reports.
//!
//! ```text
//! tawa-serve gen <out.trace> [--name NAME] [--seed N] [--requests N] [--quick]
//! tawa-serve run <trace> [--sessions N] [--out <fleet.txt>] [--json <fleet.json>]
//! tawa-serve report <fleet.txt>
//! ```
//!
//! `run` honors the cache environment ([`CacheEnv`]): setting
//! `TAWA_DISK_CACHE=<dir>` makes replays persistent, and
//! `TAWA_CACHED=<addr>` joins the `tawa-cached` fleet cache.
//! `--sessions N` replays the trace through N *fresh* sessions in
//! sequence — each with its own disk subdirectory — so with a shared
//! daemon attached, session 1 pays every compile and sweep and sessions
//! 2..N report zero compiles and zero simulate calls with bit-identical
//! phase aggregates. `report` re-renders a saved fleet report as JSON on
//! stdout (what the CI smoke steps assert against).

use std::process::ExitCode;

use gpu_sim::Device;
use tawa_core::{CacheEnv, CompileSession};
use tawa_serve::{
    deserialize_fleet_report, deserialize_trace, generate, replay_trace, serialize_fleet_report,
    serialize_trace, TraceParams,
};

const USAGE: &str = "usage:
  tawa-serve gen <out.trace> [--name NAME] [--seed N] [--requests N] [--quick]
  tawa-serve run <trace> [--sessions N] [--out <fleet.txt>] [--json <fleet.json>]
  tawa-serve report <fleet.txt>

`run` honors TAWA_DISK_CACHE (persistent local cache; warm reruns perform
zero compiles and zero simulate calls) and TAWA_CACHED (shared tawa-cached
daemon). `--sessions N` replays the trace through N fresh sessions — with
a daemon attached, session 1 pays the compiles and sessions 2..N run warm
from the fleet cache. --out/--json write the last session's report.";

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("tawa-serve: {msg}");
    ExitCode::FAILURE
}

/// Pulls the value of `--flag` out of `args`, if present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) if i + 1 < args.len() => {
            let v = args.remove(i + 1);
            args.remove(i);
            Ok(Some(v))
        }
        Some(_) => Err(format!("{flag} needs a value")),
    }
}

fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

fn parse_u64(text: &str, what: &str) -> Result<u64, String> {
    text.parse::<u64>()
        .map_err(|_| format!("bad {what} '{text}'"))
}

fn cmd_gen(mut args: Vec<String>) -> Result<(), String> {
    let quick = take_switch(&mut args, "--quick");
    let name = take_flag(&mut args, "--name")?;
    let seed = match take_flag(&mut args, "--seed")? {
        Some(s) => parse_u64(&s, "seed")?,
        None => 7,
    };
    let requests = match take_flag(&mut args, "--requests")? {
        Some(s) => parse_u64(&s, "request count")? as usize,
        None => 64,
    };
    let [out] = &args[..] else {
        return Err("gen takes exactly one output path".to_string());
    };
    let params = if quick {
        TraceParams::quick(
            name.unwrap_or_else(|| "quick-mix".to_string()),
            seed,
            requests,
        )
    } else {
        TraceParams::llama_mix(
            name.unwrap_or_else(|| "llama-mix".to_string()),
            seed,
            requests,
        )
    };
    let trace = generate(&params);
    std::fs::write(out, serialize_trace(&trace)).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "wrote {} ({} requests, seed {})",
        out,
        trace.requests.len(),
        trace.seed
    );
    Ok(())
}

fn cmd_run(mut args: Vec<String>) -> Result<(), String> {
    let out = take_flag(&mut args, "--out")?;
    let json = take_flag(&mut args, "--json")?;
    let sessions = match take_flag(&mut args, "--sessions")? {
        Some(s) => parse_u64(&s, "session count")?.max(1) as usize,
        None => 1,
    };
    let [path] = &args[..] else {
        return Err("run takes exactly one trace path".to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let trace = deserialize_trace(&text).map_err(|e| e.to_string())?;
    let env = CacheEnv::from_env();
    let device = Device::h100_sxm5();

    // One fresh session per fleet member, each with its own (empty,
    // unless reused) local disk tier so warm service can only come from
    // the shared daemon — the fleet demo `--sessions N` exists for.
    let mut last: Option<tawa_serve::FleetReport> = None;
    for i in 1..=sessions {
        let mut session = CompileSession::in_memory(&device);
        if let Some(disk) = &env.disk {
            let dir = if sessions > 1 {
                disk.join(format!("session-{i:02}"))
            } else {
                disk.clone()
            };
            session = session
                .with_disk_cache(&dir)
                .map_err(|e| format!("opening disk cache {}: {e}", dir.display()))?;
        }
        if let Some(remote) = &env.remote {
            session = session.with_remote_cache(remote.clone());
        }
        let report = replay_trace(&session, &trace).map_err(|e| e.to_string())?;
        if sessions > 1 {
            let a = &report.accounting;
            println!(
                "session {i}/{sessions}: {} compiles, {} simulate calls, {} remote hits",
                a.compiles,
                a.simulate_calls,
                a.remote_kernel_hits
                    + a.remote_negative_hits
                    + a.remote_sim_hits
                    + a.remote_sim_negative_hits,
            );
        }
        if let Some(prev) = &last {
            if !prev.same_workload(&report) {
                return Err(format!(
                    "session {i} produced different phase aggregates than session {} — \
                     the replay is supposed to be deterministic",
                    i - 1
                ));
            }
        }
        last = Some(report);
    }
    let Some(report) = last else {
        return Err("no session ran".to_string());
    };
    if let Some(out) = out {
        std::fs::write(&out, serialize_fleet_report(&report))
            .map_err(|e| format!("writing {out}: {e}"))?;
    }
    if let Some(json_path) = json {
        std::fs::write(&json_path, report.to_json())
            .map_err(|e| format!("writing {json_path}: {e}"))?;
    }
    print!("{}", report.summary());
    Ok(())
}

fn cmd_report(args: Vec<String>) -> Result<(), String> {
    let [path] = &args[..] else {
        return Err("report takes exactly one fleet-report path".to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let report = deserialize_fleet_report(&text).map_err(|e| e.to_string())?;
    print!("{}", report.to_json());
    Ok(())
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    let cmd = args.remove(0);
    let result = match cmd.as_str() {
        "gen" => cmd_gen(args),
        "run" => cmd_run(args),
        "report" => cmd_report(args),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => fail(msg),
    }
}
