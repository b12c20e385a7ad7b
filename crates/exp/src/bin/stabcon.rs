//! The `stabcon` CLI: run, resume, serve, and report experiment campaigns.
//!
//! ```text
//! stabcon campaign run    --preset figure1-small --out store.jsonl
//! stabcon campaign resume --preset figure1-small --out store.jsonl
//! stabcon campaign report --out store.jsonl [--job N] [--format text|md|csv] [--timings]
//! stabcon serve           --preset figure1-small --out fig.jsonl --listen 0.0.0.0:7677
//! stabcon serve           --out q.jsonl --listen 0.0.0.0:7677 --resume
//! stabcon work            --connect host:7677
//! stabcon submit          --preset figure1-small --connect host:7677 --client lab
//! stabcon status          --connect host:7677 [--job 2]
//! stabcon cancel          --connect host:7677 --job 2
//! stabcon chaos           --listen 127.0.0.1:7678 --connect 127.0.0.1:7677 --seed 42
//! stabcon telemetry check --out telemetry.jsonl
//! ```
//!
//! `run`/`resume` accept grid overrides (`--trials`, `--seed`, `--ns`,
//! `--name`) and execution knobs (`--threads`, `--chunk`, `--max-cells`,
//! `--progress`, `--telemetry PATH`). The store never records execution
//! knobs — telemetry is observation-only — so a campaign interrupted and
//! resumed at a different thread count (with or without telemetry) still
//! reproduces the uninterrupted store byte-for-byte. `resume` re-derives
//! the grid from the same spec flags and refuses a store whose header
//! fingerprint disagrees.
//!
//! ## Multi-host campaigns
//!
//! `serve` plus one `work` per host is how a campaign spans hosts: the
//! daemon is a job queue that leases cells to connecting workers and
//! re-claims leases whose worker died (deterministic seeds make re-runs
//! exact), so the assembled store is byte-identical to the single-host
//! run. Given spec flags, `serve` submits that one campaign at startup and
//! exits once it is done; its store lands at `<out>.job-1.jsonl`. See
//! `stabcon_exp::fabric`.
//!
//! `--progress` prints live lines (trials done, trials/s, worker spread,
//! chunk-cursor lag, ETA) to stderr; `--telemetry PATH` streams the same
//! snapshots plus per-cell phase profiles as JSONL (see
//! `stabcon_exp::telemetry` for the schema); either flag also prints the
//! final per-cell phase-profile table. `telemetry check` validates a sink
//! file against the schema (CI runs it on the smoke campaign's sink).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use stabcon_exp::campaign::{run_campaign, RunConfig};
use stabcon_exp::fabric::queue::load_journal;
use stabcon_exp::fabric::{
    cancel_job, job_store_path, jobs_journal_path, local_dial_addr, query_status, run_worker_any,
    submit_campaign, ChaosProxy, ChaosSpec, JournalEvent, QueueServeConfig, QueueServer,
    SpecDescriptor, WorkerConfig,
};
use stabcon_exp::presets::PRESET_NAMES;
use stabcon_exp::store::Durability;
use stabcon_exp::{report, store, telemetry};
use stabcon_util::table::Table;

struct Args {
    /// `None` means the default `smoke` preset (and, for `serve`, no
    /// startup campaign unless another spec flag is set).
    preset: Option<String>,
    out: PathBuf,
    format: String,
    threads: Option<usize>,
    chunk: Option<u64>,
    max_cells: Option<u64>,
    trials: Option<u64>,
    seed: Option<u64>,
    /// The raw `--ns` string. Every command builds its spec through
    /// `SpecDescriptor::build`, so `parse_ns` is its one parser and a
    /// daemon parses exactly what the client typed.
    ns_raw: Option<String>,
    name: Option<String>,
    progress: bool,
    telemetry: Option<PathBuf>,
    timings: bool,
    listen: Option<String>,
    connect: Option<String>,
    lease_secs: Option<u64>,
    worker_name: Option<String>,
    resume: bool,
    durability: Durability,
    retries: Option<u32>,
    backoff_ms: Option<u64>,
    nasty: bool,
    client: Option<String>,
    job: Option<u64>,
    max_active: Option<usize>,
    quota: Option<usize>,
    exit_when_idle: bool,
}

fn usage() -> String {
    format!(
        "usage:\n  \
         stabcon campaign run    --out PATH [--preset NAME] [spec/exec flags]\n  \
         stabcon campaign resume --out PATH [--preset NAME] [spec/exec flags]\n  \
         stabcon campaign report --out PATH [--job N] [--format text|md|csv] [--timings]\n  \
         stabcon serve           --out PREFIX --listen HOST:PORT [--max-active N] [--quota N]\n  \
                                 [--resume] [--exit-when-idle] [spec flags] (job-queue daemon)\n  \
         stabcon work            --connect HOST:PORT [--worker-name NAME] [exec flags]\n  \
         stabcon submit          --connect HOST:PORT [--client NAME] [spec flags]\n  \
         stabcon status          --connect HOST:PORT [--job N]\n  \
         stabcon cancel          --connect HOST:PORT --job N\n  \
         stabcon chaos           --listen HOST:PORT --connect HOST:PORT [--seed N] [--nasty]\n  \
         stabcon telemetry check --out PATH (telemetry sink or timings sidecar; auto-detected)\n\n\
         spec flags:  --preset NAME (one of {names})  --trials N  --seed N\n  \
                      --ns N,N,...  --name NAME\n\
         exec flags:  --threads N  --chunk N  --max-cells N\n\
         fabric flags: --listen/--connect HOST:PORT (one serve, one work per host)\n  \
                      --lease-secs N (serve lease; default 60)  --worker-name NAME\n  \
                      --retries N (worker reconnect budget; default 5)\n  \
                      --backoff-ms N (worker reconnect base backoff; default 200)\n\
         durability:  --durability none|cell (fsync policy for run/resume/serve;\n  \
                      default none — bytes are identical under both)\n\
         observability: --progress (live lines on stderr)\n  \
                      --telemetry PATH (run/resume: JSONL snapshots + per-cell profiles)\n\
         report flags: --timings (join the store's timings sidecar)\n  \
                      --job N (report the daemon's per-job store <out>.job-N.jsonl)\n\
         queue flags: --client NAME (submission identity; quota is per client)\n  \
                      --job N (status/cancel target)  --max-active N  --quota N\n  \
                      --exit-when-idle (daemon exits once every job is terminal)\n  \
                      serve stores job N at PREFIX.job-N.jsonl (+ .timings.jsonl, .telemetry.jsonl);\n  \
                      spec flags on serve submit that one campaign at startup and exit once it is\n  \
                      done; work runs whatever the daemon leases; SIGTERM drains either\n\
         chaos flags: --seed N (fault-draw seed)  --nasty (hostile fault mix)\n",
        names = PRESET_NAMES.join("|")
    )
}

fn parse_args(argv: &[String], needs_out: bool) -> Result<Args, String> {
    let mut args = Args {
        preset: None,
        out: PathBuf::new(),
        format: "text".into(),
        threads: None,
        chunk: None,
        max_cells: None,
        trials: None,
        seed: None,
        ns_raw: None,
        name: None,
        progress: false,
        telemetry: None,
        timings: false,
        listen: None,
        connect: None,
        lease_secs: None,
        worker_name: None,
        resume: false,
        durability: Durability::None,
        retries: None,
        backoff_ms: None,
        nasty: false,
        client: None,
        job: None,
        max_active: None,
        quota: None,
        exit_when_idle: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag}: missing value"))
        };
        match flag.as_str() {
            "--preset" => args.preset = Some(value()?),
            "--out" => args.out = PathBuf::from(value()?),
            "--format" => args.format = value()?,
            "--threads" => args.threads = Some(parse_num(flag, &value()?)? as usize),
            "--chunk" => args.chunk = Some(parse_num(flag, &value()?)?),
            "--max-cells" => args.max_cells = Some(parse_num(flag, &value()?)?),
            "--trials" => args.trials = Some(parse_num(flag, &value()?)?),
            "--seed" => args.seed = Some(parse_num(flag, &value()?)?),
            "--name" => args.name = Some(value()?),
            "--progress" => args.progress = true,
            "--telemetry" => args.telemetry = Some(PathBuf::from(value()?)),
            "--timings" => args.timings = true,
            "--listen" => args.listen = Some(value()?),
            "--connect" => args.connect = Some(value()?),
            "--lease-secs" => args.lease_secs = Some(parse_num(flag, &value()?)?),
            "--worker-name" => args.worker_name = Some(value()?),
            "--resume" => args.resume = true,
            "--durability" => args.durability = Durability::parse(&value()?)?,
            "--retries" => args.retries = Some(parse_num(flag, &value()?)? as u32),
            "--backoff-ms" => args.backoff_ms = Some(parse_num(flag, &value()?)?),
            "--nasty" => args.nasty = true,
            "--client" => args.client = Some(value()?),
            "--job" => args.job = Some(parse_num(flag, &value()?)?),
            "--max-active" => args.max_active = Some(parse_num(flag, &value()?)?.max(1) as usize),
            "--quota" => args.quota = Some(parse_num(flag, &value()?)?.max(1) as usize),
            "--exit-when-idle" => args.exit_when_idle = true,
            "--ns" => args.ns_raw = Some(value()?),
            other => return Err(format!("unknown flag '{other}'\n\n{}", usage())),
        }
    }
    if needs_out && args.out.as_os_str().is_empty() {
        return Err(format!("--out is required\n\n{}", usage()));
    }
    Ok(args)
}

fn parse_num(flag: &str, s: &str) -> Result<u64, String> {
    let (digits, radix) = match s.strip_prefix("0x") {
        Some(hex) => (hex, 16),
        None => (s, 10),
    };
    u64::from_str_radix(digits, radix).map_err(|e| format!("{flag}: bad number '{s}': {e}"))
}

fn preset_name(args: &Args) -> &str {
    args.preset.as_deref().unwrap_or("smoke")
}

fn execute(args: &Args, resume: bool) -> Result<(), String> {
    let spec = descriptor_from(args).build()?;
    let mut cfg = RunConfig {
        resume,
        progress: args.progress,
        telemetry: args.telemetry.clone(),
        durability: args.durability,
        ..RunConfig::default()
    };
    if let Some(t) = args.threads {
        cfg.threads = t;
    }
    if let Some(c) = args.chunk {
        cfg.chunk = Some(c);
    }
    cfg.max_cells = args.max_cells;

    let start = std::time::Instant::now();
    let outcome = run_campaign(&spec, &args.out, &cfg)?;
    eprintln!(
        "campaign '{}': {} cells ({} run, {} skipped), {} trials in {:.2}s → {}{}",
        spec.name,
        outcome.cells_total,
        outcome.cells_run,
        outcome.cells_skipped,
        outcome.trials_run,
        start.elapsed().as_secs_f64(),
        outcome.store_path.display(),
        if outcome.complete() {
            ""
        } else {
            " (incomplete — `stabcon campaign resume` continues it)"
        }
    );
    if !outcome.profiles.is_empty() {
        eprint!("{}", telemetry::profile_table(&outcome.profiles).to_text());
    }
    Ok(())
}

/// The campaign as a wire descriptor: preset + the exact override strings
/// the user typed, so daemon and client build the same spec from the same
/// inputs.
fn descriptor_from(args: &Args) -> SpecDescriptor {
    SpecDescriptor {
        preset: preset_name(args).to_string(),
        name: args.name.clone(),
        trials: args.trials,
        seed: args.seed,
        ns: args.ns_raw.clone(),
    }
}

/// SIGTERM → `flag`: the queue daemon's halt for `serve` (stop dealing
/// leases, refuse submissions, let in-flight cells come home, park the
/// queue in the journal, exit) and the graceful drain for `work` (finish
/// the in-flight cell, ship its result, say goodbye). The handler body is a
/// single atomic store (async-signal-safe); a bridge thread forwards the
/// static flag into `flag`. Every other subcommand keeps the default
/// terminate-now behavior.
#[cfg(unix)]
fn install_sigterm(flag: Arc<AtomicBool>) {
    static TERM: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_sigterm(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
    std::thread::spawn(move || loop {
        if TERM.load(Ordering::SeqCst) {
            flag.store(true, Ordering::SeqCst);
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    });
}

#[cfg(not(unix))]
fn install_sigterm(_flag: Arc<AtomicBool>) {}

/// The campaign `serve` submits at startup: any spec flag turns the daemon
/// into a one-job queue for it.
fn startup_campaign(args: &Args) -> Option<SpecDescriptor> {
    let any_spec_flag = args.preset.is_some()
        || args.trials.is_some()
        || args.seed.is_some()
        || args.ns_raw.is_some()
        || args.name.is_some();
    any_spec_flag.then(|| descriptor_from(args))
}

/// The job a resumed one-job journal already holds, if any. A journal whose
/// job is a different campaign is refused rather than silently finished
/// under the wrong spec flags.
fn journaled_job(out: &Path, desc: &SpecDescriptor) -> Result<Option<u64>, String> {
    let path = jobs_journal_path(out);
    if !path.exists() {
        return Ok(None);
    }
    let ours = desc.build()?.fingerprint();
    let (events, _) = load_journal(&path)?;
    let first = events.iter().find_map(|e| match e {
        JournalEvent::Submit {
            job, fingerprint, ..
        } => Some((*job, *fingerprint)),
        JournalEvent::State { .. } => None,
    });
    match first {
        Some((job, fp)) if fp != ours => Err(format!(
            "{}: job {job} has grid fingerprint {fp:016x}, these spec flags build {ours:016x}",
            path.display()
        )),
        other => Ok(other.map(|(job, _)| job)),
    }
}

fn serve(args: &Args) -> Result<(), String> {
    if args.telemetry.is_some() {
        return Err(
            "serve: --telemetry is for `campaign run`/`resume`; the daemon writes each job's \
             worker telemetry to <store>.telemetry.jsonl"
                .into(),
        );
    }
    let listen = args.listen.as_deref().unwrap_or("127.0.0.1:7677");
    let server = QueueServer::bind(listen, &args.out)?;
    let bound = server.local_addr()?;
    eprintln!(
        "serve: queue on {bound} → stores {}.job-*.jsonl, journal {}",
        args.out.display(),
        jobs_journal_path(&args.out).display()
    );
    let startup = startup_campaign(args);
    let halt = Arc::new(AtomicBool::new(false));
    install_sigterm(Arc::clone(&halt));
    let cfg = QueueServeConfig {
        lease: Duration::from_secs(args.lease_secs.unwrap_or(60).max(1)),
        progress: args.progress,
        resume: args.resume,
        durability: args.durability,
        max_active: args.max_active.unwrap_or(4),
        quota: args.quota.unwrap_or(4),
        exit_when_idle: args.exit_when_idle || startup.is_some(),
        shutdown: Some(Arc::clone(&halt)),
    };
    let outcome = match startup {
        None => server.run(&cfg)?,
        Some(desc) => {
            let name = desc.build()?.name;
            let resumed = if args.resume {
                journaled_job(&args.out, &desc)?
            } else {
                None
            };
            let daemon = std::thread::spawn(move || server.run(&cfg));
            let job = match resumed {
                Some(job) => Ok(job),
                None => {
                    // The listener is already bound, so this connect queues
                    // until the daemon thread accepts it.
                    let dial = local_dial_addr(bound).to_string();
                    submit_campaign(&dial, "serve", &desc).map(|s| s.job)
                }
            };
            let job = match job {
                Ok(job) => job,
                Err(e) => {
                    halt.store(true, Ordering::SeqCst);
                    let _ = daemon.join();
                    return Err(format!("serve: startup submission failed: {e}"));
                }
            };
            let store = job_store_path(&args.out, job);
            eprintln!(
                "serve: campaign '{name}' is job {job} → store {}, telemetry {}",
                store.display(),
                telemetry::sink_path(&store).display()
            );
            daemon
                .join()
                .map_err(|_| "serve: daemon thread panicked")??
        }
    };
    eprintln!(
        "serve: queue {} — {} job(s): {} done, {} cancelled, {} failed, {} queued + {} running \
         parked for --resume; {} cell(s) ingested, {} lease(s) reclaimed, {} renewed, \
         {} duplicate result(s) deduped, {} goodbye(s) from {} connection(s) → journal {}",
        if outcome.halted { "halted" } else { "idle" },
        outcome.jobs,
        outcome.done,
        outcome.cancelled,
        outcome.failed,
        outcome.queued,
        outcome.running,
        outcome.cells_ingested,
        outcome.leases_reclaimed,
        outcome.leases_renewed,
        outcome.results_deduped,
        outcome.goodbyes,
        outcome.workers_seen,
        outcome.journal_path.display(),
    );
    if outcome.results_rejected + outcome.results_ignored > 0 {
        eprintln!(
            "serve: {} result(s) rejected (cell id mismatch or out of range), \
             {} ignored (job unknown or no longer running)",
            outcome.results_rejected, outcome.results_ignored
        );
    }
    if outcome.telemetry_dropped > 0 {
        eprintln!(
            "serve: dropped {} telemetry line(s) (invalid records or lines for a finished job)",
            outcome.telemetry_dropped
        );
    }
    Ok(())
}

/// Run the deterministic chaos proxy until killed: every connection to
/// `--listen` is forwarded to `--connect` through the seeded fault
/// injector (delays, duplicated frames, torn writes, mid-frame cuts).
fn chaos(args: &Args) -> Result<(), String> {
    let listen = args
        .listen
        .as_deref()
        .ok_or_else(|| format!("--listen HOST:PORT is required\n\n{}", usage()))?;
    let upstream = args
        .connect
        .as_deref()
        .ok_or_else(|| format!("--connect HOST:PORT is required\n\n{}", usage()))?;
    let seed = args.seed.unwrap_or(42);
    let spec = if args.nasty {
        ChaosSpec::nasty(seed)
    } else {
        ChaosSpec::mild(seed)
    };
    let proxy = ChaosProxy::bind(listen, upstream, spec)?;
    eprintln!(
        "chaos: {} → {} (seed {seed}, {} mix)",
        proxy.local_addr()?,
        upstream,
        if args.nasty { "nasty" } else { "mild" }
    );
    proxy.run().map(|conns| {
        eprintln!("chaos: proxied {conns} connection(s)");
    })
}

fn work(args: &Args) -> Result<(), String> {
    let addr = args
        .connect
        .as_deref()
        .ok_or_else(|| format!("--connect HOST:PORT is required\n\n{}", usage()))?;
    let drain = Arc::new(AtomicBool::new(false));
    install_sigterm(Arc::clone(&drain));
    let mut cfg = WorkerConfig {
        drain: Some(drain),
        ..WorkerConfig::default()
    };
    if let Some(t) = args.threads {
        cfg.threads = t;
    }
    cfg.chunk = args.chunk;
    if let Some(name) = &args.worker_name {
        cfg.name = name.clone();
    }
    if let Some(r) = args.retries {
        cfg.retries = r;
    }
    if let Some(b) = args.backoff_ms {
        cfg.backoff_ms = b;
    }
    let start = std::time::Instant::now();
    // No local spec: each lease ships its job's descriptor, which the
    // worker builds and fingerprint-verifies.
    let outcome = run_worker_any(addr, &cfg)?;
    eprintln!(
        "work '{}': {} cell(s), {} trial(s) in {:.2}s{}{}",
        cfg.name,
        outcome.cells_run,
        outcome.trials_run,
        start.elapsed().as_secs_f64(),
        if outcome.reconnects > 0 {
            format!(" ({} reconnect(s))", outcome.reconnects)
        } else {
            String::new()
        },
        if outcome.drained_early {
            " — drained on request"
        } else {
            ""
        },
    );
    Ok(())
}

fn submit(args: &Args) -> Result<(), String> {
    let addr = args
        .connect
        .as_deref()
        .ok_or_else(|| format!("--connect HOST:PORT is required\n\n{}", usage()))?;
    let client = args.client.as_deref().unwrap_or("cli");
    let desc = descriptor_from(args);
    let outcome = submit_campaign(addr, client, &desc)?;
    eprintln!(
        "submit: job {} accepted ({} cells) — daemon store {} \
         (watch it with `stabcon status --connect {addr} --job {}`)",
        outcome.job, outcome.cells, outcome.store, outcome.job,
    );
    Ok(())
}

fn status(args: &Args) -> Result<(), String> {
    let addr = args
        .connect
        .as_deref()
        .ok_or_else(|| format!("--connect HOST:PORT is required\n\n{}", usage()))?;
    let client = args.client.as_deref().unwrap_or("cli");
    let status = query_status(addr, client, args.job)?;
    let mut table = Table::new(
        format!("queue @ {addr}"),
        &[
            "job", "name", "state", "client", "cells", "written", "trials", "trials/s", "elapsed",
        ],
    );
    for j in &status.jobs {
        table.push_row(vec![
            j.job.to_string(),
            j.name.clone(),
            j.state.clone(),
            j.client.clone(),
            j.cells.to_string(),
            j.written.to_string(),
            j.trials.to_string(),
            format!("{:.0}", j.trials_per_sec()),
            format!("{:.1}s", j.elapsed_secs),
        ]);
    }
    table.push_note(format!(
        "{} — {} queued, {} running, {} done, {} cancelled, {} failed",
        if status.accepting {
            "accepting submissions"
        } else {
            "draining (submissions refused)"
        },
        status.queued,
        status.running,
        status.done,
        status.cancelled,
        status.failed,
    ));
    print!("{}", table.to_text());
    Ok(())
}

fn cancel(args: &Args) -> Result<(), String> {
    let addr = args
        .connect
        .as_deref()
        .ok_or_else(|| format!("--connect HOST:PORT is required\n\n{}", usage()))?;
    let job = args
        .job
        .ok_or_else(|| format!("--job N is required\n\n{}", usage()))?;
    let client = args.client.as_deref().unwrap_or("cli");
    let state = cancel_job(addr, client, job)?;
    eprintln!("cancel: job {job} is now {state} (its partial store stays on the daemon)");
    Ok(())
}

fn report(args: &Args) -> Result<(), String> {
    // `--job N` points at a queue daemon's per-job store by id, so a live
    // (parked-prefix) store can be reported without spelling out the
    // derived path; coverage is spelled out for any partial store.
    let out = match args.job {
        Some(job) => job_store_path(&args.out, job),
        None => args.out.clone(),
    };
    let loaded = store::load(&out)?;
    let timings = args.timings.then(|| telemetry::load_timings(&out));
    let table = report::report_table_with_timings(&loaded, timings.as_ref());
    match args.format.as_str() {
        "text" => print!("{}", table.to_text()),
        "md" | "markdown" => print!("{}", table.to_markdown()),
        "csv" => print!("{}", table.to_csv()),
        other => return Err(format!("unknown format '{other}' (text|md|csv)")),
    }
    Ok(())
}

fn telemetry_check(args: &Args) -> Result<(), String> {
    // One pass: the file's line 0 says which schema it claims, a telemetry
    // sink (`stabcon-telemetry/1`) or a per-cell timings sidecar
    // (`stabcon-timings/1`), and every record is validated against it.
    match telemetry::check_log(&args.out)? {
        telemetry::LogCheck::Timings(check) => println!(
            "{}: valid {} — {} line(s), {} cell(s), {} superseded duplicate(s) (last wins)",
            args.out.display(),
            telemetry::TIMINGS_SCHEMA,
            check.lines,
            check.cells,
            check.duplicates
        ),
        telemetry::LogCheck::Telemetry(check) => println!(
            "{}: valid {} — {} snapshot(s), {} cell profile(s)",
            args.out.display(),
            telemetry::TELEMETRY_SCHEMA,
            check.snapshots,
            check.cell_profiles
        ),
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (noun, verb) = (
        argv.first().map(String::as_str),
        argv.get(1).map(String::as_str),
    );
    let result = match (noun, verb) {
        (Some("campaign"), Some(verb @ ("run" | "resume" | "report"))) => {
            match parse_args(&argv[2..], true) {
                Ok(args) => match verb {
                    "run" => execute(&args, false),
                    "resume" => execute(&args, true),
                    _ => report(&args),
                },
                Err(e) => Err(e),
            }
        }
        (Some("serve"), _) => match parse_args(&argv[1..], true) {
            Ok(args) => serve(&args),
            Err(e) => Err(e),
        },
        (Some("work"), _) => match parse_args(&argv[1..], false) {
            Ok(args) => work(&args),
            Err(e) => Err(e),
        },
        (Some("submit"), _) => match parse_args(&argv[1..], false) {
            Ok(args) => submit(&args),
            Err(e) => Err(e),
        },
        (Some("status"), _) => match parse_args(&argv[1..], false) {
            Ok(args) => status(&args),
            Err(e) => Err(e),
        },
        (Some("cancel"), _) => match parse_args(&argv[1..], false) {
            Ok(args) => cancel(&args),
            Err(e) => Err(e),
        },
        (Some("chaos"), _) => match parse_args(&argv[1..], false) {
            Ok(args) => chaos(&args),
            Err(e) => Err(e),
        },
        (Some("telemetry"), Some("check")) => match parse_args(&argv[2..], true) {
            Ok(args) => telemetry_check(&args),
            Err(e) => Err(e),
        },
        (Some("--help") | Some("-h") | None, _) => {
            print!("{}", usage());
            Ok(())
        }
        _ => Err(usage()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("stabcon: {e}");
            ExitCode::from(2)
        }
    }
}
