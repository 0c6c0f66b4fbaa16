//! `cxm-loadbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path loadbench/Cargo.toml -- \
//!     --workload <retail_hit|retail_churn|wide_refresh> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run starts a real `cxm-server` on
//! loopback inside this process, sets it up (start, register, warm-up),
//! drives one workload's closed-loop clients for `--seconds`, checks every
//! reply, and finally compares every distinct reply with a cold in-process
//! `ContextualMatcher::run` (the oracle). Untraced runs then time further
//! set-ups on fresh servers and report the median as `setup_s`. It prints
//! a human-readable report of every end-to-end metric the workload
//! defines, an environment line, and — as the last line — the JSON result.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` drives the
//! window through span-recording connections that trace every other op,
//! replays the server's stages in-process on the captured request bytes,
//! and reports per-layer metrics, writing every span to `.bench_out/`.

mod inputs;
mod oracle;
mod replay;
mod spans;
mod stats;
mod wire;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cxm_server::Json;

use spans::Recorder;
use stats::{median, percentile, Env, Metric};
use workload::{run_window, start, stop, Class, Inputs, Mode, Workload};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Wall-clock budget of the traced run's server-stage replay.
const REPLAY_BUDGET: Duration = Duration::from_secs(6);
/// Requests the replay covers even past its budget.
const MIN_REPLAYED_REQUESTS: usize = 3;
/// Where traced runs write their spans.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes a number")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds takes a number")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "loadbench: {e}\nusage: loadbench --workload <retail_hit|retail_churn|wide_refresh> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("loadbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one workload; returns whether every output was correct.
fn run(args: &Args) -> Result<bool, String> {
    let env = Env::capture();
    let inputs = Inputs::generate(args.workload, args.seed);
    let epoch = Instant::now();
    let window = Duration::from_secs(args.seconds);
    println!(
        "loadbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let io = |e: std::io::Error| e.to_string();

    if !args.trace {
        let started = start(&inputs).map_err(io)?;
        let mut setups = vec![started.setup.as_secs_f64()];
        let w = run_window(args.workload, &inputs, started.addr, epoch, window, Mode::Untraced, 1);
        let rss = stats::peak_rss_mb();
        let server = stop(started).map_err(io)?;
        // The remaining set-ups run after the window, so that their servers'
        // memory does not count in the window's peak.
        for _ in 1..SETUP_REPS {
            let next = start(&inputs).map_err(io)?;
            setups.push(next.setup.as_secs_f64());
            stop(next).map_err(io)?;
        }
        let verdict = oracle::check(&inputs, &w.log.replies, env.cores);
        let log = &w.log;
        let failed = log.failed + verdict.wrong_replies;
        let elapsed = log.finished.map_or(window, |f| f - w.start).as_secs_f64();
        let ops = (log.attempted - log.failed.min(log.attempted)) as f64;
        let defining = log.latencies(args.workload.defining_class(), None);

        let mut report = Report::default();
        report.line("setup_s", median(&setups), "s", &format!("median of {SETUP_REPS} set-ups"));
        report.line("ops_per_s", ops / elapsed, "1/s", &format!("{ops} ops in {elapsed:.3} s"));
        report.percentile("hit_p50_ms", &log.latencies(Class::Hit, None), 0.50);
        report.percentile("hit_p99_ms", &log.latencies(Class::Hit, None), 0.99);
        report.percentile("match_p50_ms", &log.latencies(Class::Match, None), 0.50);
        report.percentile("match_p95_ms", &log.latencies(Class::Match, None), 0.95);
        report.percentile("edit_p50_ms", &log.latencies(Class::Edit, None), 0.50);
        let refresh_s: Vec<f64> =
            log.latencies(Class::Refresh, None).iter().map(|ms| ms / 1e3).collect();
        report.percentile_unit("refresh_p50_s", &refresh_s, 0.50, "s");
        report.line(
            "failed_frac",
            failed as f64 / log.attempted.max(1) as f64,
            "fraction",
            &format!("{failed} of {} attempted", log.attempted),
        );
        report.line("peak_rss_mb", rss, "MB", "VmHWM of client and server");
        report.print();
        print_env(&env, args, log, &server, &verdict);

        let correct = failed == 0 && log.attempted > 0;
        let metrics = BTreeMap::from([
            ("setup_s", Metric { value: median(&setups), unit: "s" }),
            ("ops_per_s", Metric { value: ops / elapsed, unit: "1/s" }),
            ("op_p50_ms", Metric { value: median(&defining), unit: "ms" }),
            ("peak_rss_mb", Metric { value: rss, unit: "MB" }),
        ]);
        println!("{}", stats::result_line(correct, log.attempted, failed, &metrics));
        return Ok(correct);
    }

    // Traced run: every other op records spans; the ops in between are
    // the overhead baseline.
    let started = start(&inputs).map_err(io)?;
    let setup_frames = inputs.setup_frames();
    let first_request = setup_frames.len() as u64 + 1;
    let w = run_window(
        args.workload,
        &inputs,
        started.addr,
        epoch,
        window,
        Mode::Traced,
        first_request,
    );
    let server = stop(started).map_err(io)?;
    let verdict = oracle::check(&inputs, &w.log.replies, env.cores);

    let mut rec = Recorder::new(epoch);
    let mut calls = Vec::new();
    for (thread_rec, thread_calls) in w.traced {
        let offset = rec.absorb(thread_rec);
        calls.extend(thread_calls.into_iter().map(|mut call| {
            call.rtt = call.rtt.map(|id| id + offset);
            call
        }));
    }
    calls.sort_by_key(|call| call.sent_ns);
    // The replay runs on a thread of its own, as the server's stages do:
    // the main thread's allocator arena returns freed memory to the kernel
    // eagerly, which would charge the replay page faults the server's
    // threads do not pay.
    let replica = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let mut replica = replay::Replica::new();
                replica.mirror_setup(&mut rec, &setup_frames)?;
                replica.replay(&mut rec, &calls, REPLAY_BUDGET, MIN_REPLAYED_REQUESTS)?;
                Ok::<_, String>(replica)
            })
            .join()
            .expect("the replay thread does not panic")
    })?;

    let log = &w.log;
    let failed = log.failed + verdict.wrong_replies;
    let layers = per_layer(args, &rec, &replica, log, &server);
    print_env(&env, args, log, &server, &verdict);
    println!(
        "stage replay: {} runs, {} differ from run_prepared; {} requests replayed",
        replica.stage_replays,
        replica.stage_mismatches,
        replica.replayed.len()
    );
    let path = PathBuf::from(OUT_DIR).join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    rec.write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans: {}", path.display());

    let correct = failed == 0 && replica.stage_mismatches == 0 && log.attempted > 0;
    println!("{}", stats::result_line(correct, log.attempted, failed, &layers));
    Ok(correct)
}

/// The per-layer metrics of a traced run. Times and counts are medians,
/// over the requests that entered the layer, of the layer's per-request
/// self time (or count). The set-up requests count too, so every layer a
/// set-up enters (register, the warm-up matches) reports a measured value
/// on every workload; 0 when no request entered it.
fn per_layer(
    args: &Args,
    rec: &Recorder,
    replica: &replay::Replica,
    log: &workload::ThreadLog,
    server: &Json,
) -> BTreeMap<&'static str, Metric> {
    let layers = rec.layer_self_times();
    let counts = rec.layer_counts();
    let med = |map: Option<&BTreeMap<u64, f64>>| {
        median(&map.map(|m| m.values().copied().collect::<Vec<_>>()).unwrap_or_default())
    };
    let mut out = BTreeMap::new();
    for (name, layer) in [
        ("client.request_encode_ms", "client.request_encode"),
        ("client.response_parse_ms", "client.response_parse"),
        ("json.request_parse_ms", "json.request_parse"),
        ("protocol.request_decode_ms", "protocol.request_decode"),
        ("protocol.response_encode_ms", "protocol.response_encode"),
        ("catalog.update_ms", "catalog.update"),
        ("matching.profile_ms", "matching.profile"),
        ("matching.index_ms", "matching.index"),
        ("core.standard_ms", "core.standard"),
        ("core.infer_ms", "core.infer"),
        ("core.score_ms", "core.score"),
        ("core.select_ms", "core.select"),
        ("service.submit_ms", "service.submit"),
        ("service.fingerprint_ms", "service.fingerprint"),
    ] {
        out.insert(name, Metric { value: med(layers.get(layer)), unit: "ms" });
    }
    for (name, unit) in [
        ("protocol.request_bytes", "bytes"),
        ("protocol.response_bytes", "bytes"),
        ("catalog.columns_reused", "count"),
        ("catalog.columns_rebuilt", "count"),
        ("matching.postings_reused", "count"),
        ("matching.postings_rebuilt", "count"),
        ("matching.qgram_profile_builds", "count"),
        ("matching.pairs_scanned", "count"),
        ("matching.pairs_surviving", "count"),
        ("matching.kernel_scores_pruned", "count"),
        ("core.candidate_views", "count"),
        ("core.candidates", "count"),
        ("core.classifier_work_units", "count"),
    ] {
        out.insert(name, Metric { value: med(counts.get(name)), unit });
    }
    let total = |name: &str| counts.get(name).map_or(0.0, |m| m.values().sum::<f64>());
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let scanned = total("matching.pairs_scanned");
    let pruned =
        if scanned > 0.0 { 1.0 - total("matching.pairs_surviving") / scanned } else { 0.0 };
    out.insert("matching.pruning_ratio", Metric { value: pruned, unit: "ratio" });
    out.insert(
        "matching.interner_len",
        Metric { value: replica.interner_len() as f64, unit: "count" },
    );

    // The round trip as the client saw it, and what the replayed server
    // stages grafted under it leave unexplained.
    out.insert("wire.rtt_ms", Metric { value: med(Some(&rec.durations("wire.rtt"))), unit: "ms" });
    let rtt_self = layers.get("wire.rtt");
    let residual: Vec<f64> = replica
        .replayed
        .iter()
        .filter_map(|request| rtt_self.and_then(|m| m.get(request)).copied())
        .collect();
    out.insert("wire.residual_ms", Metric { value: median(&residual), unit: "ms" });

    let t = &replica.tally;
    for (name, num, den) in [
        ("service.result_cache_hit_ratio", log.submit_hits, log.submits),
        ("service.source_cache_hit_ratio", t.source_hits, t.misses),
        (
            "service.restricted_profile_hit_ratio",
            t.restricted_hits,
            t.restricted_hits + t.restricted_misses,
        ),
        ("service.selection_hit_ratio", t.selection_hits, t.selection_hits + t.selection_misses),
    ] {
        out.insert(name, Metric { value: ratio(num as f64, den as f64), unit: "ratio" });
    }

    let server_count = |key: &str| {
        server.get("server").and_then(|s| s.get(key)).and_then(Json::as_f64).unwrap_or(0.0)
    };
    out.insert(
        "server.admission_rejects",
        Metric { value: server_count("admission_rejects"), unit: "count" },
    );
    out.insert(
        "server.deadline_exceeded",
        Metric { value: server_count("deadline_expiries"), unit: "count" },
    );

    let class = args.workload.defining_class();
    let overhead =
        median(&log.latencies(class, Some(true))) - median(&log.latencies(class, Some(false)));
    out.insert("trace.overhead_ms", Metric { value: overhead, unit: "ms" });
    for (name, m) in &out {
        println!("{name:<38} {:>14.4} {}", m.value, m.unit);
    }
    out
}

/// The environment line: what ran, where, and how many ops of each kind.
fn print_env(
    env: &Env,
    args: &Args,
    log: &workload::ThreadLog,
    server: &Json,
    verdict: &oracle::Verdict,
) {
    let ops = |class| Json::Int(log.latencies(class, None).len() as i64);
    let server_stat =
        |key: &str| server.get("server").and_then(|s| s.get(key)).cloned().unwrap_or(Json::Null);
    let line = Json::Object(vec![(
        "env".into(),
        Json::Object(vec![
            ("workload".into(), Json::str(args.workload.name())),
            ("seed".into(), Json::Int(args.seed as i64)),
            ("seconds".into(), Json::Int(args.seconds as i64)),
            ("cores".into(), Json::Int(env.cores as i64)),
            ("server_workers".into(), server_stat("workers")),
            // A whole-millisecond moving average, so reported here rather
            // than as a measured time.
            ("server_service_time_ms".into(), server_stat("service_time_ms")),
            ("commit".into(), Json::str(env.commit.clone())),
            ("source_digest".into(), Json::str(env.source_digest.clone())),
            (
                "ops".into(),
                Json::Object(vec![
                    ("attempted".into(), Json::Int(log.attempted as i64)),
                    ("failed".into(), Json::Int(log.failed as i64)),
                    ("hit".into(), ops(Class::Hit)),
                    ("match".into(), ops(Class::Match)),
                    ("edit".into(), ops(Class::Edit)),
                    ("refresh".into(), ops(Class::Refresh)),
                ]),
            ),
            ("oracle_checked".into(), Json::Int(verdict.checked as i64)),
            ("oracle_wrong_replies".into(), Json::Int(verdict.wrong_replies as i64)),
        ]),
    )]);
    println!("{}", line.to_text());
    if let Some(error) = &log.first_error {
        eprintln!("loadbench: first failure: {error}");
    }
    if let Some(key) = verdict.first_mismatch {
        eprintln!("loadbench: oracle disagrees with the reply for {key:?}");
    }
}

/// The human-readable end-to-end report.
#[derive(Default)]
struct Report {
    lines: Vec<String>,
}

impl Report {
    fn line(&mut self, name: &str, value: f64, unit: &str, note: &str) {
        self.lines.push(format!("{name:<16} {value:>14.4} {unit:<9} {note}"));
    }

    fn percentile(&mut self, name: &str, samples: &[f64], p: f64) {
        self.percentile_unit(name, samples, p, "ms");
    }

    /// A percentile with its sample count and the samples beyond it;
    /// skipped when the workload has no such op.
    fn percentile_unit(&mut self, name: &str, samples: &[f64], p: f64, unit: &str) {
        if let Some((value, beyond)) = percentile(samples, p) {
            let warning = if beyond < 10 { "  (fewer than 10 beyond)" } else { "" };
            let note = format!("n={} beyond={beyond}{warning}", samples.len());
            self.line(name, value, unit, &note);
        }
    }

    fn print(&self) {
        for line in &self.lines {
            println!("{line}");
        }
    }
}
