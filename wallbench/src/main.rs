//! Wall-clock benchmark of the CONFIDE node.
//!
//! ```text
//! wallbench --workload <transfer_wal|abs_100k_rw|consortium4> --seed <n>
//!           --seconds <s> --trace <0|1> [--txs <per round>]
//! ```
//!
//! With `--trace 0` it runs rounds for `--seconds`: each round stands up
//! fresh in-process `NodeServer`s, drives the workload's pre-sealed
//! transactions through a saturating closed window over loopback TCP,
//! and checks every receipt. It prints the end-to-end metrics, each the
//! median over rounds of that round's own figure. With `--trace 1` it
//! runs one round, replays the committed blocks layer by layer with a
//! span around every call, prints the per-layer metrics, and writes the
//! spans to `.wallbench/trace-<workload>-s<seed>.jsonl`. Once its rounds
//! have run, the last line of standard output is one JSON object; a
//! broken correctness gate makes it say `"correct": false` and the exit
//! code non-zero. A round that cannot run at all exits non-zero at once.

mod e2e;
mod gen;
mod replay;
mod stats;

use e2e::{Round, Workload};
use replay::Metric;
use stats::{median, Summary, Trace};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Set-up samples a run aims for: one per round, topped up with
/// stand-ups that run no traffic.
const SETUP_SAMPLES: usize = 9;

/// Longest a run spends on the extra set-up samples.
const SETUP_TOP_UP: Duration = Duration::from_secs(3);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    txs: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut txs) = (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or(format!(
                    "unknown workload {value} (want {})",
                    e2e::WORKLOADS.map(|w| w.name).join(", ")
                ))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--txs" => txs = Some(num()?.max(1) as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        txs,
    })
}

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

fn summary_line(name: &str, s: &Summary) -> String {
    format!(
        "{name}: p50 {:.4} ms, {} {:.4} ms over {} samples",
        s.p50,
        s.tail_label(),
        s.tail,
        s.n
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wallbench: {e}");
            std::process::exit(2);
        }
    };
    let w = Workload {
        txs: args.txs.unwrap_or(args.workload.txs),
        ..args.workload
    };
    run(w, &args);
}

fn run(w: Workload, args: &Args) {
    let seed = args.seed;
    let threads = e2e::server_threads();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "wallbench workload={} seed={seed} trace={} nproc={nproc} exec_threads={threads} \
         verify_threads={threads} members={} writers={} window={} txs_per_round={} reads={:?}",
        w.name,
        u8::from(args.trace),
        w.members(),
        w.writers,
        w.window,
        w.txs,
        w.reads
    );

    // Inputs, sealed before any node exists: outside set-up and timing.
    let pk_tx = w.pk_tx();
    let txs = gen::seal(w.call(), seed, w.txs, &pk_tx, nproc);
    let probe = gen::seal(w.call(), !seed, 1, &pk_tx, 1).remove(0);
    let senders = e2e::sender_addresses(seed);

    let out = std::env::current_dir()
        .expect("current directory")
        .join(".wallbench");
    let dir: PathBuf = out.join(format!("run-{}", std::process::id()));
    let mut trace = Trace::new();
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    loop {
        let began = Instant::now();
        let round = match e2e::run_round(&w, &txs, &probe, &senders, &dir, seed, args.trace) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("wallbench: round {} failed: {e}", rounds.len());
                let _ = std::fs::remove_dir_all(&dir);
                std::process::exit(1);
            }
        };
        let lat = Summary::of(&round.commit_ms());
        println!(
            "round {}: setup_s {:.4} tps {:.2} commit p50 {:.3} ms {} {:.3} ms (n={}) reads {} busy_retries {} failed {} broken {}",
            rounds.len(),
            round.setup_s,
            round.tps(),
            lat.p50,
            lat.tail_label(),
            lat.tail,
            lat.n,
            round.read_ms.len(),
            round.busy_retries,
            round.failed.len(),
            round.broken.len()
        );
        for f in round.failed.iter().chain(&round.broken).take(10) {
            eprintln!("wallbench: {f}");
        }
        rounds.push(round);
        // Start another round only if one as long as this one still
        // fits in the budget.
        if args.trace || start.elapsed() + began.elapsed() > budget {
            break;
        }
    }
    let mut setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let top_up = Instant::now();
    while !args.trace && setups.len() < SETUP_SAMPLES && top_up.elapsed() < SETUP_TOP_UP {
        match e2e::setup_only(&w, &senders, &dir, &probe) {
            Ok(s) => setups.push(s),
            Err(e) => {
                eprintln!("wallbench: set-up failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let attempted: usize = rounds.iter().map(|r| r.attempted).sum();
    let failed: usize = rounds.iter().map(|r| r.failed.len()).sum();
    let mut broken: usize = rounds.iter().map(|r| r.broken.len()).sum();
    // Each round is summarised on its own and the run reports the median
    // over rounds, so one disturbed round does not move the result.
    let over_rounds = |f: &dyn Fn(&Round) -> f64| {
        median(&rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    let tps = over_rounds(&Round::tps);
    let commit_p50 = over_rounds(&|r| Summary::of(&r.commit_ms()).p50);
    let commit_tail = over_rounds(&|r| Summary::of(&r.commit_ms()).tail);
    let setup_s = median(&setups).unwrap_or(f64::NAN);
    let read_ms: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.read_ms.iter().copied())
        .collect();
    let read = Summary::of(&read_ms);
    println!("tps: median {tps:.2} tx/s over {} rounds", rounds.len());
    println!(
        "setup_s: median {setup_s:.4} s over {} set-ups",
        setups.len()
    );
    println!(
        "commit: median over {} rounds of p50 {commit_p50:.4} ms and of tail {commit_tail:.4} ms",
        rounds.len()
    );
    // Reads and peak memory are reported but not bounded: see the README.
    println!("{}", summary_line("read", &read));
    let rss = e2e::peak_rss_mb();
    println!("peak_rss_mb: {rss:.2} MiB");

    let metrics: Vec<Metric> = if args.trace {
        let last = rounds.last().expect("at least one round");
        for &(i, sent, replied) in &last.commit_at {
            trace.push(
                "gen.submit_wait",
                trace.at(sent),
                trace.at(replied),
                None,
                confide_crypto::hex(&txs[i].wire_hash),
            );
        }
        match replay::layers(&w, &senders, last, commit_p50, &read, &mut trace, &dir) {
            Ok((metrics, lines)) => {
                for l in lines {
                    println!("{l}");
                }
                metrics
                    .into_iter()
                    .chain([("process.peak_rss_mb", rss, "MiB")])
                    .collect()
            }
            Err(e) => {
                eprintln!("wallbench: {e}");
                broken += 1;
                Vec::new()
            }
        }
    } else {
        vec![
            ("setup_s", setup_s, "s"),
            ("tps", tps, "tx/s"),
            ("commit_p50_ms", commit_p50, "ms"),
            ("commit_p99_ms", commit_tail, "ms"),
        ]
    };
    let _ = std::fs::remove_dir_all(&dir);
    if args.trace {
        let path = out.join(format!("trace-{}-s{seed}.jsonl", w.name));
        match std::fs::write(&path, trace.to_jsonl()) {
            Ok(()) => println!("spans: {} written to {}", trace.spans.len(), path.display()),
            Err(e) => {
                eprintln!("wallbench: write {}: {e}", path.display());
                broken += 1;
            }
        }
    }
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            eprintln!("wallbench: metric {name} is not a number");
            broken += 1;
        }
        println!("metric {name} = {value} {unit}");
    }
    let correct = broken == 0;
    print_result(correct, attempted, failed, &metrics);
    if !correct {
        std::process::exit(1);
    }
}
