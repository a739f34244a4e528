//! The QMARL end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-train --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root, where `BENCHMARK.json` declares the
//! workloads and metrics. `--trace 0` measures the untraced program and
//! reports every end-to-end metric; `--trace 1` runs the workload
//! untraced and then traced, reports every per-layer metric, prints the
//! per-layer table and writes a Chrome trace under `.perfbench_out/`.
//! The process pins itself to one CPU before it starts any thread.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `METRICS.md` next to
//! this crate describes the workloads and which layer metric should move
//! which end-to-end metric.

mod nisq_sweep;
mod paper_train;
mod probe;
mod report;
mod serve_closed;
mod timed;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use qmarl_harness::json::Json;

use report::Outcome;

/// Where runs keep their fixtures, checkpoints and trace files.
const OUT_DIR: &str = ".perfbench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value:?} is not 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    };
    if args.seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One declared metric: name and unit.
struct Declared {
    name: String,
    unit: String,
}

/// The workload names and the metric list of `section` from
/// `BENCHMARK.json`.
fn declared(section: &str) -> Result<(Vec<String>, Vec<Declared>), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let json = Json::parse(&text).map_err(|e| format!("parse BENCHMARK.json: {e}"))?;
    let names = |key: &str| -> Result<Vec<&Json>, String> {
        Ok(json
            .get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .collect())
    };
    let workloads = names("workloads")?
        .into_iter()
        .filter_map(|w| w.get("name")?.as_str().map(String::from))
        .collect();
    let metrics = names(section)?
        .into_iter()
        .map(|m| {
            Some(Declared {
                name: m.get("name")?.as_str()?.to_string(),
                unit: m.get("unit")?.as_str()?.to_string(),
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or(format!("a {section} entry lacks a name or unit"))?;
    Ok((workloads, metrics))
}

fn run(args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "paper-train" => paper_train::run(args.seed, args.seconds, args.trace),
        "nisq-sweep" => nisq_sweep::run(args.seed, args.seconds, args.trace, run_dir),
        "serve-closed" => serve_closed::run(args.seed, args.seconds, args.trace, run_dir),
        other => Err(format!("workload {other:?} has no implementation")),
    }
}

/// Prints the traced run's per-layer table: every span name with its
/// calls, rows, busy time and share of the traced side's thread time, op
/// spans with their self time, and the thread time outside every op span
/// as its own row.
fn print_layer_table(outcome: &Outcome) {
    let Some(trace) = &outcome.trace else { return };
    let value = |name: &str| {
        outcome
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    // Thread time of the traced side: op spans plus the time outside them.
    let unattributed = value("trace.unattributed_s");
    let busy: f64 = unattributed
        + trace
            .aggs()
            .iter()
            .filter(|(_, a)| a.op)
            .map(|(_, a)| a.ns as f64 / 1e9)
            .sum::<f64>();
    let share = |s: f64| if busy > 0.0 { 100.0 * s / busy } else { 0.0 };
    println!(
        "{:<26} {:>10} {:>10} {:>11} {:>7} {:>11}",
        "span", "calls", "rows", "total_s", "share%", "self_s"
    );
    for (name, agg) in trace.aggs() {
        let total = agg.ns as f64 / 1e9;
        let self_s = if agg.op {
            format!("{:.6}", agg.self_ns as f64 / 1e9)
        } else {
            "-".into()
        };
        println!(
            "{name:<26} {:>10} {:>10} {total:>11.6} {:>7.2} {self_s:>11}",
            agg.calls,
            agg.rows,
            share(total)
        );
    }
    println!(
        "{:<26} {:>10} {:>10} {unattributed:>11.6} {:>7.2} {:>11}",
        "(unattributed)",
        "-",
        "-",
        share(unattributed),
        "-"
    );
    println!(
        "tracing overhead: traced {:.6} s vs untraced {:.6} s = {:+.2}%",
        value("trace.traced_s"),
        value("trace.untraced_s"),
        value("trace.overhead_pct")
    );
    if trace.dropped() > 0 {
        println!(
            "chrome trace keeps the first {} spans; {} later spans are aggregated only",
            trace::EVENT_CAP,
            trace.dropped()
        );
    }
}

/// A per-layer metric read off the recording: `<span>.calls`,
/// `<span>.rows`, `<span>.s` (busy seconds) or `<span>.self_s`. Spans the
/// workload never opened read 0: that layer did no work.
fn span_metric(trace: &trace::Trace, name: &str) -> f64 {
    let (span, field) = name.rsplit_once('.').unwrap_or((name, ""));
    let agg = trace.get(span);
    match field {
        "calls" => agg.calls as f64,
        "rows" => agg.rows as f64,
        "s" => agg.ns as f64 / 1e9,
        "self_s" => agg.self_ns as f64 / 1e9,
        _ => 0.0,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let (workloads, declared) = match declared(section) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !workloads.contains(&args.workload) {
        eprintln!(
            "perfbench: unknown workload {:?}; BENCHMARK.json declares {workloads:?}",
            args.workload
        );
        return ExitCode::from(2);
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = match report::pin_to_current_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let meta = report::metadata(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        nproc,
        cpu,
    );
    println!(
        "meta {}",
        meta.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    let run_dir = PathBuf::from(OUT_DIR).join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let result = std::fs::create_dir_all(&run_dir)
        .map_err(|e| format!("create {}: {e}", run_dir.display()))
        .and_then(|()| run(&args, &run_dir));
    let _ = std::fs::remove_dir_all(&run_dir);
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        match report::peak_rss_mib() {
            Ok(mib) => outcome.metric("peak_rss_mib", mib),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    for line in &outcome.notes {
        println!("{line}");
    }
    for (gate, ok) in &outcome.gates {
        println!("gate {gate}: {}", if *ok { "pass" } else { "FAIL" });
    }
    print_layer_table(&outcome);
    if let Some(trace) = &outcome.trace {
        let path =
            Path::new(OUT_DIR).join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        match std::fs::write(&path, trace.to_chrome_json()) {
            Ok(()) => println!("chrome trace: {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some((name, _)) = outcome
        .metrics
        .iter()
        .find(|(n, _)| !declared.iter().any(|d| d.name == *n))
    {
        eprintln!("perfbench: metric {name} is not declared in BENCHMARK.json {section}");
        return ExitCode::FAILURE;
    }
    // Every declared metric, in declared order, with its declared unit.
    let mut metrics = Vec::with_capacity(declared.len());
    for d in &declared {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| *n == d.name)
            .map(|(_, v)| *v)
            .or_else(|| outcome.trace.as_ref().map(|t| span_metric(t, &d.name)));
        let Some(value) = value else {
            eprintln!(
                "perfbench: {} produced no value for end-to-end metric {}",
                args.workload, d.name
            );
            return ExitCode::FAILURE;
        };
        println!("metric {:<28} {value:>16.6} {}", d.name, d.unit);
        metrics.push((
            d.name.clone(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(d.unit.clone())),
            ]),
        ));
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct())),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    ExitCode::SUCCESS
}
