//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! mdm-benchmark run [--seed N]                      every workload, both runs, one child process each
//! mdm-benchmark run --workload W --seed N --seconds S --trace 0|1
//!                                                   one run; last stdout line is the result object
//! mdm-benchmark compare FIRST SECOND                two saved outputs against the bounds in BENCHMARK.json
//! ```

use std::process::{Command, ExitCode};
use std::time::Instant;

use mdm_benchmark::client::{Driver, Reference, Tally};
use mdm_benchmark::metrics::{Metric, MetricDef, END_TO_END, PER_LAYER};
use mdm_benchmark::scenario::{Scenario, Workload};
use mdm_benchmark::sys::TempDir;
use mdm_benchmark::{compare, oracle, stats, sys, trace, window};
use mdm_server::{ServerConfig, ServerHandle};

/// Measured seconds of a window when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 24.0;
/// Set-ups per run: this process's own plus fresh child processes that
/// stop after the warm-up. `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    setup_only: bool,
}

fn parse_args(mut words: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        setup_only: false,
    };
    while let Some(word) = words.next() {
        let mut value = |flag: &str| words.next().ok_or(format!("{flag} needs a value"));
        match word.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|_| "--seed takes a u64")?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            "--quick" => args.quick = true,
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.quick {
        args.seconds = 2.0;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let born = Instant::now();
    let mut words = std::env::args().skip(1).peekable();
    let outcome = match words.peek().map(String::as_str) {
        Some("compare") => {
            let files: Vec<String> = words.skip(1).collect();
            match files.as_slice() {
                [first, second] => compare::run(first, second),
                _ => Err("compare takes two files".to_string()),
            }
        }
        other => {
            if other == Some("run") {
                words.next();
            }
            parse_args(words).and_then(|args| match args.workload {
                Some(workload) => single(workload, &args, born),
                None => full(&args),
            })
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("mdm-benchmark: {error}");
            ExitCode::from(2)
        }
    }
}

/// This process re-executed with other arguments; its stdout.
fn child(args: &[String]) -> Result<(bool, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    Ok((
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    ))
}

fn print_environment(workload: Workload, args: &Args, scenario: &Scenario) {
    let config = ServerConfig::default();
    println!("env commit {}", sys::git_head());
    println!("env nproc {}", sys::nproc());
    println!("env workload {}", workload.name());
    println!("env seed {}", args.seed);
    println!("env seconds {}", args.seconds);
    println!("env quick {}", args.quick);
    println!("env clients {}", workload.clients());
    println!(
        "env server workers={} max_pending={} read_timeout_s={} stream_workers={} pool_size={:?} \
         batch_size={:?} layout={:?} optimize={:?} fsync={}",
        config.workers,
        config.max_pending,
        config.read_timeout.as_secs(),
        config.stream_workers,
        config.pool_size,
        config.batch_size,
        config.layout,
        config.optimize,
        if workload == Workload::EvolutionChurn {
            "never (journal in benchmark/out)"
        } else {
            "n/a (no journal)"
        },
    );
    println!(
        "env sizes scan_rows={} warmup_passes={} trace_queries={} trace_releases={} churn_rounds={} \
         window_steps={} traced_steps={}",
        scenario.scale.scan_rows,
        scenario.scale.warmup_passes,
        scenario.scale.trace_queries,
        scenario.scale.trace_releases,
        scenario.scale.churn_rounds,
        scenario.window.len(),
        scenario.traced.len(),
    );
}

/// The value with all its digits; JSON has no NaN or infinity.
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn print_metrics(
    workload: Workload,
    defs: &[MetricDef],
    measured: &[Metric],
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(defs.len());
    for def in defs {
        let metric = measured
            .iter()
            .find(|m| m.name == def.name)
            .ok_or(format!("{} was not measured", def.name))?;
        let samples = metric.samples.map_or(String::new(), |n| format!(" n={n}"));
        println!(
            "metric {} {} {} {}{samples}",
            workload.name(),
            def.name,
            number(metric.value),
            def.unit
        );
        fields.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            number(metric.value),
            def.unit
        ));
    }
    Ok(fields.join(", "))
}

/// One run of one workload: `--trace 0` measures the window, `--trace 1`
/// the layers. `Ok(false)` when an answer was wrong or an operation failed.
fn single(workload: Workload, args: &Args, born: Instant) -> Result<bool, String> {
    let scenario = Scenario::new(workload, args.seed, args.quick);
    let mut tally = Tally::default();
    if args.setup_only {
        let (server, _wal_dir, _) = warm_up(&scenario, &mut tally);
        let seconds = born.elapsed().as_secs_f64();
        server.shutdown();
        println!("{seconds}");
        return Ok(tally.failed == 0);
    }
    print_environment(workload, args, &scenario);
    let (defs, measured, verdict) = if args.trace {
        let measured = trace::run(&scenario, &mut tally)
            .map_err(|error| format!("traced run failed: {error}"))?;
        (PER_LAYER, measured, Ok(()))
    } else {
        let (measured, verdict) = measure(&scenario, args, born, &mut tally)?;
        (END_TO_END, measured, verdict)
    };
    let metrics = print_metrics(workload, defs, &measured)?;
    let failed_share = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "metric {} failed_share {} ratio",
        workload.name(),
        number(failed_share)
    );
    for error in &tally.errors {
        println!("failure {error}");
    }
    if let Err(error) = &verdict {
        println!("failure oracle: {error}");
    }
    println!(
        "wall {} {:.1} s",
        workload.name(),
        born.elapsed().as_secs_f64()
    );
    let correct = verdict.is_ok() && tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        tally.attempted.max(1),
        tally.failed,
    );
    Ok(correct)
}

/// Set-up: build the system, serve it, and run the fixed-count warm-up.
/// The first pass is the reference every later answer must reproduce; the
/// oracle judges it after the window.
fn warm_up(scenario: &Scenario, tally: &mut Tally) -> (ServerHandle, Option<TempDir>, Reference) {
    let (server, wal_dir) = window::start_server(scenario, scenario.build_mdm());
    let mut driver = Driver::new(scenario, server.addr());
    let reference = driver
        .pass(&scenario.window, None, tally)
        .expect("a pass without a reference records one");
    for _ in 1..scenario.scale.warmup_passes {
        driver.pass(&scenario.window, Some(&reference), tally);
    }
    (server, wal_dir, reference)
}

/// Set-up → warm-up → measured window → oracle → set-up probes. Returns the
/// end-to-end metrics and the oracle's verdict.
fn measure(
    scenario: &Scenario,
    args: &Args,
    born: Instant,
    tally: &mut Tally,
) -> Result<(Vec<Metric>, Result<(), String>), String> {
    let workload = scenario.workload;
    let (server, wal_dir, reference) = warm_up(scenario, tally);
    let own_setup = born.elapsed().as_secs_f64();

    let blocks = if workload == Workload::EvolutionChurn {
        // Every churn block serves a fresh system of its own.
        server.shutdown();
        drop(wal_dir);
        window::churn_window(scenario, &reference, args.seconds)
    } else {
        let blocks = window::read_window(scenario, &server, &reference, args.seconds);
        server.shutdown();
        blocks
    };
    // Before the oracle builds its own copy of the ecosystem.
    let peak_rss_mb = sys::peak_rss_mb();
    let summary = window::summarise(&blocks)?;
    for block in blocks {
        tally.merge(block.tally);
    }
    let verdict = oracle::verify(scenario, &scenario.window, &reference);

    let mut setups = vec![own_setup];
    if !args.quick {
        for _ in 1..SETUPS {
            let (ok, stdout) = child(&[
                "--workload".to_string(),
                workload.name().to_string(),
                "--seed".to_string(),
                args.seed.to_string(),
                "--setup-only".to_string(),
            ])?;
            match (ok, stdout.trim().parse::<f64>()) {
                (true, Ok(seconds)) => setups.push(seconds),
                _ => return Err(format!("set-up probe failed: {stdout}")),
            }
        }
    }
    println!(
        "info {} raw {} setups_s={setups:.3?}",
        workload.name(),
        summary.raw
    );
    if let Some(visible) = summary.release_visible_p50_ms {
        println!(
            "metric {} release_visible_p50_ms {} ms",
            workload.name(),
            number(visible)
        );
    }
    let n = summary.samples;
    let speed = window::REFERENCE_CALIBRATION_S / summary.calibration_s;
    let measured = vec![
        Metric::timed("latency_p50_ms", summary.latency_p50_ms, n),
        Metric::timed("latency_p95_ms", summary.latency_p95_ms, n),
        Metric::timed("throughput_qps", summary.throughput_qps, n),
        Metric::timed("cpu_ms_per_query", summary.cpu_ms_per_query, n),
        Metric::new("peak_rss_mb", peak_rss_mb),
        Metric::timed(
            "setup_s",
            stats::median(setups.clone()) * speed,
            setups.len(),
        ),
    ];
    Ok((measured, verdict))
}

/// Every workload, window and traced run, one child process per run:
/// `TermDict`, the intern pool, the stats catalog and the data-plane
/// counters are process-wide and never shrink, so runs sharing a process
/// would measure each other's residue.
fn full(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let mut all_correct = true;
    for workload in Workload::ALL {
        for trace in ["0", "1"] {
            let mut words = vec![
                "--workload".to_string(),
                workload.name().to_string(),
                "--seed".to_string(),
                args.seed.to_string(),
                "--seconds".to_string(),
                args.seconds.to_string(),
                "--trace".to_string(),
                trace.to_string(),
            ];
            if args.quick {
                words.push("--quick".to_string());
            }
            let (ok, stdout) = child(&words)?;
            print!("{stdout}");
            all_correct &= ok;
        }
    }
    println!("wall total {:.1} s", started.elapsed().as_secs_f64());
    Ok(all_correct)
}
