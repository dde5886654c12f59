//! The measured window: closed-loop clients against the in-process server,
//! cut into blocks. Every timing metric is the median of its block values
//! (one slow second cannot move it), and every block value is scaled by
//! the calibration loop run just before and just after the block (a slow
//! minute of the host cannot move it either).

use std::time::{Duration, Instant};

use mdm_core::{FsyncPolicy, Mdm};
use mdm_server::{ServerConfig, ServerHandle};

use crate::client::{Driver, Reference, Tally};
use crate::scenario::{Scenario, Workload};
use crate::stats::{median, percentile, sort};
use crate::sys::{calibrate, Stopwatch, TempDir};

/// Blocks per window of a read workload: long enough that the slowest
/// workload (~10 answers a second) has some twenty samples in each.
pub const BLOCKS: usize = 12;

/// What [`calibrate`] takes on the reference box in a quiet minute. Block
/// timings are multiplied by `REFERENCE_CALIBRATION_S ÷ measured`, so the
/// reported milliseconds are milliseconds at that speed; the constant only
/// fixes the scale and cancels in every comparison.
pub const REFERENCE_CALIBRATION_S: f64 = 0.020;

/// The configuration every workload serves under: the shipping defaults.
/// `evolution_churn` adds a journal in a fresh directory (returned, and
/// removed when dropped), because releases are what it measures, with
/// `FsyncPolicy::Never`, because the sandbox disk is not a device under
/// test.
pub fn server_config(workload: Workload) -> (ServerConfig, Option<TempDir>) {
    let mut config = ServerConfig::default();
    let dir = (workload == Workload::EvolutionChurn).then(|| TempDir::new("wal"));
    if let Some(dir) = &dir {
        config.data_dir = Some(dir.path().to_path_buf());
        config.fsync = FsyncPolicy::Never;
    }
    (config, dir)
}

/// A server over `mdm`, plus the WAL directory it owns (churn only).
pub fn start_server(scenario: &Scenario, mdm: Mdm) -> (ServerHandle, Option<TempDir>) {
    let (config, dir) = server_config(scenario.workload);
    let server = mdm_server::serve(config, mdm).expect("loopback server starts");
    (server, dir)
}

/// One block of the window.
pub struct Block {
    /// Mean of the calibration runs just before and just after the block.
    pub calibration_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub tally: Tally,
}

/// Runs `body` as one block: clocks, body, clocks, calibration. The
/// trailing calibration is handed to the next block as its leading one.
fn block(leading: &mut f64, body: impl FnOnce() -> Tally) -> Block {
    let watch = Stopwatch::start();
    let tally = body();
    let (wall_s, cpu_s) = watch.elapsed();
    let trailing = calibrate();
    let calibration_s = (*leading + trailing) / 2.0;
    *leading = trailing;
    Block {
        calibration_s,
        wall_s,
        cpu_s,
        tally,
    }
}

/// Read workloads: `clients` connections each repeat the query until the
/// block's deadline; the block ends when the last in-flight answer lands.
pub fn read_window(
    scenario: &Scenario,
    server: &ServerHandle,
    reference: &Reference,
    seconds: f64,
) -> Vec<Block> {
    let block_time = Duration::from_secs_f64(seconds / BLOCKS as f64);
    let mut drivers: Vec<Driver> = (0..scenario.workload.clients())
        .map(|_| Driver::new(scenario, server.addr()))
        .collect();
    let mut calibration = calibrate();
    (0..BLOCKS)
        .map(|_| {
            block(&mut calibration, || {
                let deadline = Instant::now() + block_time;
                let mut merged = Tally::default();
                std::thread::scope(|scope| {
                    let clients: Vec<_> = drivers
                        .iter_mut()
                        .map(|driver| {
                            scope.spawn(move || {
                                let mut tally = Tally::default();
                                while Instant::now() < deadline {
                                    driver.pass(&scenario.window, Some(reference), &mut tally);
                                }
                                tally
                            })
                        })
                        .collect();
                    for client in clients {
                        merged.merge(client.join().expect("client thread panicked"));
                    }
                });
                merged
            })
        })
        .collect()
}

/// `evolution_churn`: each block is one pass of the whole script over one
/// connection against a *fresh* system (state accumulates within a pass,
/// so only fresh passes do identical work). Blocks repeat until `seconds`
/// of script time have been measured; server start and stop are outside
/// the block.
pub fn churn_window(scenario: &Scenario, reference: &Reference, seconds: f64) -> Vec<Block> {
    let mut blocks: Vec<Block> = Vec::new();
    let mut calibration = calibrate();
    while blocks.iter().map(|b| b.wall_s).sum::<f64>() < seconds {
        let (server, _dir) = start_server(scenario, scenario.build_mdm());
        let mut driver = Driver::new(scenario, server.addr());
        blocks.push(block(&mut calibration, || {
            let mut tally = Tally::default();
            driver.pass(&scenario.window, Some(reference), &mut tally);
            tally
        }));
        server.shutdown();
    }
    blocks
}

/// The window's end-to-end numbers: each the median of its block values,
/// every block value scaled to the reference speed.
pub struct WindowMetrics {
    pub latency_p50_ms: f64,
    pub latency_p95_ms: f64,
    pub throughput_qps: f64,
    pub cpu_ms_per_query: f64,
    /// `None` when the window made no release.
    pub release_visible_p50_ms: Option<f64>,
    /// Correct analyst answers in the whole window (the `n` beside every
    /// timing).
    pub samples: usize,
    /// Median calibration time over the window: `setup_s` is scaled by it.
    pub calibration_s: f64,
    /// The unscaled block medians and each block's calibration, for a
    /// reader who wants to see what the scaling did.
    pub raw: String,
}

/// `Err` when some block has no correct answer to time.
pub fn summarise(blocks: &[Block]) -> Result<WindowMetrics, String> {
    let mut p50 = Vec::new();
    let mut p95 = Vec::new();
    let mut qps = Vec::new();
    let mut cpu = Vec::new();
    let mut visible = Vec::new();
    let mut raw_p50 = Vec::new();
    let mut raw_qps = Vec::new();
    let mut samples = 0;
    for block in blocks {
        let mut latencies = block.tally.latencies();
        if latencies.is_empty() {
            return Err("a block finished without one correct answer".to_string());
        }
        sort(&mut latencies);
        samples += latencies.len();
        let answers = latencies.len() as f64;
        let scale = REFERENCE_CALIBRATION_S / block.calibration_s;
        p50.push(percentile(&latencies, 0.50) * scale);
        p95.push(percentile(&latencies, 0.95) * scale);
        qps.push(answers / (block.wall_s * scale));
        cpu.push(block.cpu_s * 1e3 / answers * scale);
        if !block.tally.visible_ms.is_empty() {
            visible.push(median(block.tally.visible_ms.clone()) * scale);
        }
        raw_p50.push(percentile(&latencies, 0.50));
        raw_qps.push(answers / block.wall_s);
    }
    let calibrations: Vec<f64> = blocks.iter().map(|b| b.calibration_s).collect();
    Ok(WindowMetrics {
        latency_p50_ms: median(p50),
        latency_p95_ms: median(p95),
        throughput_qps: median(qps),
        cpu_ms_per_query: median(cpu),
        release_visible_p50_ms: (!visible.is_empty()).then(|| median(visible)),
        samples,
        calibration_s: median(calibrations.clone()),
        raw: format!(
            "latency_p50_ms={} throughput_qps={} blocks={} calibration_ms={:.1?}",
            median(raw_p50),
            median(raw_qps),
            blocks.len(),
            calibrations.iter().map(|s| s * 1e3).collect::<Vec<_>>()
        ),
    })
}
