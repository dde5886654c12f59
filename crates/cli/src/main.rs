//! The `mdm` REPL: a thin stdin loop around [`mdm_cli::Session`].
//!
//! Run with `cargo run -p mdm-cli` and type `help`. A script can be piped:
//!
//! ```sh
//! printf 'setup football\nshow global\nquit\n' | cargo run -p mdm-cli
//! ```
//!
//! Flags:
//!
//! * `--fault-seed <n>` — arm deterministic fault injection (seed `n`) on
//!   every system the session loads (same as the `faults <n>` command).
//! * `--deadline-ms <n>` — bound every query (REPL and served) by `n` ms.
//! * `--threads <n>` — execution-pool size for query fan-out (`1` forces
//!   the sequential path; default sizes from `available_parallelism`).
//! * `--batch-size <n>` — operator batch width while draining queries
//!   (`0` restores the default; the executor adapts down for small inputs).
//! * `--optimize off|cost` — plan optimization: the stats-driven cost
//!   pipeline (default) or none. Results are byte-identical in both modes.
//! * `--data-dir <dir>` — durable metadata: recover the journal in `dir`
//!   (or create one) and append every steward mutation to its WAL.
//! * `--fsync <policy>` — WAL durability for `--data-dir`: `always`
//!   (default), `never`, or `interval[:ms]`.

use std::io::{BufRead, Write};

use mdm_cli::{Outcome, Session};

fn parse_flags(session: &mut Session) -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let mut data_dir: Option<std::path::PathBuf> = None;
    while let Some(flag) = args.next() {
        let value = |args: &mut dyn Iterator<Item = String>| {
            args.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--fault-seed" => {
                let raw = value(&mut args)?;
                let seed = raw
                    .parse::<u64>()
                    .map_err(|_| format!("--fault-seed: '{raw}' is not an unsigned integer"))?;
                session.set_fault_seed(Some(seed));
            }
            "--deadline-ms" => {
                let raw = value(&mut args)?;
                let ms = raw
                    .parse::<u64>()
                    .map_err(|_| format!("--deadline-ms: '{raw}' is not an unsigned integer"))?;
                session.set_deadline_ms(Some(ms));
            }
            "--threads" => {
                let raw = value(&mut args)?;
                let threads = raw
                    .parse::<usize>()
                    .map_err(|_| format!("--threads: '{raw}' is not an unsigned integer"))?;
                session.set_threads(Some(threads));
            }
            "--batch-size" => {
                let raw = value(&mut args)?;
                let batch = raw
                    .parse::<usize>()
                    .map_err(|_| format!("--batch-size: '{raw}' is not an unsigned integer"))?;
                session.set_batch_size(Some(batch));
            }
            "--optimize" => {
                let raw = value(&mut args)?;
                let mode = mdm_relational::OptimizeMode::parse(&raw)
                    .ok_or_else(|| format!("--optimize: unknown mode '{raw}' (off | cost)"))?;
                session.set_optimize(Some(mode));
            }
            "--data-dir" => {
                data_dir = Some(std::path::PathBuf::from(value(&mut args)?));
            }
            "--fsync" => {
                let raw = value(&mut args)?;
                let policy =
                    mdm_core::FsyncPolicy::parse(&raw).map_err(|e| format!("--fsync: {e}"))?;
                session.set_fsync(policy);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: mdm [--fault-seed <n>] [--deadline-ms <n>] [--threads <n>] \
                     [--batch-size <n>] [--optimize off|cost] [--data-dir <dir>] \
                     [--fsync always|never|interval[:ms]]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    // Open the store last so --fsync applies regardless of flag order.
    if let Some(dir) = data_dir {
        let report = session.open_data_dir(&dir)?;
        println!("{report}");
    }
    Ok(())
}

fn main() {
    let stdin = std::io::stdin();
    let mut session = Session::new();
    if let Err(message) = parse_flags(&mut session) {
        eprintln!("{message}");
        std::process::exit(2);
    }
    println!("MDM — Metadata Management System (type 'help')");
    let mut prompt = "mdm> ";
    print!("{prompt}");
    let _ = std::io::stdout().flush();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        match session.interpret(&line) {
            Outcome::Text(text) => {
                if !text.is_empty() {
                    println!("{text}");
                }
                prompt = "mdm> ";
            }
            Outcome::NeedMore => {
                prompt = "  ...> ";
            }
            Outcome::Quit => return,
        }
        print!("{prompt}");
        let _ = std::io::stdout().flush();
    }
}
