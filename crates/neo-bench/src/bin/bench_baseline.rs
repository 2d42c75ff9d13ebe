//! Performance-regression gate over the six gated criterion bench targets.
//!
//! Runs `cargo bench` for each target in quick mode with the criterion shim's JSON
//! emission enabled (`CRITERION_JSON_DIR`), collects the per-benchmark estimates, and
//! either records them as the checked-in baselines (`BENCH_<bench>.json` at the
//! repository root) or diffs the fresh numbers against those baselines:
//!
//! ```text
//! # refresh the checked-in baselines (run on the reference machine)
//! cargo run -p neo-bench --bin bench_baseline -- --write-baseline
//!
//! # fail (exit 1) if any benchmark's mean regressed more than 50% vs its baseline
//! cargo run -p neo-bench --bin bench_baseline -- --check-baseline 0.5
//! ```
//!
//! `--samples <n>` controls the quick-mode sample count (default 10) and `--no-run`
//! skips the bench invocation and diffs the JSON already in `target/criterion-json`
//! (useful when iterating on tolerances). A regression must clear **two** bars:
//!
//! 1. `current_median > baseline_median * (1 + tolerance)` — the median, not the
//!    mean, because scheduler jitter skews a handful of quick-mode samples far more
//!    than it shifts their middle; and
//! 2. the ~95% confidence intervals on the means (`mean ± 2·stddev/√samples`, from
//!    the shim's recorded `stddev_ns`) must **not** overlap in the regression
//!    direction — a median excursion whose interval still touches the baseline's is
//!    reported as `noise`, not a failure.
//!
//! The second bar is what lets the tolerance sit well below the old shared-CI-runner
//! worst case: a genuinely noisy sample set widens its own interval and exonerates
//! itself, while a real slowdown shifts the whole distribution and cannot. Improvements
//! never fail. Missing or extra benchmark ids fail the check too — they mean the
//! baselines are stale.
//!
//! Reports carry `threads` (the rayon pool width at measurement time) and
//! `sample_size` metadata. A check against a baseline recorded at a different thread
//! count fails outright — parallel kernels scale with the pool, so such medians are
//! incommensurable. To keep that impossible to trip by accident, the spawned bench
//! processes always run with `RAYON_NUM_THREADS` pinned to `--threads` (default 1, the
//! width the committed baselines are recorded at), regardless of the ambient machine
//! or environment; pass `--threads <n>` to both `--write-baseline` and
//! `--check-baseline` to work at another width. Differing sample counts (judged from
//! the per-benchmark `samples` actually taken — bench groups may override the
//! quick-mode setting) only print a note.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use serde::{Deserialize, Serialize};

/// The criterion bench targets of `neo-bench` that have a checked-in baseline.
const BENCHES: [&str; 6] = ["cluster", "kernels", "kvcache", "pipeline", "scheduler", "sim"];

/// Quick-mode sample count used when `--samples` is not given.
const DEFAULT_SAMPLES: usize = 10;

/// Pool width the benches run at when `--threads` is not given — the width the
/// committed `BENCH_*.json` baselines are recorded at, so a refresh on a many-core
/// workstation cannot silently produce baselines CI's pinned runs would reject.
const DEFAULT_THREADS: usize = 1;

/// Mirror of the JSON report the criterion shim writes (see `shims/README.md`).
///
/// `threads` is the rayon pool width the numbers were measured at and
/// `sample_size` the effective `CRITERION_SAMPLE_SIZE`; medians measured at a
/// different parallelism are not comparable, so the check refuses mismatched
/// thread counts instead of reporting bogus regressions/improvements.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchReport {
    bench: String,
    threads: usize,
    sample_size: usize,
    benchmarks: Vec<BenchEstimate>,
}

/// One benchmark's estimate within a report.
///
/// `stddev_ns` is the sample standard deviation (n − 1 divisor) the shim records
/// alongside the point estimates; the check uses it to build the confidence interval
/// that separates real regressions from quick-mode noise.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchEstimate {
    id: String,
    mean_ns: f64,
    median_ns: f64,
    best_ns: f64,
    stddev_ns: f64,
    samples: usize,
}

/// Half-width of the ~95% confidence interval on the mean: `2·stddev/√samples`.
///
/// Single-sample estimates record a stddev of 0, so their interval is a point — the
/// variance term never rescues a measurement that carries no variance information.
fn ci_half_width(estimate: &BenchEstimate) -> f64 {
    if estimate.samples <= 1 {
        0.0
    } else {
        2.0 * estimate.stddev_ns / (estimate.samples as f64).sqrt()
    }
}

#[derive(Debug, Clone)]
enum Mode {
    WriteBaseline,
    CheckBaseline { tolerance: f64 },
}

#[derive(Debug, Clone)]
struct Args {
    mode: Mode,
    samples: usize,
    threads: usize,
    run_benches: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut mode = None;
    let mut samples = DEFAULT_SAMPLES;
    let mut threads = DEFAULT_THREADS;
    let mut run_benches = true;
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--write-baseline" => mode = Some(Mode::WriteBaseline),
            "--check-baseline" => {
                let tol = argv
                    .next()
                    .ok_or("--check-baseline needs a tolerance, e.g. 0.5 for +50%")?
                    .parse::<f64>()
                    .map_err(|e| format!("invalid tolerance: {e}"))?;
                if tol <= -1.0 {
                    return Err("tolerance must be greater than -1".into());
                }
                mode = Some(Mode::CheckBaseline { tolerance: tol });
            }
            "--samples" => {
                samples = argv
                    .next()
                    .ok_or("--samples needs a count")?
                    .parse::<usize>()
                    .map_err(|e| format!("invalid sample count: {e}"))?
                    .max(1);
            }
            "--threads" => {
                threads = argv
                    .next()
                    .ok_or("--threads needs a pool width")?
                    .parse::<usize>()
                    .map_err(|e| format!("invalid thread count: {e}"))?
                    .max(1);
            }
            "--no-run" => run_benches = false,
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let mode = mode.ok_or("pass --write-baseline or --check-baseline <tolerance>")?;
    Ok(Args { mode, samples, threads, run_benches })
}

/// Repository root: two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

fn baseline_path(root: &Path, bench: &str) -> PathBuf {
    root.join(format!("BENCH_{bench}.json"))
}

fn current_path(json_dir: &Path, bench: &str) -> PathBuf {
    json_dir.join(format!("{bench}.json"))
}

fn load_report(path: &Path) -> Result<BenchReport, String> {
    let body = std::fs::read_to_string(path)
        .map_err(|e| format!("could not read {}: {e}", path.display()))?;
    serde_json::from_str(&body).map_err(|e| format!("could not parse {}: {e}", path.display()))
}

/// Runs one bench target with JSON emission into `json_dir`, the pool width pinned to
/// `threads` (the spawned process resolves `RAYON_NUM_THREADS` fresh, so the ambient
/// machine or environment cannot leak into the recorded metadata).
fn run_bench(bench: &str, json_dir: &Path, samples: usize, threads: usize) -> Result<(), String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    println!("== running bench target `{bench}` ({samples} samples, {threads} thread(s)) ==");
    let status = Command::new(cargo)
        .args(["bench", "-p", "neo-bench", "--bench", bench])
        .env("CRITERION_JSON_DIR", json_dir)
        .env("CRITERION_SAMPLE_SIZE", samples.to_string())
        .env("RAYON_NUM_THREADS", threads.to_string())
        .status()
        .map_err(|e| format!("could not spawn cargo bench: {e}"))?;
    if !status.success() {
        return Err(format!("cargo bench --bench {bench} failed with {status}"));
    }
    Ok(())
}

/// One row of the comparison table.
struct Comparison {
    id: String,
    baseline_ns: f64,
    current_ns: f64,
    /// The median breached the tolerance but the confidence intervals still overlap —
    /// reported, not failed.
    within_noise: bool,
    regressed: bool,
}

/// Classifies one current estimate against its baseline: a regression needs the median
/// over tolerance *and* clearly separated confidence intervals; an over-tolerance
/// median whose interval still overlaps the baseline's is noise.
fn classify(base: &BenchEstimate, cur: &BenchEstimate, tolerance: f64) -> Comparison {
    let median_breached = cur.median_ns > base.median_ns * (1.0 + tolerance);
    let separated = cur.mean_ns - ci_half_width(cur) > base.mean_ns + ci_half_width(base);
    Comparison {
        id: base.id.clone(),
        baseline_ns: base.median_ns,
        current_ns: cur.median_ns,
        within_noise: median_breached && !separated,
        regressed: median_breached && separated,
    }
}

/// Diffs current estimates against the baseline; `Err` rows are id mismatches.
fn compare(
    baseline: &BenchReport,
    current: &BenchReport,
    tolerance: f64,
) -> (Vec<Comparison>, Vec<String>) {
    let mut rows = Vec::new();
    let mut problems = Vec::new();
    if baseline.threads != current.threads {
        problems.push(format!(
            "thread count mismatch: baseline recorded at {} thread(s) but this run used {} \
             — medians are not comparable across pool widths; re-run with RAYON_NUM_THREADS={} \
             or re-record with --write-baseline",
            baseline.threads, current.threads, baseline.threads
        ));
        return (rows, problems);
    }
    // The top-level `sample_size` records the quick-mode *setting*; bench groups may
    // override it per benchmark, so the comparability note is driven by the per-estimate
    // `samples` fields, which record what each measurement actually took.
    let differing: Vec<&str> = baseline
        .benchmarks
        .iter()
        .filter(|base| {
            current.benchmarks.iter().any(|cur| cur.id == base.id && cur.samples != base.samples)
        })
        .map(|base| base.id.as_str())
        .collect();
    if let Some(first) = differing.first() {
        println!(
            "note: {} benchmark(s) took a different sample count than their baseline \
             (e.g. `{first}`) — medians are noisier but still compared",
            differing.len()
        );
    }
    for base in &baseline.benchmarks {
        match current.benchmarks.iter().find(|c| c.id == base.id) {
            Some(cur) => rows.push(classify(base, cur, tolerance)),
            None => problems.push(format!(
                "benchmark `{}` is in the baseline but was not produced by the run \
                 (renamed or removed? refresh with --write-baseline)",
                base.id
            )),
        }
    }
    for cur in &current.benchmarks {
        if !baseline.benchmarks.iter().any(|b| b.id == cur.id) {
            problems.push(format!(
                "benchmark `{}` has no checked-in baseline (new bench? refresh with \
                 --write-baseline)",
                cur.id
            ));
        }
    }
    (rows, problems)
}

/// `BENCH_*.json` files at the repository root whose stem names no current bench
/// target. A baseline for a deleted or renamed bench would otherwise sit checked in
/// forever, silently asserting nothing — the check treats any such file as a hard
/// error so the rename/removal that orphaned it also has to clean it up.
fn stale_baseline_files(root: &Path) -> Vec<String> {
    let mut stale = Vec::new();
    let Ok(entries) = std::fs::read_dir(root) else {
        return stale;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_prefix("BENCH_").and_then(|s| s.strip_suffix(".json")) else {
            continue;
        };
        if !BENCHES.contains(&stem) {
            stale.push(name.to_owned());
        }
    }
    stale.sort();
    stale
}

fn check(root: &Path, json_dir: &Path, tolerance: f64) -> Result<bool, String> {
    let mut ok = true;
    for name in stale_baseline_files(root) {
        println!(
            "problem: `{name}` names no bench target (known: {}) — stale baseline; \
             delete it or add the bench back",
            BENCHES.join(", ")
        );
        ok = false;
    }
    for bench in BENCHES {
        let baseline = load_report(&baseline_path(root, bench))?;
        let current = load_report(&current_path(json_dir, bench))?;
        let (rows, problems) = compare(&baseline, &current, tolerance);
        println!("\n== {bench}: baseline vs current (tolerance +{:.0}%) ==", tolerance * 100.0);
        println!("{:<50} {:>14} {:>14} {:>8}  status", "id", "baseline", "current", "ratio");
        for row in &rows {
            let ratio = row.current_ns / row.baseline_ns.max(f64::MIN_POSITIVE);
            println!(
                "{:<50} {:>12.1}ns {:>12.1}ns {:>7.2}x  {}",
                row.id,
                row.baseline_ns,
                row.current_ns,
                ratio,
                if row.regressed {
                    "REGRESSED"
                } else if row.within_noise {
                    "noise (CI overlap)"
                } else {
                    "ok"
                }
            );
            if row.regressed {
                ok = false;
            }
        }
        for problem in &problems {
            println!("problem: {problem}");
            ok = false;
        }
    }
    Ok(ok)
}

fn write_baselines(root: &Path, json_dir: &Path) -> Result<(), String> {
    for bench in BENCHES {
        // Round-trip through the report type so a shim format drift fails loudly here
        // rather than in CI.
        let report = load_report(&current_path(json_dir, bench))?;
        let path = baseline_path(root, bench);
        let body = serde_json::to_string_pretty(&report)
            .map_err(|e| format!("could not serialise {bench}: {e}"))?;
        std::fs::write(&path, body + "\n")
            .map_err(|e| format!("could not write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: bench_baseline (--write-baseline | --check-baseline <tolerance>) \
                 [--samples <n>] [--threads <n>] [--no-run]"
            );
            return ExitCode::FAILURE;
        }
    };
    let root = repo_root();
    let json_dir = root.join("target").join("criterion-json");
    if args.run_benches {
        for bench in BENCHES {
            if let Err(e) = run_bench(bench, &json_dir, args.samples, args.threads) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let outcome = match args.mode {
        Mode::WriteBaseline => write_baselines(&root, &json_dir).map(|()| true),
        Mode::CheckBaseline { tolerance } => check(&root, &json_dir, tolerance),
    };
    match outcome {
        Ok(true) => {
            println!("\nbench baseline: OK");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            eprintln!("\nbench baseline: FAILED (regressions or id mismatches above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn estimate(id: &str, mean: f64, median: f64, stddev: f64, samples: usize) -> BenchEstimate {
        BenchEstimate {
            id: id.to_owned(),
            mean_ns: mean,
            median_ns: median,
            best_ns: median * 0.9,
            stddev_ns: stddev,
            samples,
        }
    }

    fn report(threads: usize, benchmarks: Vec<BenchEstimate>) -> BenchReport {
        BenchReport { bench: "kernels".to_owned(), threads, sample_size: 10, benchmarks }
    }

    #[test]
    fn ci_half_width_is_two_sigma_over_root_n() {
        let e = estimate("b", 100.0, 100.0, 5.0, 25);
        assert_eq!(ci_half_width(&e), 2.0 * 5.0 / 5.0);
        // Single-sample estimates get a point interval: no variance data, no rescue.
        assert_eq!(ci_half_width(&estimate("b", 100.0, 100.0, 0.0, 1)), 0.0);
    }

    #[test]
    fn a_clear_slowdown_past_tolerance_regresses() {
        // 3x the baseline median, tight spreads: intervals are far apart.
        let base = estimate("b", 100.0, 100.0, 2.0, 10);
        let cur = estimate("b", 300.0, 300.0, 2.0, 10);
        let row = classify(&base, &cur, 0.5);
        assert!(row.regressed);
        assert!(!row.within_noise);
    }

    #[test]
    fn a_median_breach_with_overlapping_intervals_is_noise_not_regression() {
        // The median breaches +50% but both runs are noisy enough that the
        // ±2σ/√n intervals [100±60] and [160±60] overlap — a shared-runner blip,
        // not a code regression.
        let base = estimate("b", 100.0, 100.0, 94.9, 10);
        let cur = estimate("b", 160.0, 160.0, 94.9, 10);
        let row = classify(&base, &cur, 0.5);
        assert!(!row.regressed);
        assert!(row.within_noise);
    }

    #[test]
    fn noisy_intervals_never_excuse_a_within_tolerance_median() {
        // Below the median bar nothing is flagged, however the intervals sit.
        let base = estimate("b", 100.0, 100.0, 1.0, 10);
        let cur = estimate("b", 120.0, 120.0, 1.0, 10);
        let row = classify(&base, &cur, 0.5);
        assert!(!row.regressed);
        assert!(!row.within_noise);
    }

    #[test]
    fn single_sample_runs_gate_on_the_median_alone() {
        // With samples == 1 the stddev is 0 by construction, the intervals are
        // points, and the median bar decides outright.
        let base = estimate("b", 100.0, 100.0, 0.0, 1);
        let cur = estimate("b", 300.0, 300.0, 0.0, 1);
        assert!(classify(&base, &cur, 0.5).regressed);
    }

    #[test]
    fn improvements_never_fail() {
        let base = estimate("b", 100.0, 100.0, 2.0, 10);
        let cur = estimate("b", 10.0, 10.0, 2.0, 10);
        let row = classify(&base, &cur, 0.5);
        assert!(!row.regressed);
        assert!(!row.within_noise);
    }

    #[test]
    fn stale_baseline_files_flag_unknown_bench_stems() {
        let dir = std::env::temp_dir().join(format!("neo-bench-stale-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for name in ["BENCH_kernels.json", "BENCH_ghost.json", "BENCH_scheduler.json"] {
            std::fs::write(dir.join(name), "{}").unwrap();
        }
        // Non-baseline files and non-JSON files are ignored.
        std::fs::write(dir.join("BENCHMARKS.md"), "").unwrap();
        std::fs::write(dir.join("BENCH_notes.txt"), "").unwrap();
        assert_eq!(stale_baseline_files(&dir), vec!["BENCH_ghost.json".to_owned()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_checked_in_baselines_are_not_stale() {
        assert_eq!(stale_baseline_files(&repo_root()), Vec::<String>::new());
    }

    #[test]
    fn mismatched_ids_and_thread_counts_are_problems() {
        let base = report(
            1,
            vec![estimate("kept", 1.0, 1.0, 0.1, 10), estimate("gone", 1.0, 1.0, 0.1, 10)],
        );
        let cur = report(
            1,
            vec![estimate("kept", 1.0, 1.0, 0.1, 10), estimate("new", 1.0, 1.0, 0.1, 10)],
        );
        let (rows, problems) = compare(&base, &cur, 0.5);
        assert_eq!(rows.len(), 1);
        assert_eq!(problems.len(), 2);

        let cur_other_width = report(4, vec![estimate("kept", 1.0, 1.0, 0.1, 10)]);
        let (rows, problems) = compare(&base, &cur_other_width, 0.5);
        assert!(rows.is_empty());
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("thread count mismatch"));
    }
}
