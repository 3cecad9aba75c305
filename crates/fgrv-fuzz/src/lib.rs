//! Coverage-guided fuzzing and conformance harness for the FGRV*
//! decoders (`FGRVPROF`, `FGRVCKPT`, `FGRVWIRE`).
//!
//! The harness is dependency-free by design (the `fgrv-lint` precedent:
//! first-party crates only): SplitMix64 randomness, hand-rolled
//! AFL-style coverage buckets over the `fingrav_core::cover` site table,
//! deterministic structure-aware mutators, and a counting global
//! allocator backing the allocation-cap oracle. See `docs/FUZZING.md`
//! for the operator's guide.
//!
//! ## Determinism
//!
//! An iteration-budgeted run is a pure function of `(target, seed,
//! corpus)` — including across worker-thread counts. Mutant generation
//! and corpus retention are single-threaded around a parallel,
//! side-effect-free execution stage, so 1, 2, and 8 threads produce the
//! same mutation schedule, the same findings, and the same final corpus
//! digest (pinned by `tests/fuzz_regression.rs`). Wall-clock-budgeted
//! runs (`--seconds`) trade that for convenience: the round count then
//! depends on machine speed.

#![warn(missing_docs)]
#![deny(unsafe_code)]

#[allow(unsafe_code)] // a `GlobalAlloc` impl is unsafe by signature; it delegates to `System`
pub mod alloc;
pub mod corpus;
pub mod exec;
pub mod mutate;
pub mod rng;
pub mod targets;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use corpus::{fnv1a, fnv1a_fold, Corpus};
use exec::{run_one, ExecResult, Finding};
use mutate::mutate;
use rng::Rng;
use targets::Target;

/// Inputs generated per round. One round = one generate → execute →
/// retain cycle; the batch is the parallelism grain.
pub const BATCH: usize = 256;

/// Iteration budget used when the caller sets neither `--iters` nor
/// `--seconds`.
pub const DEFAULT_ITERS: u64 = 4096;

/// Ceiling on executions spent minimizing one finding.
const MINIMIZE_BUDGET: usize = 384;

/// Distinct findings minimized and written out per run; later duplicates
/// of the same kind+detail are folded into their exemplar's count.
const REPORTED_FINDINGS_CAP: usize = 16;

/// One fuzzing campaign's parameters.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// The decode path under fuzz.
    pub target: Target,
    /// Master RNG seed; the whole schedule derives from it.
    pub seed: u64,
    /// Worker threads for the execution stage (min 1).
    pub threads: usize,
    /// Input budget. Checked between rounds, so a run executes at most
    /// `iters + BATCH - 1` inputs.
    pub iters: Option<u64>,
    /// Wall-clock budget in seconds, checked between rounds. Overrides
    /// nothing — whichever budget runs out first stops the run.
    pub seconds: Option<u64>,
    /// On-disk corpus: extra seeds loaded from here (sorted by file
    /// name), retained entries and crash artifacts written back.
    pub corpus_dir: Option<PathBuf>,
}

impl FuzzConfig {
    /// A single-threaded, default-budget config for `target`.
    pub fn new(target: Target) -> FuzzConfig {
        FuzzConfig {
            target,
            seed: 1,
            threads: 1,
            iters: None,
            seconds: None,
            corpus_dir: None,
        }
    }
}

/// One minimized oracle violation.
#[derive(Debug, Clone)]
pub struct ReportedFinding {
    /// What went wrong.
    pub finding: Finding,
    /// The minimized input that still reproduces it.
    pub input: Vec<u8>,
    /// How many raw inputs produced this same kind+detail.
    pub occurrences: u64,
}

/// The outcome of one fuzzing campaign.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Total inputs executed (seed replay included).
    pub executed: u64,
    /// Minimized findings, in discovery order.
    pub findings: Vec<ReportedFinding>,
    /// Coverage buckets after replaying only the seeds/corpus.
    pub baseline_buckets: usize,
    /// Coverage buckets at the end of the run.
    pub final_buckets: usize,
    /// Retained corpus entries at the end of the run.
    pub corpus_len: usize,
    /// Order-sensitive digest of the final corpus.
    pub corpus_digest: u64,
    /// Digest of the full mutation schedule (every generated input, in
    /// generation order).
    pub schedule_digest: u64,
}

/// Loads extra seed inputs from `dir` (top-level `.bin` files, sorted by
/// name so the replay order — and hence the schedule — is stable).
fn load_corpus_dir(dir: &Path) -> io::Result<Vec<Vec<u8>>> {
    if !dir.exists() {
        return Ok(Vec::new());
    }
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "bin"))
        .collect();
    paths.sort();
    paths.into_iter().map(fs::read).collect()
}

/// Executes `batch` across `threads` workers, returning results in batch
/// order. Execution is pure (thread-local coverage, thread-local peak),
/// so the split is purely a wall-clock optimisation.
fn execute_batch(target: Target, batch: &[Vec<u8>], threads: usize) -> Vec<ExecResult> {
    if threads <= 1 || batch.len() <= 1 {
        return batch.iter().map(|input| run_one(target, input)).collect();
    }
    let chunk = batch.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = batch
            .chunks(chunk)
            .map(|slice| {
                scope.spawn(move || slice.iter().map(|i| run_one(target, i)).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fuzz worker panicked outside catch_unwind"))
            .collect()
    })
}

/// True when `result` reproduces the same failure kind (and, for
/// divergences/panics, the same message) as `finding`.
fn same_failure(result: &ExecResult, finding: &Finding) -> bool {
    match (&result.finding, finding) {
        (Some(Finding::Panic(a)), Finding::Panic(b)) => a == b,
        (Some(Finding::Divergence(a)), Finding::Divergence(b)) => a == b,
        (Some(Finding::AllocCap { .. }), Finding::AllocCap { .. }) => true,
        _ => false,
    }
}

/// ddmin-lite: removes progressively smaller chunks while the failure
/// still reproduces, bounded by [`MINIMIZE_BUDGET`] executions.
fn minimize(target: Target, input: &[u8], finding: &Finding) -> Vec<u8> {
    let mut best = input.to_vec();
    let mut spent = 0usize;
    let mut chunk = (best.len() / 2).max(1);
    while chunk >= 1 && spent < MINIMIZE_BUDGET && !best.is_empty() {
        let mut at = 0;
        let mut shrunk = false;
        while at < best.len() && spent < MINIMIZE_BUDGET {
            let end = (at + chunk).min(best.len());
            let mut candidate = best.clone();
            candidate.drain(at..end);
            spent += 1;
            if same_failure(&run_one(target, &candidate), finding) {
                best = candidate;
                shrunk = true;
                // Keep `at`: the bytes now at `at` were never tried.
            } else {
                at = end;
            }
        }
        if !shrunk {
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
    }
    best
}

/// Key for folding duplicate findings: kind plus message hash.
fn finding_key(finding: &Finding) -> (u8, u64) {
    match finding {
        Finding::Panic(msg) => (0, fnv1a(msg.as_bytes())),
        Finding::Divergence(msg) => (1, fnv1a(msg.as_bytes())),
        Finding::AllocCap { .. } => (2, 0),
    }
}

/// Runs one fuzzing campaign to its budget.
///
/// # Errors
///
/// Only corpus-directory I/O can fail; the fuzzing loop itself reports
/// findings instead of erroring.
pub fn run(config: &FuzzConfig) -> io::Result<RunReport> {
    let started = Instant::now();
    let target = config.target;
    let threads = config.threads.max(1);

    // ---- Seed replay (single-threaded, order = schedule prefix) ----
    let mut seeds = targets::seeds(target);
    if let Some(dir) = &config.corpus_dir {
        seeds.extend(load_corpus_dir(dir)?);
    }
    let mut corpus = Corpus::new();
    let mut executed = 0u64;
    let mut raw_findings: Vec<(Finding, Vec<u8>)> = Vec::new();
    for seed in &seeds {
        let result = run_one(target, seed);
        executed += 1;
        if let Some(finding) = result.finding.clone() {
            raw_findings.push((finding, seed.clone()));
        }
        // Seeds are retained unconditionally: in an uninstrumented build
        // a valid seed produces neither branch counters nor taxonomy, and
        // dropping it would leave mutation nothing structured to work on.
        corpus.map.observe(&result.snapshot, &result.taxonomy);
        corpus.entries.push(seed.clone());
    }
    let baseline_buckets = corpus.map.buckets();

    // ---- Mutation rounds ----
    let iter_budget = match (config.iters, config.seconds) {
        (None, None) => Some(DEFAULT_ITERS),
        (iters, _) => iters,
    };
    let mut rng = Rng::new(config.seed);
    let mut schedule_digest: u64 = 0xcbf2_9ce4_8422_2325;
    loop {
        if let Some(budget) = iter_budget {
            if executed >= budget {
                break;
            }
        }
        if let Some(seconds) = config.seconds {
            if started.elapsed().as_secs() >= seconds {
                break;
            }
        }

        // Generate single-threaded from the master RNG: the schedule is
        // independent of how execution is parallelised below.
        let mut batch = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let base = &corpus.entries[rng.below(corpus.entries.len())];
            let other = if rng.one_in(2) {
                Some(corpus.entries[rng.below(corpus.entries.len())].clone())
            } else {
                None
            };
            let mutant = mutate(&mut rng, base, other.as_deref());
            schedule_digest = fnv1a_fold(schedule_digest, &mutant);
            batch.push(mutant);
        }

        let results = execute_batch(target, &batch, threads);
        executed += batch.len() as u64;

        // Retain single-threaded, in batch order: thread-count invariant.
        for (input, result) in batch.into_iter().zip(results) {
            if let Some(finding) = result.finding.clone() {
                raw_findings.push((finding, input.clone()));
            }
            if corpus.map.observe(&result.snapshot, &result.taxonomy) {
                corpus.entries.push(input);
            }
        }
    }

    // ---- Minimize and fold findings ----
    let mut findings: Vec<ReportedFinding> = Vec::new();
    let mut keys: Vec<(u8, u64)> = Vec::new();
    for (finding, input) in raw_findings {
        let key = finding_key(&finding);
        if let Some(pos) = keys.iter().position(|k| *k == key) {
            findings[pos].occurrences += 1;
            continue;
        }
        if findings.len() >= REPORTED_FINDINGS_CAP {
            continue;
        }
        let input = minimize(target, &input, &finding);
        keys.push(key);
        findings.push(ReportedFinding {
            finding,
            input,
            occurrences: 1,
        });
    }

    // ---- Persist corpus + crash artifacts ----
    if let Some(dir) = &config.corpus_dir {
        fs::create_dir_all(dir)?;
        for entry in &corpus.entries {
            fs::write(dir.join(format!("{:016x}.bin", fnv1a(entry))), entry)?;
        }
        if !findings.is_empty() {
            let crashes = dir.join("crashes");
            fs::create_dir_all(&crashes)?;
            for found in &findings {
                let stem = format!("{}-{:016x}", found.finding.kind(), fnv1a(&found.input));
                fs::write(crashes.join(format!("{stem}.bin")), &found.input)?;
                fs::write(
                    crashes.join(format!("{stem}.txt")),
                    format!("{:?}\n", found.finding),
                )?;
            }
        }
    }

    Ok(RunReport {
        executed,
        findings,
        baseline_buckets,
        final_buckets: corpus.map.buckets(),
        corpus_len: corpus.entries.len(),
        corpus_digest: corpus.digest(),
        schedule_digest,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(target: Target, threads: usize) -> FuzzConfig {
        FuzzConfig {
            target,
            seed: 7,
            threads,
            iters: Some(2 * BATCH as u64),
            seconds: None,
            corpus_dir: None,
        }
    }

    #[test]
    fn short_run_is_clean_and_deterministic_across_threads() {
        let one = run(&tiny_config(Target::Prof, 1)).expect("no corpus I/O");
        assert!(one.findings.is_empty(), "{:?}", one.findings);
        assert!(one.executed >= 2 * BATCH as u64);
        for threads in [2, 8] {
            let many = run(&tiny_config(Target::Prof, threads)).expect("no corpus I/O");
            assert_eq!(one.schedule_digest, many.schedule_digest);
            assert_eq!(one.corpus_digest, many.corpus_digest);
            assert_eq!(one.executed, many.executed);
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = run(&tiny_config(Target::Wire, 1)).expect("no corpus I/O");
        let mut config = tiny_config(Target::Wire, 1);
        config.seed = 8;
        let b = run(&config).expect("no corpus I/O");
        assert_ne!(a.schedule_digest, b.schedule_digest);
    }

    #[test]
    fn minimizer_shrinks_while_preserving_the_failure() {
        // Synthetic finding: a divergence oracle we can steer is not
        // available, so exercise `minimize` through `same_failure` on a
        // taxonomy-only target — a bad-magic prof input minimizes toward
        // the empty input while still failing the same way.
        let finding = Finding::Divergence("never reproduces".to_string());
        let input = vec![0u8; 64];
        // Nothing reproduces a fake divergence, so the minimizer must
        // return the input unchanged (never "minimize" into a different
        // failure).
        assert_eq!(minimize(Target::Prof, &input, &finding), input);
    }
}
