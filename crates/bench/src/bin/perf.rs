//! Same-process ratio gates on the hot paths: the engine's profiling run,
//! its observed variant, and the profile store's view, decode and CSV
//! render.
//!
//! An absolute wall time measured on one day and compared on another
//! gates the host's speed phase, not the code. Each gate here is instead
//! the median of paired ratios of two paths timed in this one process:
//! the gated path and a reference of the same kind. Pairs alternate which
//! side runs first, so a host that slows down or speeds up mid-run moves
//! both sides of a pair alike, and every gate's pairs are split into
//! rounds interleaved with the other gates', so each median spans the
//! whole run instead of one burst of it. A gate fails when its median
//! ratio exceeds a fixed threshold derived from ten reruns of unchanged
//! code on a shared 2-vCPU host (see CHANGES.md).
//!
//! Before anything is timed, the inputs are checked: an observed run's
//! trace equals the unobserved one, and the store view equals the owned
//! store in its points, mean, filter and CSV.
//!
//! Usage: `perf [--out DIR]`. Writes `DIR/perf.json` (default
//! `results/`) with the host (`nproc`, CPU model, build profile, rustc
//! version), every gate's ratio quartiles, threshold and verdict, and each
//! path's median sample time as a report; exits 1 when any gate fails. Not
//! part of `all`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use fingrav_bench::RunContext;
use fingrav_core::profile::{ProfileAxis, ProfilePoint};
use fingrav_core::report::{columns_to_csv, view_to_csv};
use fingrav_core::stats::quantile;
use fingrav_core::store::{ColumnLayout, ProfileStore, ProfileStoreView};
use fingrav_sim::config::SimConfig;
use fingrav_sim::engine::Simulation;
use fingrav_sim::power::ComponentPower;
use fingrav_sim::script::Script;
use fingrav_sim::session::{AbortHandle, TelemetryEvent};
use fingrav_sim::time::SimDuration;
use fingrav_sim::trace::RunTrace;
use fingrav_workloads::suite;

/// Timed pairs per engine gate: one sample is one ~25–50 µs profiling run.
const ENGINE_PAIRS: usize = 2_000;
/// Timed pairs per store gate: one sample is one pass over ~5.6 MB.
const STORE_PAIRS: usize = 200;
/// Timed pairs of the CSV gate: one sample renders ~5.7 MB of text.
const CSV_PAIRS: usize = 100;
/// Rounds each gate's pairs are split into, interleaved across gates.
const ROUNDS: usize = 100;

/// Synthetic profile shape: ~400 golden runs × ~250 stitched points, the
/// order of the paper's Table I guidance for sub-100 µs kernels.
const RUNS: u32 = 400;
const POINTS_PER_RUN: u32 = 250;

/// A fresh session plus the canonical instrumented profiling run (logger
/// bracket, timed launch, quiescent drain): the shape every campaign
/// entry executes hundreds of times.
fn profiling_run() -> (Simulation, Script) {
    let machine = SimConfig::default().machine;
    let mut sim = Simulation::new(SimConfig::default(), 7).expect("config valid");
    let k = sim
        .register_kernel(suite::cb_gemm(&machine, 4096))
        .expect("valid kernel");
    let script = Script::builder()
        .begin_run()
        .start_power_logger()
        .read_gpu_timestamp()
        .launch_timed(k, 24)
        .sleep(SimDuration::from_millis(1))
        .read_gpu_timestamp()
        .stop_power_logger()
        .sleep(SimDuration::from_millis(8))
        .build();
    (sim, script)
}

/// One profiling run streamed through a counting sink: the trace and the
/// number of events the sink saw.
fn observed_run(sim: &mut Simulation, script: &Script, abort: &AbortHandle) -> (RunTrace, u64) {
    let mut events = 0u64;
    let mut sink = |_e: TelemetryEvent| events += 1;
    let trace = sim
        .run_script_observed(script, &mut sink, abort)
        .expect("script runs");
    (trace, events)
}

/// The engine gate's reference: a fixed discrete-event loop of the
/// engine's own kind. Four periodic streams pop from a binary heap in
/// (time, sequence) order and re-arm on their grids. A sensor tick
/// evaluates a four-component voltage/frequency power model, steps an
/// exponential thermal recurrence and pushes the sample into a ring; a
/// logger tick averages the ring; a control tick moves the frequency
/// against a power limit. Its float mix (divisions, `powi`, `exp`) is
/// the engine's, so contention on the float units slows both sides.
fn reference_event_loop() -> f64 {
    const EVENTS: u64 = 1_000;
    const PERIODS_NS: [u64; 4] = [20_000, 100_000, 1_000_000, 1_000_000];
    const SHARES: [f64; 4] = [0.55, 0.2, 0.15, 0.1];
    let mut heap = BinaryHeap::with_capacity(PERIODS_NS.len());
    for (slot, &p) in PERIODS_NS.iter().enumerate() {
        heap.push(Reverse((p, slot as u64, slot)));
    }
    let (mut temp, mut freq, mut last) = (black_box(40.0f64), 2_100.0f64, 0u64);
    let mut ring = [[0.0f64; 5]; 128];
    let (mut head, mut window, mut logged) = (0usize, 0.0f64, 0.0f64);
    for seq in 0..EVENTS {
        let Reverse((at, _, slot)) = heap.pop().expect("every stream stays armed");
        match slot {
            0 => {
                let dt_s = (at - last) as f64 * 1e-9;
                last = at;
                let mut sample = [0.0f64; 5];
                for (c, share) in SHARES.iter().enumerate() {
                    let f = freq * (1.0 - 0.1 * c as f64);
                    let v = 0.7 + 0.4 * (f - 900.0) / (2_100.0 - 900.0);
                    let dynamic = share * (v / 1.1).powi(2) * (f / 2_100.0) * 500.0;
                    let memory = share * (0.25 + 0.75 * (f / 2_100.0).clamp(0.0, 1.0));
                    sample[c] = (dynamic + memory).max(0.5);
                    sample[4] += sample[c];
                }
                let target = 25.0 + 0.08 * sample[4];
                temp = target + (-dt_s / 0.05).exp() * (temp - target);
                window += sample[4] - ring[head][4];
                ring[head] = sample;
                head = (head + 1) % ring.len();
            }
            1 => logged += window / ring.len() as f64,
            2 if window / ring.len() as f64 > 400.0 => freq = (freq - 100.0).max(900.0),
            2 => freq = (freq + 100.0).min(2_100.0),
            _ => logged -= temp / 1e3,
        }
        heap.push(Reverse((at + PERIODS_NS[slot], EVENTS + seq, slot)));
    }
    logged + temp
}

/// Deterministic synthetic point stream (SplitMix64-driven), shaped like a
/// stitched run profile: mostly LOIs, ~10 % points outside any execution.
fn synthetic_points() -> Vec<ProfilePoint> {
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut unit = move || (next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let mut points = Vec::with_capacity((RUNS * POINTS_PER_RUN) as usize);
    for run in 0..RUNS {
        for k in 0..POINTS_PER_RUN {
            let in_exec = unit() > 0.1;
            let exec_pos = (k / 4).min(60);
            let run_time_ns = f64::from(k) * 1.0e6 + unit() * 1.0e6 - 5.0e5;
            let w = 500.0 + 200.0 * unit();
            points.push(ProfilePoint {
                run,
                exec_pos: in_exec.then_some(exec_pos),
                toi_ns: in_exec.then(|| unit() * 1.0e6),
                run_time_ns,
                power: ComponentPower::new(w * 0.55, w * 0.2, w * 0.15, w * 0.1),
            });
        }
    }
    points
}

/// The view gate's reference: one pass over an encoded store's points
/// that reads each point's validity bit and, for a point outside any
/// execution, its `exec_pos` and `toi_ns` slots, the bytes a canonical
/// form check reads.
fn validity_scan(bytes: &[u8]) -> u64 {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let n = usize::try_from(word(16)).expect("point count fits usize");
    let layout = ColumnLayout::for_len(n).expect("layout fits usize");
    let mut acc = 0u64;
    for i in 0..n {
        if (word(layout.bitmap + i / 64 * 8) >> (i % 64)) & 1 == 0 {
            let exec = &bytes[layout.exec_pos + 4 * i..layout.exec_pos + 4 * i + 4];
            acc |= u64::from(u32::from_le_bytes(exec.try_into().expect("4 bytes")))
                | word(layout.toi_ns + 8 * i);
        }
    }
    acc
}

/// The decode gate's reference: one copying pass over `bytes`, its LE
/// u64 words decoded into a fresh, exactly sized vector, as a column
/// decode does.
fn word_copy(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk")))
        .collect()
}

/// `PAIRS[n]`: the two digits of `n < 100`, zero-padded, the CSV
/// reference's digit table.
static PAIRS: [[u8; 2]; 100] = {
    let mut pairs = [[0; 2]; 100];
    let mut n = 0;
    while n < 100 {
        pairs[n] = [b'0' + (n / 10) as u8, b'0' + (n % 10) as u8];
        n += 1;
    }
    pairs
};

/// Appends the decimal digits of `n`, two at a time from [`PAIRS`].
fn put_pairs(out: &mut Vec<u8>, mut n: u64) {
    let (mut digits, mut at) = ([0u8; 20], 20);
    loop {
        at -= 2;
        digits[at..at + 2].copy_from_slice(&PAIRS[(n % 100) as usize]);
        n /= 100;
        if n == 0 {
            break;
        }
    }
    if digits[at] == b'0' && at + 1 < digits.len() {
        at += 1;
    }
    out.extend_from_slice(&digits[at..]);
}

/// The CSV gate's reference: the kind of work `view_to_csv` does, by
/// other code. An LSD radix scatter of the encoded run-time column's
/// order-preserving keys (a byte pass skipped when one bucket holds every
/// key), then, for each point in that order, its run, its execution
/// position and its six values in thousandths, written two digits at a
/// time from a table into a buffer of 64 bytes per point.
fn radix_render(bytes: &[u8]) -> Vec<u8> {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let half = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
    let n = usize::try_from(word(16)).expect("point count fits usize");
    let layout = ColumnLayout::for_len(n).expect("layout fits usize");
    let mut keys: Vec<(u64, u32)> = (0..n)
        .map(|i| {
            let bits = word(layout.run_time_ns + 8 * i);
            let key = if bits >> 63 == 1 {
                !bits
            } else {
                bits | 1 << 63
            };
            (key, i as u32)
        })
        .collect();
    let mut scattered = vec![(0, 0); n];
    for shift in (0..64).step_by(8) {
        let mut starts = [0usize; 256];
        for &(key, _) in &keys {
            starts[(key >> shift) as usize & 0xff] += 1;
        }
        if starts.contains(&n) {
            continue;
        }
        let mut at = 0;
        for start in &mut starts {
            (*start, at) = (at, at + *start);
        }
        for &(key, i) in &keys {
            let digit = (key >> shift) as usize & 0xff;
            scattered[starts[digit]] = (key, i);
            starts[digit] += 1;
        }
        std::mem::swap(&mut keys, &mut scattered);
    }
    let columns = [
        layout.run_time_ns,
        layout.xcd,
        layout.iod,
        layout.hbm,
        layout.rest,
        layout.toi_ns,
    ];
    let mut out = Vec::with_capacity(n * 64);
    for &(_, i) in &keys {
        let i = i as usize;
        put_pairs(&mut out, u64::from(half(layout.run + 4 * i)));
        out.push(b',');
        put_pairs(&mut out, u64::from(half(layout.exec_pos + 4 * i)));
        for column in columns {
            out.push(b',');
            put_pairs(
                &mut out,
                (f64::from_bits(word(column + 8 * i)).abs() * 1e3) as u64,
            );
        }
        out.push(b'\n');
    }
    out
}

/// Nanoseconds one call of `f` takes.
fn time_ns(f: &mut dyn FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64
}

/// A timed path: its name and a call that runs it once.
type Timed<'a> = (&'static str, Box<dyn FnMut() + 'a>);

/// Wraps a path so its result is consumed (and dropped) inside the timing.
fn timed<'a, R>(name: &'static str, mut f: impl FnMut() -> R + 'a) -> Timed<'a> {
    (name, Box::new(move || drop(black_box(f()))))
}

/// One gate: a path, its reference, and their paired samples.
struct Gate<'a> {
    name: &'static str,
    path: Timed<'a>,
    reference: Timed<'a>,
    pairs_per_round: usize,
    threshold: f64,
    ratios: Vec<f64>,
    path_ns: Vec<f64>,
    reference_ns: Vec<f64>,
}

impl<'a> Gate<'a> {
    fn new(
        name: &'static str,
        path: Timed<'a>,
        reference: Timed<'a>,
        pairs: usize,
        threshold: f64,
    ) -> Gate<'a> {
        Gate {
            name,
            path,
            reference,
            pairs_per_round: pairs / ROUNDS,
            threshold,
            ratios: Vec::with_capacity(pairs),
            path_ns: Vec::with_capacity(pairs),
            reference_ns: Vec::with_capacity(pairs),
        }
    }

    /// Runs each side once untimed, so the other gates' rounds leave no
    /// cold caches behind, then times one round of pairs, alternating
    /// which side runs first.
    fn sample_round(&mut self) {
        (self.path.1)();
        (self.reference.1)();
        for _ in 0..self.pairs_per_round {
            let (p, r) = if self.ratios.len().is_multiple_of(2) {
                let p = time_ns(&mut self.path.1);
                (p, time_ns(&mut self.reference.1))
            } else {
                let r = time_ns(&mut self.reference.1);
                (time_ns(&mut self.path.1), r)
            };
            self.ratios.push(p / r.max(1.0));
            self.path_ns.push(p);
            self.reference_ns.push(r);
        }
    }

    fn quartile(xs: &[f64], p: f64) -> f64 {
        quantile(xs, p).expect("at least one pair")
    }

    fn ratio(&self) -> f64 {
        Gate::quartile(&self.ratios, 0.5)
    }

    fn passes(&self) -> bool {
        self.ratio() <= self.threshold
    }

    /// One JSON object: ratio quartiles, threshold, verdict, and each
    /// side's median sample time (a report, not a gate).
    fn json(&self) -> String {
        format!(
            "{{\"name\": \"{}\", \"path\": \"{}\", \"reference\": \"{}\", \"pairs\": {}, \
             \"ratio_p25\": {:.4}, \"ratio_median\": {:.4}, \"ratio_p75\": {:.4}, \
             \"threshold\": {:.2}, \"pass\": {}, \"path_us_median\": {:.2}, \
             \"reference_us_median\": {:.2}}}",
            self.name,
            self.path.0,
            self.reference.0,
            self.ratios.len(),
            Gate::quartile(&self.ratios, 0.25),
            self.ratio(),
            Gate::quartile(&self.ratios, 0.75),
            self.threshold,
            self.passes(),
            Gate::quartile(&self.path_ns, 0.5) / 1e3,
            Gate::quartile(&self.reference_ns, 0.5) / 1e3,
        )
    }
}

fn main() {
    let ctx = RunContext::from_args(std::env::args().skip(1));
    let dir = ctx.out_dir().expect("create output directory");
    let started = Instant::now();

    // Inputs first: the timed paths must compute the same thing.
    let (mut sim, script) = profiling_run();
    let noop_trace = sim.run_script(&script).expect("script runs");
    let (mut sim, script) = profiling_run();
    let abort = AbortHandle::new();
    let (observed_trace, events) = observed_run(&mut sim, &script, &abort);
    assert_eq!(
        noop_trace, observed_trace,
        "observed run must be bit-identical"
    );
    assert!(events > 10, "streaming must actually stream");
    assert_eq!(noop_trace.executions.len(), 24);
    assert!(!noop_trace.power_logs.is_empty());

    let store = ProfileStore::from_points(synthetic_points());
    let bytes = store.to_bytes();
    let view = ProfileStoreView::new(&bytes).expect("valid encoding");
    assert_eq!(view.to_store(), store, "view decode must equal owned store");
    assert_eq!(view.mean_power(), store.mean_power());
    let end_ns = f64::from(POINTS_PER_RUN) * 0.8e6;
    assert_eq!(
        view.indices_where(|p| p.in_exec() && p.run_time_ns() >= 0.0 && p.run_time_ns() <= end_ns),
        store.indices_where(|p| p.in_exec() && p.run_time_ns() >= 0.0 && p.run_time_ns() <= end_ns),
    );
    let csv = view_to_csv(&view, ProfileAxis::RunTime);
    assert_eq!(csv, columns_to_csv(&store, ProfileAxis::RunTime));

    // Each gate owns its sessions, so the rounds below can interleave.
    // Every threshold sits above the largest median of ten reruns of
    // unchanged code and below the smallest median under the seeded
    // slowdown of the gated path it is sized for (CHANGES.md has both).
    let noop = || {
        let (mut sim, script) = profiling_run();
        move || sim.run_script(&script).expect("script runs")
    };
    let (mut sim, script) = profiling_run();
    let mut gates = [
        Gate::new(
            "engine.noop_vs_reference",
            timed("run/noop", noop()),
            timed("reference event loop", reference_event_loop),
            ENGINE_PAIRS,
            1.38,
        ),
        Gate::new(
            "engine.observed_vs_noop",
            timed("run/observed", move || {
                observed_run(&mut sim, &script, &abort)
            }),
            timed("run/noop", noop()),
            ENGINE_PAIRS,
            1.10,
        ),
        Gate::new(
            "store.view_vs_validity_scan",
            timed("ProfileStoreView::new", || {
                ProfileStoreView::new(&bytes).expect("decodes").len()
            }),
            timed("validity scan of the bytes", || validity_scan(&bytes)),
            STORE_PAIRS,
            1.00,
        ),
        Gate::new(
            "store.decode_vs_word_copy",
            timed("ProfileStore::from_bytes", || {
                ProfileStore::from_bytes(&bytes).expect("decodes")
            }),
            timed("word copy of the bytes", || word_copy(&bytes)),
            STORE_PAIRS,
            1.78,
        ),
        Gate::new(
            "report.csv_vs_radix_render",
            timed("view_to_csv", || view_to_csv(&view, ProfileAxis::RunTime)),
            timed("radix scatter and table render of the bytes", || {
                radix_render(&bytes)
            }),
            CSV_PAIRS,
            0.72,
        ),
    ];
    // Rounds spread every gate's pairs over the whole run, so each median
    // sees the same mix of host phases rather than one burst of them.
    for _ in 0..ROUNDS {
        gates.iter_mut().for_each(Gate::sample_round);
    }

    let pass = gates.iter().all(Gate::passes);
    let objects: Vec<String> = gates.iter().map(Gate::json).collect();
    for (gate, object) in gates.iter().zip(&objects) {
        println!("{} {object}", if gate.passes() { "ok  " } else { "FAIL" });
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let rustc = env!("FINGRAV_RUSTC_VERSION");
    let json = format!(
        "{{\n  \"nproc\": {nproc},\n  \"cpu\": {cpu:?},\n  \"profile\": \"{profile}\",\n  \
         \"rustc\": {rustc:?},\n  \
         \"store_bytes\": {},\n  \"csv_bytes\": {},\n  \
         \"gates\": [\n    {}\n  ],\n  \"pass\": {pass}\n}}\n",
        bytes.len(),
        csv.len(),
        objects.join(",\n    "),
    );
    std::fs::write(dir.join("perf.json"), json).expect("write perf.json");
    println!(
        "wrote {} in {:.1}s",
        dir.join("perf.json").display(),
        started.elapsed().as_secs_f64()
    );
    if !pass {
        std::process::exit(1);
    }
}
