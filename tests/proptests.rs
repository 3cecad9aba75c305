//! Property-based tests (proptest) on the methodology's core invariants.

use fingrav::core::binning::bin_durations;
use fingrav::core::energy::{energy_joules, sequence_energy_joules, SequenceStep};
use fingrav::core::guidance::GuidanceTable;
use fingrav::core::regression::PolyFit;
use fingrav::core::stats::{median, median_u64, quantile};
use fingrav::core::sync::{ReadDelayCalibration, TimeSync};
use fingrav::sim::telemetry::{AveragingPowerLogger, SampleRing};
use fingrav::sim::{ComponentPower, CpuTime, GpuTicks, SimDuration, SimTime};
use proptest::prelude::*;

mod common;

proptest! {
    // ------------------------------------------------------------------
    // Time sync
    // ------------------------------------------------------------------

    /// Two-anchor sync recovers arbitrary offset + drift: any tick between
    /// the anchors maps back to its true CPU time within a tick.
    #[test]
    fn two_anchor_sync_roundtrips(
        offset_ns in 0u64..10_000_000_000,
        drift_ppm in -500.0f64..500.0,
        span_ms in 1u64..1_000,
        frac in 0.0f64..1.0,
    ) {
        let hz = 100e6 * (1.0 + drift_ppm * 1e-6);
        let tick_at = |cpu_ns: u64| -> u64 {
            ((cpu_ns - offset_ns.min(cpu_ns)) as f64 * hz / 1e9) as u64
        };
        let t0 = offset_ns + 1_000_000;
        let t1 = t0 + span_ms * 1_000_000;
        let read = |cpu: u64| fingrav::sim::TimestampRead {
            cpu_before: CpuTime::from_nanos(cpu),
            cpu_after: CpuTime::from_nanos(cpu),
            ticks: GpuTicks::from_raw(tick_at(cpu)),
        };
        let calib = ReadDelayCalibration { median_rtt_ns: 0, assumed_sample_frac: 0.5 };
        let sync = TimeSync::from_two_anchors(&read(t0), &read(t1), &calib).unwrap();

        let mid = t0 + ((t1 - t0) as f64 * frac) as u64;
        let recovered = sync.cpu_ns_of_ticks(tick_at(mid));
        // Tick quantization bounds the error to ~2 tick periods.
        prop_assert!((recovered - mid as f64).abs() < 25.0,
            "recovered {recovered} vs true {mid}");
    }

    // ------------------------------------------------------------------
    // Binning
    // ------------------------------------------------------------------

    /// Binning always partitions the input, the golden bin respects the
    /// margin, and no other bin out-populates it.
    #[test]
    fn binning_invariants(
        durations in prop::collection::vec(50_000u64..500_000, 1..200),
        margin in 0.0f64..0.2,
    ) {
        let binning = bin_durations(&durations, margin).unwrap();

        // Partition: every index appears exactly once.
        let mut seen: Vec<usize> = binning.bins.iter()
            .flat_map(|b| b.members.iter().copied())
            .collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, (0..durations.len()).collect::<Vec<_>>());

        // Golden bin width obeys the margin.
        let g = binning.golden_bin();
        prop_assert!(g.high_ns as f64 <= g.low_ns as f64 * (1.0 + margin) + 1.0);

        // Modal: no other bin has more members.
        for (i, b) in binning.bins.iter().enumerate() {
            if i != binning.golden {
                prop_assert!(b.count() <= g.count());
            }
        }

        // Members actually have durations inside the bin bounds.
        for &m in g.members.iter() {
            prop_assert!(g.contains(durations[m]));
        }
    }

    // ------------------------------------------------------------------
    // Averaging logger
    // ------------------------------------------------------------------

    /// A windowed average always lies between the window's min and max
    /// sample, and equals the value exactly for constant input.
    #[test]
    fn logger_average_is_bounded(
        powers in prop::collection::vec(50.0f64..1000.0, 5..100),
    ) {
        let window = SimDuration::from_millis(1);
        let step = 20_000u64; // 20 us
        let mut ring = SampleRing::new(SimDuration::from_nanos(step), window, window);
        let mut logger = AveragingPowerLogger::new(window);
        logger.set_enabled(true);
        for (i, &p) in powers.iter().enumerate() {
            ring.push(
                SimTime::from_nanos(1 + i as u64 * step),
                ComponentPower::new(p, 0.0, 0.0, 0.0),
            );
        }
        let emit_t = SimTime::from_nanos(1 + (powers.len() as u64 - 1) * step);
        logger.emit(&ring, emit_t, GpuTicks::from_raw(0));
        // The pending count is the authoritative way to observe how many
        // logs accumulated; draining is reserved for consuming them.
        prop_assert_eq!(logger.pending_logs(), 1);
        let logs = logger.drain_logs();
        prop_assert_eq!(logs.len(), 1);
        let avg = logs[0].avg.xcd;
        // Only samples inside the trailing window contribute.
        let cutoff = emit_t.as_nanos().saturating_sub(1_000_000);
        let in_window: Vec<f64> = powers.iter().enumerate()
            .filter(|(i, _)| {
                let t = 1 + *i as u64 * step;
                t > cutoff && t <= emit_t.as_nanos()
            })
            .map(|(_, &p)| p)
            .collect();
        let lo = in_window.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = in_window.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(avg >= lo - 1e-9 && avg <= hi + 1e-9,
            "avg {avg} outside [{lo}, {hi}]");
    }

    // ------------------------------------------------------------------
    // Stats
    // ------------------------------------------------------------------

    /// `median`/`quantile` tolerate NaN-poisoned samples (reachable since
    /// the DVFS idle-power windows poison with NaN): no panic, and any
    /// non-NaN result is bounded by the finite samples. NaN-free inputs
    /// keep the textbook median.
    #[test]
    fn stats_tolerate_nan_poisoned_inputs(
        vals in prop::collection::vec(-1000.0f64..1000.0, 1..40),
        nan_mask in 0u64..u64::MAX,
        p in 0.0f64..1.0,
    ) {
        let poisoned: Vec<f64> = vals.iter().enumerate()
            .map(|(i, &v)| if nan_mask & (1 << (i % 64)) != 0 { f64::NAN } else { v })
            .collect();
        let med = median(&poisoned).expect("non-empty input");
        let q = quantile(&poisoned, p).expect("non-empty input");
        let finite: Vec<f64> = poisoned.iter().copied().filter(|v| !v.is_nan()).collect();
        let lo = finite.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = finite.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if !med.is_nan() {
            prop_assert!(med >= lo && med <= hi, "median {med} outside [{lo}, {hi}]");
        }
        if !q.is_nan() {
            prop_assert!(q >= lo && q <= hi, "quantile {q} outside [{lo}, {hi}]");
        }
        if finite.len() == poisoned.len() {
            let mut sorted = finite;
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let n = sorted.len();
            let want = if n % 2 == 1 {
                sorted[n / 2]
            } else {
                0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
            };
            prop_assert_eq!(med, want);
        }
    }

    /// `median_u64` stays within the sample range even when every sample
    /// sits above `u64::MAX / 2` (absolute-ns stamps, raw tick counters).
    #[test]
    fn median_u64_never_overflows(
        vals in prop::collection::vec(u64::MAX / 2..u64::MAX, 1..40),
    ) {
        let m = median_u64(&vals).expect("non-empty input");
        let lo = *vals.iter().min().unwrap();
        let hi = *vals.iter().max().unwrap();
        prop_assert!(m >= lo && m <= hi, "median {m} outside [{lo}, {hi}]");
    }

    // ------------------------------------------------------------------
    // Regression
    // ------------------------------------------------------------------

    /// Fitting an exact polynomial of degree <= 4 recovers it pointwise.
    #[test]
    fn quartic_fit_recovers_exact_polynomials(
        c0 in -100.0f64..100.0,
        c1 in -10.0f64..10.0,
        c2 in -1.0f64..1.0,
        c3 in -0.1f64..0.1,
        c4 in -0.01f64..0.01,
    ) {
        let f = |x: f64| c0 + c1 * x + c2 * x * x + c3 * x.powi(3) + c4 * x.powi(4);
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 0.37).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| f(x)).collect();
        let fit = PolyFit::fit(&xs, &ys, 4).unwrap();
        for &x in xs.iter().step_by(7) {
            let scale = f(x).abs().max(1.0);
            prop_assert!((fit.eval(x) - f(x)).abs() < 1e-6 * scale);
        }
    }

    // ------------------------------------------------------------------
    // Guidance
    // ------------------------------------------------------------------

    /// Every execution time maps to exactly one guidance row, and the LOI
    /// recommendation is monotone in execution time within a row.
    #[test]
    fn guidance_lookup_total(exec_us in 1u64..100_000) {
        let table = GuidanceTable::paper();
        let exec = SimDuration::from_micros(exec_us);
        let entry = table.lookup(exec);
        prop_assert!(entry.runs >= 200);
        prop_assert!(entry.margin_frac > 0.0 && entry.margin_frac <= 0.05);
        prop_assert!(entry.recommended_lois(exec) >= 1);
        // Covering row (or clamped end rows).
        if exec >= SimDuration::from_micros(25) {
            prop_assert!(entry.covers(exec));
        }
    }

    // ------------------------------------------------------------------
    // Energy
    // ------------------------------------------------------------------

    /// Sequence energy equals the sum of its steps and scales linearly.
    #[test]
    fn energy_additivity(
        powers in prop::collection::vec(10.0f64..1000.0, 1..20),
        time_ns in 1_000u64..10_000_000,
        count in 1u64..100,
    ) {
        let steps: Vec<SequenceStep> = powers.iter().map(|&p| SequenceStep {
            power_w: p,
            exec_time_ns: time_ns,
            count,
        }).collect();
        let total = sequence_energy_joules(&steps);
        let by_hand: f64 = powers.iter()
            .map(|&p| energy_joules(p, time_ns) * count as f64)
            .sum();
        prop_assert!((total - by_hand).abs() < 1e-9 * by_hand.max(1.0));
        prop_assert!(total >= 0.0);
    }

    // ------------------------------------------------------------------
    // Time arithmetic
    // ------------------------------------------------------------------

    /// SimTime/SimDuration arithmetic round-trips.
    #[test]
    fn time_arithmetic_roundtrips(a in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a);
        let dur = SimDuration::from_nanos(d);
        prop_assert_eq!((t + dur) - dur, t);
        prop_assert_eq!((t + dur).duration_since(t), dur);
        prop_assert_eq!((t + dur).saturating_sub(dur), t);
        prop_assert!(t.saturating_sub(dur) <= t);
    }

    /// A kernel's duration under an arbitrary mid-execution frequency
    /// schedule is bounded by its durations at the fastest and slowest
    /// clocks visited — progress integration never loses or invents work.
    #[test]
    fn device_progress_bounded_under_frequency_changes(
        switch_points_us in prop::collection::vec(1u64..500, 0..8),
        freqs in prop::collection::vec(700.0f64..2100.0, 1..9),
    ) {
        use fingrav::sim::device::GpuDevice;
        use fingrav::sim::rng::SimRng;
        use fingrav::sim::{Activity, KernelDesc, VariationConfig};

        let base_us = 300u64;
        let mut device = GpuDevice::new(VariationConfig::none(), 2100.0, 2100.0);
        let handle = device
            .register_kernel(KernelDesc {
                name: "prop".into(),
                base_exec: SimDuration::from_micros(base_us),
                freq_insensitive_frac: 0.3,
                activity: Activity::new(0.5, 0.5, 0.5),
                compute_utilization: 0.5,
                flops: 1.0,
                hbm_bytes: 1.0,
                llc_bytes: 1.0,
                workgroups: 8,
            })
            .expect("valid kernel");
        let mut rng = SimRng::from_streams(1, 1);
        let (mut generation, mut predicted) =
            device.begin_execution(handle, SimTime::ZERO, &mut rng);

        let mut switches: Vec<u64> = switch_points_us;
        switches.sort_unstable();
        let mut f_min_visited = 2100.0f64;
        let mut f_max_visited = 2100.0f64;
        for (i, &at_us) in switches.iter().enumerate() {
            let at = SimTime::from_micros(at_us);
            if at >= predicted {
                break;
            }
            let f = freqs[i % freqs.len()];
            if let Some((g, p)) = device.set_frequency(f, at) {
                generation = g;
                predicted = p;
                f_min_visited = f_min_visited.min(f);
                f_max_visited = f_max_visited.max(f);
            }
        }
        let record = device
            .complete(generation, predicted)
            .expect("completion with current generation");
        let duration_us = record.duration().as_nanos() as f64 / 1e3;

        // Bounds: time at the fastest clock visited <= actual <= slowest.
        let factor = |f: f64| 0.3 + 0.7 * (2100.0 / f);
        let lo = base_us as f64 * factor(f_max_visited) - 1.0;
        let hi = base_us as f64 * factor(f_min_visited) + 1.0;
        prop_assert!(
            duration_us >= lo && duration_us <= hi,
            "duration {duration_us} outside [{lo}, {hi}]"
        );
    }

    /// GPU clock conversion is monotone for any drift.
    #[test]
    fn gpu_clock_monotone_under_drift(
        drift in -400.0f64..400.0,
        times in prop::collection::vec(0u64..1_000_000_000u64, 2..50),
    ) {
        let clock = fingrav::sim::clock::GpuClock::new(100e6, drift, 7);
        let mut sorted = times;
        sorted.sort_unstable();
        let ticks: Vec<u64> = sorted.iter()
            .map(|&t| clock.ticks_at(SimTime::from_nanos(t)).as_raw())
            .collect();
        for w in ticks.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    /// The engine's hybrid queue (periodic slot cursors merged with a
    /// heap of irregular events) pops in exactly the order of the plain
    /// heap reference — identical times *and* identical FIFO tie order —
    /// on random interleaved schedules.
    ///
    /// Times are drawn from a deliberately dense range so that same-instant
    /// collisions (the FIFO tie-break path) are exercised constantly.
    #[test]
    fn hybrid_queue_pops_in_exact_heap_reference_order(
        // Each op packs (selector, time, pop count): the vendored proptest
        // has no tuple strategies, so decode the fields from one integer.
        raw_ops in prop::collection::vec(0u64..(8 * 64 * 4), 1..200),
    ) {
        use common::event_queue::EventQueue;
        use fingrav::sim::event::{HybridQueue, Popped};

        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Kind {
            Slot(usize),
            Irregular(u64),
        }
        let to_kind = |p: Popped<u64>| match p {
            Popped::Periodic(slot) => Kind::Slot(slot),
            Popped::Irregular(payload) => Kind::Irregular(payload),
        };

        let mut hybrid: HybridQueue<u64, 4> = HybridQueue::new();
        let mut reference: EventQueue<Kind> = EventQueue::new();
        // `HybridQueue` keeps its slot state private, so mirror which
        // cursors are armed externally: a slot may only be re-armed after
        // it has been popped, exactly as the engine re-arms its streams.
        let mut armed = [false; 4];
        let mut next_payload = 0u64;

        for &raw in &raw_ops {
            let selector = raw % 8;
            let at = SimTime::from_nanos((raw / 8) % 64);
            let pops = (raw / (8 * 64)) as usize % 4;
            let slot = selector as usize;
            if slot < 4 {
                if !armed[slot] {
                    hybrid.arm(slot, at);
                    reference.schedule(at, Kind::Slot(slot));
                    armed[slot] = true;
                }
            } else {
                next_payload += 1;
                hybrid.schedule(at, next_payload);
                reference.schedule(at, Kind::Irregular(next_payload));
            }
            for _ in 0..pops {
                let got = hybrid.pop().map(|(t, p)| (t, to_kind(p)));
                if let Some((_, Kind::Slot(s))) = got {
                    armed[s] = false;
                }
                prop_assert_eq!(got, reference.pop());
            }
        }
        // Drain both queues to the end: every remaining event must match.
        loop {
            let got = hybrid.pop().map(|(t, p)| (t, to_kind(p)));
            let want = reference.pop();
            let done = got.is_none() && want.is_none();
            prop_assert_eq!(got, want);
            if done {
                break;
            }
        }
    }
}
