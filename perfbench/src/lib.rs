//! The repository benchmark: four workloads that follow content from a
//! source frame to a viewer's decoded picture, and from one viewer to a
//! million, through the public API of the workspace crates.
//!
//! * `vod_pipeline` — the head-end and one device per rung: capture,
//!   pooled ladder encode, seal, store, publish, MPSoC model, then
//!   sessions through an edge with decode and PSNR.
//! * `viewer_fleet` — packet-level delivery: 512 closed-loop viewers over
//!   a bounded shield + 4-edge tier on bursty AIMD access links.
//! * `cdn_knee` — the fluid engine's knee search over a 512-title Zipf
//!   catalog (keys do not collapse into cohorts).
//! * `live_flash` — the fluid engine on one live title with a 1M flash
//!   crowd and faults (keys do collapse).
//!
//! Every run builds its inputs from the seed, measures for a fixed
//! number of seconds, checks its outputs, and reports the end-to-end
//! metrics (untraced) or the per-layer metrics (traced).

pub mod clock;
pub mod host;
pub mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;

use trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["vod_pipeline", "viewer_fleet", "cdn_knee", "live_flash"];

/// End-to-end metrics `(name, unit)`, reported with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("startup_ticks", "ticks"),
    ("outcome", "score"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported with tracing on. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("video.capture_ms", "ms"),
    ("video.decode_ms", "ms"),
    ("video.frames_decoded", "count"),
    ("video.idct_blocks", "count"),
    ("video.mc_pixels", "count"),
    ("ladder.encode_ms", "ms"),
    ("ladder.sad_evals", "count"),
    ("ladder.sad_pixel_ops", "count"),
    ("ladder.dct_blocks", "count"),
    ("ladder.vlc_symbols", "count"),
    ("ladder.es_bytes", "bytes"),
    ("ladder.wire_bytes", "bytes"),
    ("drm.seal_ms", "ms"),
    ("mediafs.store_ms", "ms"),
    ("mediafs.publish_ms", "ms"),
    ("mpsoc.model_ms", "ms"),
    ("mpsoc.makespan_ms", "ms"),
    ("mpsoc.energy_mj", "mJ"),
    ("session.ms_p50", "ms"),
    ("session.ms_p98", "ms"),
    ("session.count", "count"),
    ("session.failed", "count"),
    ("session.fetch_retries", "count"),
    ("session.delivered_bytes", "bytes"),
    ("session.mean_rung", "rung"),
    ("session.rung_switches", "count"),
    ("edge.hits", "count"),
    ("edge.misses", "count"),
    ("edge.evictions", "count"),
    ("edge.hit_rate", "ratio"),
    ("edge.fill_bytes", "bytes"),
    ("edge.origin_fills", "count"),
    ("shield.hits", "count"),
    ("shield.misses", "count"),
    ("shield.evictions", "count"),
    ("shield.hit_rate", "ratio"),
    ("shield.fill_bytes", "bytes"),
    ("shield.origin_fills", "count"),
    ("serve.probe_ms", "ms"),
    ("serve.coalesced", "count"),
    ("serve.origin_fills", "count"),
    ("serve.hit_rate", "ratio"),
    ("fault.sessions_rehomed", "count"),
    ("fault.mean_restore_ticks", "ticks"),
    ("fault.sessions_fault_rebuffered", "count"),
    ("host.nproc", "count"),
    ("host.effective_parallelism", "x"),
    ("host.pool_workers", "count"),
    ("headend_fps", "frames/s"),
    ("playback_fps", "frames/s"),
    ("psnr_db", "dB"),
    ("viewers_per_s", "1/s"),
    ("startup_ticks_p50", "ticks"),
    ("startup_ticks_p95", "ticks"),
    ("rebuffer_frac", "ratio"),
    ("knee_s", "s"),
    ("knee_sessions", "sessions"),
    ("sim_sessions_per_s", "1/s"),
    ("origin_offload", "ratio"),
    ("failed_frac", "ratio"),
    ("trace.wall_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
];

/// How large the generated inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Seconds-long inputs for the harness smoke test.
    Tiny,
}

/// One run's settings.
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// How long the timed phase lasts.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// What one workload run measured and checked.
#[derive(Debug, Clone, Default)]
pub(crate) struct Measured {
    /// Median set-up time over the set-up repetitions, in reference
    /// seconds (see [`StepTimes`]).
    pub setup_s: f64,
    /// Work items per reference second, from the median iterations.
    pub items_per_s: f64,
    /// The run's startup-delay statistic, in simulated ticks.
    pub startup_ticks: f64,
    /// The run's deterministic answer, higher is better: what a faster
    /// build must not give up.
    pub outcome: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that failed; empty when the run is correct.
    pub problems: Vec<String>,
    /// Per-layer metrics the workload measured (others report 0).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Measured {
    /// Records a failed check `what` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok && self.problems.len() < 16 {
            self.problems.push(what());
        }
    }

    /// Sets one per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }
}

/// The printed result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Failed checks.
    pub problems: Vec<String>,
    /// Host facts.
    pub host: host::Host,
    /// The recorded spans (empty when untraced).
    pub tracer: Tracer,
}

impl Outcome {
    /// The result line: one JSON object.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_number(*v)))
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// A JSON number with every digit Rust prints for it (`null` when not
/// finite, which also fails the run's checks).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Runs one workload.
///
/// # Errors
///
/// Returns an error for an unknown workload name.
pub fn run(workload: &str, config: &Config) -> Result<Outcome, String> {
    let mut tracer = Tracer::new(config.trace);
    let mut m = match workload {
        "vod_pipeline" => workloads::vod::run(config, &mut tracer),
        "viewer_fleet" => workloads::fleet::run(config, &mut tracer),
        "cdn_knee" => workloads::knee::run(config, &mut tracer),
        "live_flash" => workloads::live::run(config, &mut tracer),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {})",
                WORKLOADS.join(", ")
            ))
        }
    };
    let host = host::Host::measure(if config.scale == Scale::Tiny { 5 } else { 60 });
    m.layer("host.nproc", host.nproc as f64);
    m.layer("host.effective_parallelism", host.effective_parallelism);
    m.layer("failed_frac", m.failed as f64 / m.attempted.max(1) as f64);
    let metrics: Vec<_> = if config.trace {
        trace_layers(&tracer, &mut m);
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, m.layers.get(n).copied().unwrap_or(0.0), u))
            .collect()
    } else {
        let values = [
            m.setup_s,
            m.items_per_s,
            m.startup_ticks,
            m.outcome,
            peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect()
    };
    let non_finite: Vec<&str> = metrics
        .iter()
        .filter(|(_, v, _)| !v.is_finite())
        .map(|(n, _, _)| *n)
        .collect();
    m.check(non_finite.is_empty(), || {
        format!("non-finite metrics: {non_finite:?}")
    });
    m.check(m.attempted > 0, || "no operation was attempted".to_string());
    Ok(Outcome {
        correct: m.problems.is_empty(),
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        problems: m.problems,
        host,
        tracer,
    })
}

/// Span names that belong to the benchmark's own control flow rather
/// than to a layer of the system; their self time is unattributed.
const GLUE_SPANS: [&str; 2] = ["bench.run", "bench.iter"];

/// The traced run's own accounting: wall time of the timed phase, the
/// share of it that layer spans cover, and how many spans were kept.
fn trace_layers(tracer: &Tracer, m: &mut Measured) {
    let table = tracer.layer_times();
    let wall_ns = table.get("bench.run").map_or(0, |t| t.total_ns);
    let glue_ns: u64 = GLUE_SPANS
        .iter()
        .filter_map(|n| table.get(n))
        .map(|t| t.self_ns)
        .sum();
    m.layer("trace.wall_ms", wall_ns as f64 / 1e6);
    m.layer(
        "trace.coverage",
        1.0 - glue_ns as f64 / wall_ns.max(1) as f64,
    );
    m.layer("trace.spans", tracer.spans().len() as f64);
}

/// The per-layer self-time table of a traced run, as printable lines.
#[must_use]
pub fn self_time_table(tracer: &Tracer) -> Vec<String> {
    let table = tracer.layer_times();
    let wall_ns = table.get("bench.run").map_or(1, |t| t.total_ns.max(1));
    let mut rows: Vec<_> = table.into_iter().collect();
    rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    let mut lines = vec![format!(
        "{:<18} {:>8} {:>12} {:>12} {:>7}",
        "span", "count", "total_ms", "self_ms", "self%"
    )];
    for (name, t) in rows {
        lines.push(format!(
            "{:<18} {:>8} {:>12.3} {:>12.3} {:>6.2}%",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / wall_ns as f64
        ));
    }
    lines
}

/// The set-up repetitions each run makes; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// What [`measure`] timed.
pub(crate) struct Timed<S> {
    /// The last set-up's output, for checks after the timed phase.
    pub(crate) setup: S,
    /// Median set-up time, in reference seconds (see [`StepTimes`]).
    pub(crate) setup_s: f64,
    /// Timed iterations run.
    pub(crate) iterations: usize,
    /// The steps the workload timed.
    pub(crate) steps: StepTimes,
}

/// The measurement protocol every workload shares.
///
/// The timed phase is cut into [`SETUP_REPS`] slices of equal wall
/// length, each preceded by one set-up repetition, so the set-up samples
/// spread over the whole run instead of sitting in one burst of
/// interference from other tenants of the host. One untraced warm-up
/// iteration (index 0) follows the first set-up. Each slice then runs
/// iterations (at least one) inside a `bench.run` span, one `bench.iter`
/// span per iteration, until the run's timed wall seconds reach the
/// slice's end. The reference kernel runs right before every set-up
/// and every timed iteration (in a `bench.reference` span), and the
/// iteration times its steps into the [`StepTimes`] it is handed.
pub(crate) fn measure<S>(
    seconds: f64,
    tracer: &mut Tracer,
    mut setup: impl FnMut() -> S,
    mut iteration: impl FnMut(&S, u64, &mut Tracer, &mut StepTimes),
) -> Timed<S> {
    let mut reference = clock::Reference::new();
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut steps = StepTimes::default();
    let mut timed = 0.0;
    let mut last = None;
    for slice in 0..SETUP_REPS {
        let reference_s = reference.run();
        let t0 = clock::Stopwatch::start();
        let s = std::hint::black_box(setup());
        setup_times.push(t0.seconds() / reference_s * clock::REFERENCE_S);
        if slice == 0 {
            iteration(&s, 0, &mut Tracer::new(false), &mut StepTimes::default());
        }
        let slice_end = seconds * (slice + 1) as f64 / SETUP_REPS as f64;
        tracer.span("bench.run", slice as u64, |tr| {
            let mut first = true;
            while first || timed < slice_end {
                first = false;
                let i = steps.iterations() as u64 + 1;
                steps.begin(tr.span("bench.reference", i, |_| reference.run()));
                let t0 = Instant::now();
                tr.span("bench.iter", i, |tr| iteration(&s, i, tr, &mut steps));
                timed += t0.elapsed().as_secs_f64();
            }
        });
        last = Some(s);
    }
    Timed {
        setup: last.expect("at least one set-up"),
        setup_s: median_of(&setup_times),
        iterations: steps.iterations(),
        steps,
    }
}

/// Median of `values` (0 when empty).
pub(crate) fn median_of(values: &[f64]) -> f64 {
    percentile(&mut values.to_vec(), 0.5)
}

/// Times of the fixed steps every timed iteration repeats (a pipeline
/// stage, a block of viewers, a whole simulation), per iteration.
///
/// Each step is timed in CPU seconds of the process, which the
/// hypervisor taking the vCPU away does not inflate. Other tenants'
/// work on the same hardware still slows every instruction, by tens of
/// percent in bursts of seconds and over minutes, so each time is
/// divided by the reference kernel's time measured right before the
/// same iteration and scaled by [`clock::REFERENCE_S`]: a step's time
/// is in reference seconds, what it would take where the kernel takes
/// its nominal time. A step's figure is the median over iterations,
/// and a step lasts a fraction of a second, so one burst moves few
/// samples.
#[derive(Debug, Default)]
pub(crate) struct StepTimes {
    /// Reference-kernel CPU seconds before each timed iteration.
    reference: Vec<f64>,
    /// `steps[k][i]`: CPU seconds step `k` took in timed iteration `i`.
    steps: Vec<Vec<f64>>,
}

impl StepTimes {
    /// Starts the next timed iteration, after the reference kernel took
    /// `reference_s` CPU seconds.
    fn begin(&mut self, reference_s: f64) {
        self.reference.push(reference_s.max(f64::MIN_POSITIVE));
    }

    /// Timed iterations begun; the current one's 1-based index.
    pub(crate) fn iterations(&self) -> usize {
        self.reference.len()
    }

    /// Adds `cpu_s` CPU seconds to step `step` of the current iteration.
    /// Ignored outside a timed iteration (the warm-up).
    pub(crate) fn add(&mut self, step: usize, cpu_s: f64) {
        let Some(i) = self.iterations().checked_sub(1) else {
            return;
        };
        if self.steps.len() <= step {
            self.steps.resize_with(step + 1, Vec::new);
        }
        let times = &mut self.steps[step];
        if times.len() <= i {
            times.resize(i + 1, 0.0);
        }
        times[i] += cpu_s;
    }

    /// The median over iterations of one step's time, in reference
    /// seconds.
    pub(crate) fn median(&self, step: usize) -> f64 {
        let Some(times) = self.steps.get(step) else {
            return 0.0;
        };
        let scaled: Vec<f64> = times
            .iter()
            .zip(&self.reference)
            .map(|(t, r)| t / r * clock::REFERENCE_S)
            .collect();
        median_of(&scaled)
    }

    /// The sum of every step's median, in reference seconds.
    pub(crate) fn median_total(&self) -> f64 {
        (0..self.steps.len()).map(|k| self.median(k)).sum()
    }
}

/// Median over timed iterations of the milliseconds spent in spans
/// named `span` (0 when untraced).
pub(crate) fn layer_ms(tracer: &Tracer, span: &str) -> f64 {
    median_of(&tracer.per_group_ms("bench.iter", span))
}

/// Nearest-rank percentile `q` in `[0, 1]` (0 for an empty slice);
/// sorts in place.
pub(crate) fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Peak resident set size of this process, in MB (0 where the platform
/// does not report it).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A sub-seed for stream `salt` of the run seed.
pub(crate) fn subseed(seed: u64, salt: u64) -> u64 {
    signal::rng::splitmix64(seed ^ signal::rng::splitmix64(salt))
}
