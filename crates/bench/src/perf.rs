//! Machine-readable perf reporting for the experiment harness.
//!
//! Every perf-focused PR is judged against the repo's bench trajectory
//! (`BENCH_*.json` at the workspace root). This module is the writer: a
//! tiny dependency-free JSON emitter ([`PerfReport`]) shared by the
//! harness experiments, `e19_perf` to `e27_abr`. The format is
//! deliberately flat — one named entry per kernel or scenario — so CI
//! can diff it and humans can read it.
//!
//! Each entry keeps two maps apart:
//!
//! * `metrics` ([`PerfEntry::metric`]) hold results: op counts, knees,
//!   ledgers, bit-identity flags and modeled makespans, which the same
//!   code reproduces on any host. CI requires them to equal the
//!   committed file's.
//! * `timings` ([`PerfEntry::timing`]) hold what the host decides: wall
//!   times, rates and speedups derived from them, and host readings
//!   such as CPU counts. CI ignores them. Each is one reading, taken one
//!   of three ways: the median of 7 samples from [`median_ns_per_iter`]
//!   (`e19_perf`, `e20_stream`), one `Instant` span around a single run
//!   (`e23_sim`'s sweep levels, `e26_par`'s pooled sweep), or the best
//!   of 3 runs (`e26_par`'s encode grid). None carries a spread.

use signal::dct1d::Dct1d;
use std::time::{Duration, Instant};

/// The seed `Dct2d`: generic matrix 1-D transforms composed row–column.
/// Kept here (not in `video`, which now runs the fixed-8 butterfly) as
/// the baseline that `e19_perf` measures the butterfly against.
///
/// # Panics
///
/// Panics if `block.len() != 64` or `dct` was not planned for size 8.
#[must_use]
pub fn matrix_dct2d_forward(dct: &Dct1d, block: &[f64]) -> [f64; 64] {
    assert_eq!(block.len(), 64, "expected an 8x8 block");
    assert_eq!(dct.len(), 8, "expected an 8-point 1-D DCT");
    let mut tmp = [0.0; 64];
    let mut line = [0.0; 8];
    for r in 0..8 {
        dct.forward_into(&block[r * 8..(r + 1) * 8], &mut line);
        tmp[r * 8..(r + 1) * 8].copy_from_slice(&line);
    }
    let mut out = [0.0; 64];
    let mut col = [0.0; 8];
    for c in 0..8 {
        for r in 0..8 {
            col[r] = tmp[r * 8 + c];
        }
        dct.forward_into(&col, &mut line);
        for r in 0..8 {
            out[r * 8 + c] = line[r];
        }
    }
    out
}

/// One measured kernel: a name plus ordered `name -> value` results and
/// timings.
#[derive(Debug, Clone)]
pub struct PerfEntry {
    /// Kernel/scenario name, e.g. `"me_full_qcif"`.
    pub name: String,
    /// Ordered host-independent results, e.g. `("sad_evaluations", 225.0)`.
    pub metrics: Vec<(String, f64)>,
    /// Ordered host-dependent readings, e.g. `("wall_ns_per_block", 812.4)`.
    pub timings: Vec<(String, f64)>,
}

impl PerfEntry {
    /// Creates an empty entry.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            metrics: Vec::new(),
            timings: Vec::new(),
        }
    }

    /// Appends a result that the same code reproduces on any host
    /// (builder style).
    ///
    /// # Panics
    ///
    /// Panics on non-finite values — NaN/inf have no JSON encoding and
    /// always indicate a harness bug.
    #[must_use]
    pub fn metric(mut self, name: &str, value: f64) -> Self {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push((name.to_string(), value));
        self
    }

    /// Appends a host-dependent reading: a wall time, a rate or speedup
    /// derived from one, or a host property (builder style).
    ///
    /// # Panics
    ///
    /// Panics on non-finite values, as [`PerfEntry::metric`] does.
    #[must_use]
    pub fn timing(mut self, name: &str, value: f64) -> Self {
        assert!(value.is_finite(), "timing {name} is not finite: {value}");
        self.timings.push((name.to_string(), value));
        self
    }
}

/// A set of [`PerfEntry`]s serialisable as a JSON document.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Report name, e.g. `"video_hot_path"`.
    pub name: String,
    /// What generated it, e.g. `"exp_e19_perf"` (the experiment's
    /// original binary name, which every BENCH file keeps).
    pub generated_by: String,
    /// Measured kernels, in insertion order.
    pub entries: Vec<PerfEntry>,
}

impl PerfReport {
    /// Creates an empty report.
    #[must_use]
    pub fn new(name: &str, generated_by: &str) -> Self {
        Self {
            name: name.to_string(),
            generated_by: generated_by.to_string(),
            entries: Vec::new(),
        }
    }

    /// Adds an entry.
    pub fn push(&mut self, entry: PerfEntry) {
        self.entries.push(entry);
    }

    /// Serialises the report as pretty-printed JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"report\": {},\n", json_string(&self.name)));
        out.push_str(&format!(
            "  \"generated_by\": {},\n",
            json_string(&self.generated_by)
        ));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"name\": {},\n", json_string(&e.name)));
            json_map(&mut out, "metrics", &e.metrics);
            if !e.timings.is_empty() {
                out.push_str(",\n");
                json_map(&mut out, "timings", &e.timings);
            }
            out.push('\n');
            out.push_str(if i + 1 < self.entries.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON document to `path`.
    ///
    /// # Errors
    ///
    /// An [`std::io::ErrorKind::InvalidData`] error, writing nothing,
    /// when the report has no entries (a run that measured nothing must
    /// not pass for one that did); otherwise the underlying I/O error.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        if self.entries.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("perf report `{}` has no entries", self.name),
            ));
        }
        std::fs::write(path, self.to_json())
    }
}

/// Appends `"key": { ... }` at entry depth, without a trailing newline.
fn json_map(out: &mut String, key: &str, values: &[(String, f64)]) {
    let fields: Vec<String> = values
        .iter()
        .map(|(k, v)| format!("\n        {}: {}", json_string(k), json_number(*v)))
        .collect();
    out.push_str(&format!(
        "      {}: {{{}\n      }}",
        json_string(key),
        fields.join(",")
    ));
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "JSON cannot encode {v}");
    // Round-trippable but diff-friendly: 3 decimal places is ample for ns.
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.3}")
    }
}

/// Median wall-clock nanoseconds of one invocation of `f`: double the
/// iteration count until a sample lasts ~10 ms (or 40 ms of warm-up
/// pass), then take the median of 7 samples of that many iterations.
/// Each result passes through [`std::hint::black_box`], so the work
/// that makes it cannot be optimized away. `e19_perf` and `e20_stream`
/// time every kernel row with it.
pub fn median_ns_per_iter<T, F: FnMut() -> T>(mut f: F) -> f64 {
    const SAMPLE_TARGET: Duration = Duration::from_millis(10);
    const WARMUP_TARGET: Duration = Duration::from_millis(40);
    const SAMPLES: usize = 7;
    let mut iters: u64 = 1;
    let warmup = Instant::now();
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        if t.elapsed() >= SAMPLE_TARGET || warmup.elapsed() >= WARMUP_TARGET {
            break;
        }
        iters = iters.saturating_mul(2);
    }
    let mut per_iter: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            t.elapsed().as_secs_f64() * 1e9 / iters as f64
        })
        .collect();
    per_iter.sort_by(f64::total_cmp);
    per_iter[SAMPLES / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_parseable_by_inspection() {
        let mut r = PerfReport::new("video_hot_path", "exp_e19_perf");
        r.push(
            PerfEntry::new("me_full")
                .metric("wall_ns_per_block", 812.375)
                .metric("sad_evaluations", 225.0),
        );
        r.push(PerfEntry::new("dct8x8").metric("wall_ns_per_block", 96.0));
        let j = r.to_json();
        // Structural sanity: balanced braces/brackets, both entries, and
        // metric keys present.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"me_full\"") && j.contains("\"dct8x8\""));
        assert!(j.contains("\"wall_ns_per_block\": 812.375"));
        assert!(j.contains("\"sad_evaluations\": 225"));
    }

    #[test]
    fn an_entry_without_timings_serializes_byte_exactly() {
        let mut r = PerfReport::new("r", "exp_t");
        r.push(PerfEntry::new("a").metric("n", 3.0).metric("x", 0.125));
        r.push(PerfEntry::new("b"));
        assert_eq!(
            r.to_json(),
            "{\n  \"report\": \"r\",\n  \"generated_by\": \"exp_t\",\n  \"entries\": [\n    \
             {\n      \"name\": \"a\",\n      \"metrics\": {\n        \"n\": 3,\n        \
             \"x\": 0.125\n      }\n    },\n    {\n      \"name\": \"b\",\n      \
             \"metrics\": {\n      }\n    }\n  ]\n}\n"
        );
    }

    #[test]
    fn timings_serialize_after_metrics() {
        let mut r = PerfReport::new("r", "exp_t");
        r.push(
            PerfEntry::new("a")
                .timing("wall_ns", 812.375)
                .metric("n", 3.0),
        );
        assert!(r.to_json().contains(
            "      \"metrics\": {\n        \"n\": 3\n      },\n      \
             \"timings\": {\n        \"wall_ns\": 812.375\n      }\n    }\n"
        ));
    }

    #[test]
    fn an_empty_report_is_refused_and_writes_nothing() {
        let path = std::env::temp_dir().join(format!("empty_perf_{}.json", std::process::id()));
        let path = path.to_str().expect("temp path is UTF-8");
        let err = PerfReport::new("empty", "t")
            .write(path)
            .expect_err("an empty report must not write");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(!std::path::Path::new(path).exists());
    }

    #[test]
    fn json_escapes_special_characters() {
        let r = PerfReport::new("a\"b\\c\nd", "t");
        let j = r.to_json();
        assert!(j.contains("a\\\"b\\\\c\\nd"));
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_metric_panics() {
        let _ = PerfEntry::new("x").metric("bad", f64::NAN);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_timing_panics() {
        let _ = PerfEntry::new("x").timing("bad", f64::INFINITY);
    }

    #[test]
    fn timer_returns_positive_duration() {
        let mut acc = 0u64;
        let ns = median_ns_per_iter(|| {
            acc = acc.wrapping_add(std::hint::black_box(1));
        });
        assert!(ns > 0.0);
    }
}
