//! The experiment registry: every paper claim (E1–E18) and every perf
//! harness (E19–E27), each a module with a `run` function, named and
//! run in order by the `exp` binary.
//!
//! A paper experiment prints its table, asserts its claim and returns
//! the measured shape. A harness fills a [`PerfReport`] (asserting its
//! bars as it goes), which the registry writes to its `BENCH_*.json`
//! file under the harness's original binary name, `exp_<name>`.

use crate::perf::PerfReport;

/// What an experiment does once its banner is printed.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A paper claim: prints its table and asserts the claim.
    Claim(fn()),
    /// A harness: fills a report named `report`, written to `file`.
    Bench {
        /// The report file, e.g. `"BENCH_edge.json"`.
        file: &'static str,
        /// The report's name, e.g. `"edge_delivery"`.
        report: &'static str,
        /// Measures, asserts and pushes the report's entries.
        run: fn(&mut PerfReport),
    },
}

/// One named experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The name it is run by, e.g. `"e21_edge"`.
    pub name: &'static str,
    /// The banner title.
    pub title: &'static str,
    /// The paper claim it regenerates.
    pub claim: &'static str,
    /// What it runs.
    pub kind: Kind,
}

impl Experiment {
    /// The `generated_by` of a harness's report: its original binary's
    /// name, `exp_<name>`, so every BENCH file keeps its shape.
    #[must_use]
    pub fn generated_by(&self) -> String {
        format!("exp_{}", self.name)
    }

    /// Prints the banner and runs the experiment, writing a harness's
    /// report.
    ///
    /// # Panics
    ///
    /// Panics when a claim or bar fails, or the report cannot be
    /// written.
    pub fn run(&self) {
        println!("=== {} ===\npaper claim: {}\n", self.title, self.claim);
        match self.kind {
            Kind::Claim(run) => run(),
            Kind::Bench { file, report, run } => {
                let mut report = PerfReport::new(report, &self.generated_by());
                run(&mut report);
                report
                    .write(file)
                    .unwrap_or_else(|e| panic!("write {file}: {e}"));
                println!("\nwrote {file} ({} entries)", report.entries.len());
            }
        }
        println!();
    }
}

/// The experiments named by `args`, in the order given; `all` stands
/// for every experiment in registry order.
///
/// # Errors
///
/// A message listing the valid names when `args` is empty or names an
/// unknown experiment.
pub fn select(args: &[String]) -> Result<Vec<&'static Experiment>, String> {
    let valid = || {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        format!("valid names: all, {}", names.join(", "))
    };
    if args.is_empty() {
        return Err(format!("usage: exp <name>... | exp all\n{}", valid()));
    }
    let mut out = Vec::new();
    for arg in args {
        match EXPERIMENTS.iter().find(|e| e.name == arg) {
            Some(e) => out.push(e),
            None if arg == "all" => out.extend(EXPERIMENTS.iter()),
            None => return Err(format!("unknown experiment `{arg}`; {}", valid())),
        }
    }
    Ok(out)
}

/// Declares each experiment's module and lists it in [`EXPERIMENTS`],
/// named after its module: `claim name: title, claim;` for a paper
/// claim run by `name::run`, and `bench name(file, report): title,
/// claim;` for a harness whose `name::run` fills the report.
macro_rules! experiments {
    ($($kind:ident $module:ident $(($file:literal, $report:literal))?: $title:literal, $claim:literal;)*) => {
        $(pub mod $module;)*

        /// Every experiment, E1 to E27.
        pub static EXPERIMENTS: &[Experiment] = &[$(Experiment {
            name: stringify!($module),
            title: $title,
            claim: $claim,
            kind: experiments!(@$kind $module $($file, $report)?),
        }),*];
    };
    (@claim $module:ident) => {
        Kind::Claim(|| {
            $module::run();
        })
    };
    (@bench $module:ident $file:literal, $report:literal) => {
        Kind::Bench { file: $file, report: $report, run: $module::run }
    };
}

experiments! {
    claim e1_video_pipeline: "E1: Figure 1 — video encoder structure",
        "the encoder is DCT + quantizer + VLC + buffer with an ME/MC feedback loop; \
         motion estimation is the dominant computation";
    claim e2_audio_pipeline: "E2: Figure 2 — MPEG-1 audio encoder structure",
        "the encoder is mapper + quantizer/coder + frame packer steered by a \
         psychoacoustic model";
    claim e3_symmetry: "E3: symmetric vs asymmetric compression (§2)",
        "videoconferencing needs roughly equal compute at both ends; broadcast \
         puts more effort into encoding to simplify the decoder";
    claim e4_dct: "E4: 2-D DCT from two 1-D DCTs (§3)",
        "the separable row-column evaluation needs far fewer operations than a \
         direct 2-D transform while producing the same coefficients";
    claim e5_me: "E5: motion estimation/compensation (§3)",
        "ME/MC greatly reduce the bits needed to represent a sequence; fast \
         searches trade a little quality for far fewer operations";
    claim e6_transcode: "E6: transcoding generation loss (§3)",
        "because encoding is lossy, each generation of transcoding reduces \
         image quality";
    claim e7_masking: "E7: masking in the psychoacoustic model (§4)",
        "when one tone is heard, a nearby weaker tone cannot be heard; the \
         encoder eliminates masked tones to reduce the information sent";
    claim e8_rpeltp: "E8: RPE-LTP speech coding (§4)",
        "GSM's RPE-LTP uses a simple voice model: periodic voiced sound and \
         broadband unvoiced sound from filtered glottal resonance plus noise";
    claim e9_commercial: "E9: commercial detection (§5)",
        "Replay skips commercials via black separator frames; early VCRs used \
         the color burst, assuming B&W programs and color commercials";
    claim e10_shots: "E10: scene segmentation (§5)",
        "algorithms can parse television content into segments so a viewer can \
         skip to the next part of the program";
    claim e11_audioclass: "E11: audio categorization (§5)",
        "audio content analysis categorizes material (e.g. music) from salient \
         features, enabling search and recommendation";
    claim e12_drm: "E12: digital rights management (§6)",
        "rights take four forms (play, play count, device set, time window); \
         playback must not be easily subverted";
    claim e13_fs: "E13: media file systems (§7)",
        "large file sizes and non-sequential allocation of blocks are \
         unavoidable; foreign CD/MP3 trees must be handled regardless of \
         directory structure or names";
    claim e14_net: "E14: small IP stack for content access and DRM (§7)",
        "devices use small IP stacks for limited purposes such as content \
         access or DRM; reliability must come from the stack, not the link";
    claim e15_servo: "E15: mechanism-adapted servo control (§7)",
        "drive control needs complex digital filters at high rates, with \
         control laws adapted to the particular mechanism being used";
    claim e16_mapping: "E16: MPSoC mapping of the encoder (§1-2, §8)",
        "multimedia workloads need multiprocessor SoCs: more PEs buy \
         throughput until the interconnect or the mapping becomes the limit";
    claim e17_devices: "E17: device classes (§2)",
        "consumer multimedia devices cover a broad range of \
         cost/performance/power points";
    claim e18_wavelet: "E18: wavelets vs DCT at edges (§3)",
        "wavelets represent frequency content hierarchically and do not suffer \
         the edge artifacts common to DCT-based encoding (JPEG2000)";
    bench e19_perf("BENCH_video.json", "video_hot_path"):
        "E19: video hot-path perf (BENCH_video.json)",
        "the encoder inner loop does no per-candidate heap allocation and \
         abandons losing SAD candidates row-wise; the fixed-8 butterfly \
         beats the generic matrix DCT";
    bench e20_stream("BENCH_stream.json", "stream_delivery"):
        "E20: streaming delivery perf (BENCH_stream.json)",
        "the transport mux moves segments at memory-bound rates and one \
         simulated segment server feeds >=1000 concurrent ABR sessions \
         up to a measurable capacity knee";
    bench e21_edge("BENCH_edge.json", "edge_delivery"):
        "E21: edge-cache delivery tier (BENCH_edge.json)",
        "N edge caches in front of the origin multiply serving capacity: \
         the capacity knee scales with edge count instead of being pinned \
         to one uplink, and warm edges serve through an origin outage";
    bench e22_live("BENCH_live.json", "live_delivery"):
        "E22: live/linear delivery (BENCH_live.json)",
        "a rolling-window live channel through the delivery stack: the \
         live capacity knee scales with edge count, latency trades \
         against DVR depth, and a warm edge tier absorbs the 10x flash \
         crowd that collapses a single origin";
    bench e23_sim("BENCH_sim.json", "sim_core"):
        "E23: event-calendar simulation core (BENCH_sim.json)",
        "the cohort fluid engine reproduces every edge-tier capacity \
         knee and the flash-crowd absorption bar of the per-session \
         engine, then takes the same live workload to one million \
         concurrent viewers in seconds";
    bench e24_fault("BENCH_fault.json", "fault"):
        "E24: fault injection, failover, and the resilience ledger (BENCH_fault.json)",
        "a warm edge tier degrades gracefully as a fault plan takes \
         edges away, survives a composed crash+flap+flash-crowd \
         scenario with <5% of sessions impacted, and the failover \
         ring re-homes only a crashed edge's keys";
    bench e25_cdn("BENCH_cdn.json", "cdn"):
        "E25: the hierarchical CDN — shields, TinyLFU, Zipf catalogs (BENCH_cdn.json)",
        "a 4-shield tier in front of 64 edges serves a 512-title Zipf \
         catalog to millions of burst sessions with >99.9% origin \
         offload, TinyLFU admission matches or beats LRU at 1/8 \
         working-set cache, the knee stays pro-rata as edges-per-shield \
         grows, and the composed fault scenario survives a shield crash";
    bench e26_par("BENCH_par.json", "par_headend"):
        "E26: head-end on the MPSoC model + host parallelism (BENCH_par.json)",
        "one staged head-end definition is executed on scoped host \
         threads (bit-identical to sequential at any worker count) \
         and mapped onto MPSoC platform configurations (latency/energy \
         per PE count), and the 1M-session live sweep reruns in \
         parallel with exactly the sequential numbers";
    bench e27_abr("BENCH_abr.json", "abr_shootout"):
        "E27: ABR controller shootout on real pipes (BENCH_abr.json)",
        "AIMD beats a big fixed window on a bufferbloated link, and on a \
         bursty channel the hybrid controller rebuffers no more than the \
         throughput-only EWMA controller";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len());
    }

    #[test]
    fn all_lists_e1_to_e27_in_order() {
        let all = select(&["all".to_string()]).expect("`all` is valid");
        assert_eq!(all.len(), 27);
        for (i, e) in all.iter().enumerate() {
            assert!(
                e.name.starts_with(&format!("e{}_", i + 1)),
                "experiment {} is `{}`",
                i + 1,
                e.name
            );
        }
    }

    #[test]
    fn names_select_in_the_order_given() {
        let picked = select(&["e5_me".to_string(), "e1_video_pipeline".to_string()]);
        let names: Vec<&str> = picked
            .expect("both are valid")
            .iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, ["e5_me", "e1_video_pipeline"]);
    }

    #[test]
    fn each_report_carries_its_committed_files_generator() {
        let mut harnesses = 0;
        for e in EXPERIMENTS {
            let Kind::Bench { file, report, .. } = e.kind else {
                continue;
            };
            harnesses += 1;
            assert_eq!(e.generated_by(), format!("exp_{}", e.name));
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let committed = std::fs::read_to_string(&path).expect("the BENCH file is committed");
            for (key, value) in [
                ("report", report.to_string()),
                ("generated_by", e.generated_by()),
            ] {
                assert!(
                    committed.contains(&format!("\"{key}\": \"{value}\"")),
                    "{file} must carry {key} `{value}`"
                );
            }
        }
        assert_eq!(harnesses, 9, "E19 to E27 each write one BENCH file");
    }

    #[test]
    fn an_unknown_name_is_an_error_listing_the_valid_names() {
        let err = select(&["e99_nope".to_string()]).expect_err("no such experiment");
        assert!(err.contains("e99_nope"));
        for e in EXPERIMENTS {
            assert!(err.contains(e.name), "`{}` is not listed: {err}", e.name);
        }
        assert!(select(&[]).is_err(), "no names is a usage error");
    }
}
