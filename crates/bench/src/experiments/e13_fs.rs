//! E13 — §7: the embedded media file system.
//!
//! (a) Streaming cost vs allocation policy: contiguous vs churned vs
//! deliberately scattered chains, priced with the seek model. (b) Foreign
//! CD/MP3 trees in four authoring styles must enumerate completely.
//! Asserted: fragmentation, seeks and modelled time rise from layout to
//! layout (scattered at least 10x the contiguous seeks), and every
//! style enumerates completely.

use mediafs::foreign::{generate_tree, scan_tracks, TreeStyle};
use mediafs::fs::{AllocPolicy, MediaFs};
use mmsoc::report::{count, f, Table};

/// One layout's streaming cost: fragmentation, seeks and modelled ms.
pub type LayoutCost = (f64, u64, f64);

/// Streams `/rec.ts` back from `fs` and prices the read.
fn read_cost(fs: &mut MediaFs) -> LayoutCost {
    fs.reset_io_stats();
    fs.read("/rec.ts").expect("read");
    let io = fs.io_stats();
    (
        fs.fragmentation("/rec.ts").expect("frag"),
        io.seeks,
        io.time_ms(8.0, 0.05),
    )
}

/// Prints both tables, asserts the file system's shape and returns the
/// contiguous, churned and scattered layouts' costs.
pub fn run() -> [LayoutCost; 3] {
    // (a) Fragmentation pricing: stream a 2 MB recording.
    let file = vec![0u8; 2 * 1024 * 1024];
    // Contiguous.
    let mut seq = MediaFs::new(16_384, 512, AllocPolicy::FirstFit);
    seq.create("/rec.ts", &file).expect("create");
    // Churned: fill/delete cycles then allocate.
    let mut churn = MediaFs::new(16_384, 512, AllocPolicy::FirstFit);
    for i in 0..24 {
        churn
            .create(&format!("/t{i}"), &vec![0u8; 512 * 256])
            .expect("create");
    }
    for i in (0..24).step_by(2) {
        churn.delete(&format!("/t{i}")).expect("delete");
    }
    churn.create("/rec.ts", &file).expect("create");
    // Fully scattered.
    let mut scat = MediaFs::new(16_384, 512, AllocPolicy::Scatter(13));
    scat.create("/rec.ts", &file).expect("create");

    let costs = [&mut seq, &mut churn, &mut scat].map(read_cost);
    let mut table = Table::new(vec![
        "layout",
        "fragmentation",
        "seeks",
        "modelled read time (ms)",
    ]);
    let layouts = [
        "contiguous (first-fit, fresh disk)",
        "churned (first-fit after deletes)",
        "scattered (worst case)",
    ];
    for (name, (frag, seeks, ms)) in layouts.iter().zip(costs) {
        table.row(vec![name.to_string(), f(frag, 3), count(seeks), f(ms, 1)]);
    }
    println!("{table}");

    // (b) Foreign trees.
    let mut table = Table::new(vec![
        "authoring style",
        "tracks written",
        "tracks found",
        "complete?",
    ]);
    for style in [
        TreeStyle::Dos83,
        TreeStyle::LongNames,
        TreeStyle::DeepNested,
        TreeStyle::FlatDump,
    ] {
        let mut fs = MediaFs::new(8_192, 512, AllocPolicy::FirstFit);
        let written = generate_tree(&mut fs, style, 40, 14).expect("generate");
        let found = scan_tracks(&fs, "/").expect("scan");
        assert_eq!(
            found.len(),
            written.len(),
            "{style} must enumerate completely"
        );
        table.row(vec![
            style.to_string(),
            written.len().to_string(),
            found.len().to_string(),
            "yes".to_string(),
        ]);
    }
    println!("{table}");
    println!("expected shape: seek count (and modelled time) grows with fragmentation; every foreign style enumerates completely.");
    for pair in costs.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        assert!(
            a.0 < b.0 && a.1 < b.1 && a.2 < b.2,
            "cost must grow with fragmentation"
        );
    }
    assert!(
        costs[2].1 >= 10 * costs[0].1,
        "scattering must cost 10x the seeks"
    );
    costs
}
