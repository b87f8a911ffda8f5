//! E17 — §2: the five consumer device classes as
//! cost/performance/power points.
//!
//! Deploys each device's application on its platform preset and reports
//! throughput vs real-time target, energy per frame, and average power.
//! Asserted shape: the audio player has the lightest workload and the
//! lowest energy per frame, the DVR the heaviest and the highest, and
//! every device meets its real-time target. Workload does not rank the
//! rest: the phone's application (2.5M ops/frame) outweighs the
//! player's (85k), and the camera's power sits well below the DVR's.

use mmsoc::deploy::deploy_device;
use mmsoc::profile::DeviceClass;
use mmsoc::report::{count, f, Table};

/// Prints the device table, asserts the §2 ordering's ends and returns
/// each class's (ops per frame, mJ per frame), in `DeviceClass::ALL`
/// order.
pub fn run() -> [(u64, f64); 5] {
    let mut table = Table::new(vec![
        "device",
        "PEs",
        "app ops/frame",
        "fps achieved",
        "fps target",
        "meets RT?",
        "mJ/frame",
        "avg power (mW)",
    ]);
    let points = DeviceClass::ALL.map(|class| {
        let graph_ops = class.application(17).total_ops().total();
        let d = deploy_device(class, 17, 12).expect("deploy");
        let target = class.realtime_target_hz();
        let energy_per_frame = d.report.energy().total_j() / d.report.iterations() as f64;
        let power = d.report.energy().average_power_w(d.report.makespan_s());
        assert!(d.meets(target), "{class} must meet its real-time target");
        table.row(vec![
            class.to_string(),
            class.platform().pe_count().to_string(),
            count(graph_ops),
            f(d.throughput_hz(), 1),
            f(target, 1),
            "yes".to_string(),
            f(energy_per_frame * 1e3, 3),
            f(power * 1e3, 1),
        ]);
        (graph_ops, energy_per_frame * 1e3)
    });
    println!("{table}");
    println!(
        "expected shape: audio player lightest, DVR heaviest, in workload and in \
         per-frame energy."
    );
    let at = |class| {
        points[DeviceClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("listed")]
    };
    let (player, dvr) = (at(DeviceClass::AudioPlayer), at(DeviceClass::VideoRecorder));
    for &(ops, mj) in &points {
        assert!(
            player.0 <= ops && ops <= dvr.0,
            "the player is lightest, the DVR heaviest"
        );
        assert!(
            player.1 <= mj && mj <= dvr.1,
            "per-frame energy must follow the ends"
        );
    }
    points
}
