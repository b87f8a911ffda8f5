//! E15 — §7: drive servo control adapted to the mechanism.
//!
//! Runs the 50 kHz tracking loop on three mechanism variants under (a)
//! the fixed nominal control law and (b) the mechanism-adapted law.
//! Asserted shape: the fixed law's error grows more than 1.3x off the
//! nominal mechanism (the bar of
//! `servo::loopctl::tests::fixed_gains_degrade_on_off_nominal_mechanisms`),
//! and the adapted law beats it on every mechanism. Adaptation does not
//! recover nominal tracking everywhere: the loose variant's adapted
//! error is still ~1.75x the fixed law's on the nominal mechanism.

use mmsoc::report::{f, Table};
use servo::control::Pid;
use servo::loopctl::{adapt_gains, nominal_gains, run_loop};
use servo::plant::Mechanism;

/// Prints the tracking table, asserts the adaptation's shape and
/// returns the (fixed, adapted) RMS tracking errors for the nominal,
/// stiff and loose mechanisms.
pub fn run() -> [(f64, f64); 3] {
    const FS: f64 = 50_000.0;
    let mechanisms = [
        ("nominal", Mechanism::nominal()),
        ("stiff variant", Mechanism::stiff()),
        ("loose variant", Mechanism::loose()),
    ];

    let mut table = Table::new(vec![
        "mechanism",
        "resonance Hz",
        "fixed-law RMS err",
        "adapted RMS err",
        "fixed atten.",
        "adapted atten.",
    ]);
    let errors = mechanisms.map(|(name, mech)| {
        let fixed = {
            let mut pid = Pid::new(nominal_gains(), FS);
            run_loop(mech, &mut pid, FS, 150_000, 15)
        };
        let gains = adapt_gains(mech, FS);
        let adapted = {
            let mut pid = Pid::new(gains, FS);
            run_loop(mech, &mut pid, FS, 150_000, 15)
        };
        table.row(vec![
            name.to_string(),
            f(mech.natural_freq() / core::f64::consts::TAU, 1),
            f(fixed.rms_error, 4),
            f(adapted.rms_error, 4),
            f(fixed.attenuation(), 1),
            f(adapted.attenuation(), 1),
        ]);
        (fixed.rms_error, adapted.rms_error)
    });
    println!("{table}");
    println!(
        "expected shape: the fixed law degrades off the nominal mechanism; the \
         adapted law beats it on all three."
    );
    for (fixed, adapted) in errors {
        assert!(adapted < fixed, "adaptation must beat the fixed law");
    }
    for (fixed, _) in &errors[1..] {
        assert!(
            *fixed > 1.3 * errors[0].0,
            "the fixed law must degrade off-nominal"
        );
    }
    errors
}
