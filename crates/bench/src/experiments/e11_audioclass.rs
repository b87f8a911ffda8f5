//! E11 — §5: audio content categorization.
//!
//! Trains the nearest-centroid classifier on one set of
//! speech/music/noise clips and evaluates on held-out seeds: a confusion
//! matrix and overall accuracy, which must beat chance (1/3)
//! comfortably: above 0.7 (asserted).

use analysis::classify::{AudioClass, Classifier};
use mmsoc::report::{f, Table};
use signal::gen::SignalGen;

const FS: f64 = 8000.0;
const WIN: usize = 512;

fn corpus(seed: u64, len: usize) -> [(AudioClass, Vec<f64>); 3] {
    let mut g = SignalGen::new(seed);
    let (speech, _) = g.speech_sentence(FS, len);
    let music = g.music(261.0, FS, len);
    let noise = g.white_noise(0.4, len);
    [
        (AudioClass::Speech, speech),
        (AudioClass::Music, music),
        (AudioClass::Noise, noise),
    ]
}

/// Prints the confusion matrix, asserts accuracy above 0.7 and returns
/// it.
pub fn run() -> f64 {
    let train = corpus(100, 16_384);
    let train_refs: Vec<(AudioClass, &[f64])> =
        train.iter().map(|(c, s)| (*c, s.as_slice())).collect();
    let clf = Classifier::train(WIN, &train_refs).expect("training data is non-empty");

    // Confusion matrix over held-out seeds.
    let classes = [AudioClass::Speech, AudioClass::Music, AudioClass::Noise];
    let mut confusion = [[0usize; 3]; 3];
    let mut correct = 0;
    let mut total = 0;
    for seed in 200..230 {
        for (truth, clip) in corpus(seed, 8192) {
            let predicted = clf.classify(&clip).expect("clip long enough");
            let ti = classes
                .iter()
                .position(|c| *c == truth)
                .expect("known class");
            let pi = classes
                .iter()
                .position(|c| *c == predicted)
                .expect("known class");
            confusion[ti][pi] += 1;
            total += 1;
            if ti == pi {
                correct += 1;
            }
        }
    }

    let mut table = Table::new(vec!["truth \\ predicted", "speech", "music", "noise"]);
    for (ti, truth) in classes.iter().enumerate() {
        table.row(vec![
            truth.to_string(),
            confusion[ti][0].to_string(),
            confusion[ti][1].to_string(),
            confusion[ti][2].to_string(),
        ]);
    }
    println!("{table}");
    let acc = correct as f64 / total as f64;
    println!(
        "accuracy over {total} held-out clips: {} (chance = 0.333)",
        f(acc, 3)
    );
    assert!(acc > 0.7, "categorization must be well above chance");
    acc
}
