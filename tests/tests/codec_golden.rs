//! A golden of the codec's reconstruction loop: 216 encoder
//! configurations (3 sizes × 4 qualities × GOP 1, 3 and 12 × 3 motion
//! searches × rate control off and on), each reduced to an FNV-1a digest
//! of everything the encoder and the decoder report. Per configuration
//! it hashes the bitstream, the `StageTally`, every frame's statistics,
//! the decoded planes and kinds, the decoder's `idct_blocks` and
//! `mc_pixels`, and the outcome of decoding five truncated prefixes of
//! the stream. f64 fields hash by `to_bits`, so a digest pins its
//! configuration bit for bit. On a mismatch the test prints every
//! configuration whose digest moved.

use video::decoder::decode;
use video::encoder::{EncodedSequence, Encoder, EncoderConfig, FrameKind};
use video::rate::RateConfig;
use video::synth::SequenceGen;
use video::{Frame, SearchKind};

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const SIZES: [(usize, usize); 3] = [(32, 32), (48, 32), (64, 48)];
const QUALITIES: [u8; 4] = [10, 40, 75, 95];
const GOPS: [usize; 3] = [1, 3, 12];
const SEARCHES: [SearchKind; 3] = [SearchKind::Full, SearchKind::ThreeStep, SearchKind::Diamond];
const FRAMES: usize = 13;

/// A noisy pan of 3 pixels right and 2 up per frame: 13 frames, so GOP
/// 12 still opens a second GOP.
fn source(w: usize, h: usize) -> Vec<Frame> {
    let mut frames = SequenceGen::new(29).panning_sequence(w, h, FRAMES, 3, -2);
    let mut sensor = SequenceGen::new(31);
    for f in &mut frames {
        sensor.add_noise(f, 2.0);
    }
    frames
}

/// Every configuration of the grid, in table order.
fn grid() -> Vec<((usize, usize), EncoderConfig)> {
    let mut out = Vec::new();
    for size in SIZES {
        for quality in QUALITIES {
            for gop in GOPS {
                for search in SEARCHES {
                    for rate in [false, true] {
                        let target = (size.0 * size.1) as f64 / 2.0;
                        let config = EncoderConfig {
                            quality,
                            gop,
                            search,
                            search_range: 7,
                            rate: rate.then(|| RateConfig::for_target(target)),
                        };
                        out.push((size, config));
                    }
                }
            }
        }
    }
    out
}

/// The digest of one encode and its decodes.
fn digest(enc: &EncodedSequence) -> u64 {
    let mut bytes = enc.bytes.clone();
    let t = &enc.tally;
    let mut words = vec![
        t.me_sad_evaluations,
        t.me_pixel_ops,
        t.dct_blocks,
        t.idct_blocks,
        t.quant_coeffs,
        t.vlc_symbols,
        t.mc_pixels,
        enc.header_bits as u64,
    ];
    for f in &enc.frames {
        words.extend([
            u64::from(f.kind == FrameKind::Predicted),
            u64::from(f.quality),
            f.bits as u64,
            f.psnr_luma_db.to_bits(),
        ]);
    }
    let dec = decode(&enc.bytes).expect("the encoder's stream decodes");
    words.extend([dec.idct_blocks, dec.mc_pixels, dec.frames.len() as u64]);
    for (frame, kind) in dec.frames.iter().zip(&dec.kinds) {
        words.push(u64::from(*kind == FrameKind::Predicted));
        bytes.extend_from_slice(frame.luma());
        bytes.extend_from_slice(frame.cb());
        bytes.extend_from_slice(frame.cr());
    }
    for k in 1..=5 {
        let cut = &enc.bytes[..enc.bytes.len() * k / 6];
        let outcome = decode(cut).map(|d| (d.frames.len(), d.idct_blocks, d.mc_pixels));
        bytes.extend_from_slice(format!("{outcome:?}").as_bytes());
    }
    bytes.extend(words.iter().flat_map(|w| w.to_le_bytes()));
    fnv(&bytes)
}

/// One digest per configuration, in `grid()` order.
const DIGESTS: [u64; 216] = [
    0x5d60d9c59325541d,
    0x3a977e0307fa9160,
    0x5d60d9c59325541d,
    0x3a977e0307fa9160,
    0x5d60d9c59325541d,
    0x3a977e0307fa9160,
    0xd6fa39ed305abb47,
    0xf4757e1a96c8353d,
    0x1fc36aeec6b392bb,
    0xc04755d768408c0b,
    0x88f280e58cfe4bd5,
    0xfdadeaf775469c11,
    0xad5dec09b1c9d9ab,
    0xf7ddacb66a2926c7,
    0x88091d99835a46ea,
    0x7edbdf01d531a641,
    0x547cb7c897c53a67,
    0x38bf9e526ca1cbc9,
    0x8bc3b4100b4968c6,
    0x80a21308619697ce,
    0x8bc3b4100b4968c6,
    0x80a21308619697ce,
    0x8bc3b4100b4968c6,
    0x80a21308619697ce,
    0x6799d614f0c6f604,
    0x82527f2d6bc715e2,
    0xdb7cbb024943853d,
    0xd66af6a27e6793af,
    0x9f43ab6307d6a800,
    0x3f426424a83e19e1,
    0x8ab90e7f81a4ebd0,
    0x1fe4880106cb4e9a,
    0x3c9a891dd603e7bf,
    0x43fd12a9abcdccc9,
    0xe4590f514f4089cd,
    0x5e55b2e29c80b164,
    0x820665a2782d6dc5,
    0xc8bced4987a98115,
    0x820665a2782d6dc5,
    0xc8bced4987a98115,
    0x820665a2782d6dc5,
    0xc8bced4987a98115,
    0xb3dc3433a729e921,
    0x9fd8e57c8065d09e,
    0xf99600dd1ce916b7,
    0x71746888c05b89c8,
    0x054529c169521e6a,
    0xfecb76d33c1ef423,
    0xa8d268f1cb1af80f,
    0xafe29b9f119eddcb,
    0x4b5851569381bbf2,
    0x989d13fe8bf9edb8,
    0x7a3a7c07ab40a95f,
    0x0503f072a3dda957,
    0x96c7748c7742bf30,
    0x27a07575e055439b,
    0x96c7748c7742bf30,
    0x27a07575e055439b,
    0x96c7748c7742bf30,
    0x27a07575e055439b,
    0x70f48dde01c2ee64,
    0xb05d45cae4e9c6de,
    0x55cc27e94c06a732,
    0xddfb5cd2260697b6,
    0x0712a50f1a415bc2,
    0xfc735a86bd123099,
    0x044fdb4abaddda78,
    0x7cc21273cdc2af5e,
    0xb326de4bec60f5bc,
    0x0616d88f5dc6857f,
    0xd4e452173f7a406d,
    0xc078b2459dc0af58,
    0x428ad497b039f7e6,
    0xf95e6148f921b3fd,
    0x428ad497b039f7e6,
    0xf95e6148f921b3fd,
    0x428ad497b039f7e6,
    0xf95e6148f921b3fd,
    0x32057796d0c85b72,
    0x44f73cb209d80505,
    0xa1b59227f452eacc,
    0xcf7a47cb21fb6b2e,
    0xbdd47cb2c30cb187,
    0xdf8ab6ec4e1f8c7f,
    0xe94caa3f08aef48c,
    0x96f7eb71bfc79577,
    0x3db9988c56b7b2fe,
    0x05da0cb4da4f6277,
    0x98161ae98ead70b5,
    0x7af58dea20d191f4,
    0xe86caad9021a5692,
    0x42c23ee5e3bde038,
    0xe86caad9021a5692,
    0x42c23ee5e3bde038,
    0xe86caad9021a5692,
    0x42c23ee5e3bde038,
    0xf6657f7a61a9d229,
    0x7828edf88386227b,
    0x9f40ffe1cd3d336b,
    0xdaa548d696a5ecee,
    0xbf01b73c085b6630,
    0x2e96ceb015a249a7,
    0x03a66675cddb487f,
    0x20dd8ce1fda286f0,
    0x6a00d28d1052dd1a,
    0x836b179cbb9100ad,
    0xf75e7b6c032adc60,
    0x92981ad99d271d9b,
    0x791419fc828a8c80,
    0x47cf123c82271554,
    0x791419fc828a8c80,
    0x47cf123c82271554,
    0x791419fc828a8c80,
    0x47cf123c82271554,
    0x4c9355356c17fb9c,
    0x575ddd2f85d235d8,
    0x40e2c0408352f5ac,
    0x92192134fa765794,
    0x3ef7553f4583c80c,
    0xc23f574890c89b4b,
    0x48177f6302f61bd6,
    0xb8b3ba752b41aa77,
    0x92a02eed91cd2c02,
    0xa7b65f53e4836c34,
    0x7d67c23e2695901f,
    0x64d65edf21a87f16,
    0x0ad1f940ad6b7c57,
    0xb37fd1afeea4b5e7,
    0x0ad1f940ad6b7c57,
    0xb37fd1afeea4b5e7,
    0x0ad1f940ad6b7c57,
    0xb37fd1afeea4b5e7,
    0xfd8aa6f8c127c75c,
    0xa4e5f43c2497834b,
    0x51f8e1c3358faf72,
    0x26f2f3f2a684eae5,
    0xa603812670732082,
    0x87a9d9477c523232,
    0x77b95d7de7e28633,
    0x26a5fc9b6332aa0b,
    0xb870281f24de0b48,
    0x5b87c05ce09c0757,
    0xdd13dd2d0ef8fc96,
    0x90c190a93dc667ba,
    0x10fdc6ee78caf44f,
    0x063ebd5298f5d8ab,
    0x10fdc6ee78caf44f,
    0x063ebd5298f5d8ab,
    0x10fdc6ee78caf44f,
    0x063ebd5298f5d8ab,
    0xd4a38404dd8166bf,
    0x64df84fe344ac467,
    0x348cf00521010e62,
    0x1308d1a17d8c790c,
    0xc6f28cda892f8fdd,
    0x47aed411ef7be1ac,
    0x9250d8d389a0d7df,
    0x04ffb4c15a8d74ee,
    0x35e4859d21f67641,
    0x72b0c4014c75b142,
    0x6f806b3f353abe55,
    0x565cda9a0aeebdbc,
    0x59d94dc5bab11ff6,
    0x49f5d2ef7bcf8137,
    0x59d94dc5bab11ff6,
    0x49f5d2ef7bcf8137,
    0x59d94dc5bab11ff6,
    0x49f5d2ef7bcf8137,
    0x9c75623d2ff9e01d,
    0x96e274fedd8412ca,
    0xd35277b603e23571,
    0x4a279e7e2fde7b8b,
    0x461a3eeac751eec6,
    0xc1efc5a4e75d16c2,
    0x82b2458eb1ad61e2,
    0x09d2692b92770cb8,
    0x740486e5edcbaf21,
    0x654e39b78332fbde,
    0x3fa35a2a50159be8,
    0xaa4d7460e1d4e158,
    0xb30ff4df5959cbf1,
    0x27626e7ee5bd82df,
    0xb30ff4df5959cbf1,
    0x27626e7ee5bd82df,
    0xb30ff4df5959cbf1,
    0x27626e7ee5bd82df,
    0xf3708794305e0f22,
    0x2517b351aefb325b,
    0x647c37d7f89ea895,
    0xd1f8daa7f541f6f8,
    0xc0d0b677a6918341,
    0x467c0abe27eae18c,
    0x9c809202531cb6b4,
    0x2fbfe83b0db48d3a,
    0xc789077304a146bc,
    0xdd1ff1827a4c6765,
    0x52e6856bfd7e703e,
    0xe27dfc9e6152c98b,
    0x649f138de5a2701f,
    0x45b56769116934c9,
    0x649f138de5a2701f,
    0x45b56769116934c9,
    0x649f138de5a2701f,
    0x45b56769116934c9,
    0x3dbd2611bff4f9d8,
    0xbf26c908fcdb74bb,
    0xd529922432b0a510,
    0xec6d7b81f48e3cb6,
    0xe4c084c401577f4f,
    0xaf1babffd1315d84,
    0x92c7324d8fcbdd32,
    0xea47bf126a611ad9,
    0x3161aa3617ebd95b,
    0xdc0026c1e5339dcd,
    0xa1751c8a9fd82f53,
    0x7a246c961b06843d,
];

#[test]
fn every_encoder_configuration_matches_its_golden() {
    let grid = grid();
    assert_eq!(grid.len(), DIGESTS.len());
    let sources: Vec<Vec<Frame>> = SIZES.iter().map(|&(w, h)| source(w, h)).collect();
    let got: Vec<u64> = grid
        .iter()
        .map(|(size, config)| {
            let frames = &sources[SIZES.iter().position(|s| s == size).unwrap()];
            let enc = Encoder::new(*config).unwrap().encode(frames).unwrap();
            digest(&enc)
        })
        .collect();
    let moved: Vec<usize> = (0..got.len()).filter(|&i| got[i] != DIGESTS[i]).collect();
    for &i in &moved {
        eprintln!(
            "config {i} {:?} {:?}: {:#018x} (golden {:#018x})",
            grid[i].0, grid[i].1, got[i], DIGESTS[i]
        );
    }
    if !moved.is_empty() {
        eprintln!("observed table:");
        for row in got.chunks(4) {
            let row: Vec<String> = row.iter().map(|d| format!("{d:#018x},")).collect();
            eprintln!("    {}", row.join(" "));
        }
    }
    assert!(
        moved.is_empty(),
        "{} of {} digests moved",
        moved.len(),
        got.len()
    );
}
