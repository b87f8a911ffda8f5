//! Property-based integration tests: round-trip and conservation
//! invariants that must hold for arbitrary inputs, across crates.

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bit streams round-trip arbitrary (value, width) sequences.
    #[test]
    fn bitstream_round_trip(values in prop::collection::vec((0u32..=u32::MAX, 1u32..=32), 1..100)) {
        let mut w = signal::bits::BitWriter::new();
        for &(v, n) in &values {
            w.write_bits(v & ((1u64 << n) - 1) as u32, n);
        }
        let bytes = w.into_bytes();
        let mut r = signal::bits::BitReader::new(&bytes);
        for &(v, n) in &values {
            prop_assert_eq!(r.read_bits(n).unwrap(), v & ((1u64 << n) - 1) as u32);
        }
    }

    /// Huffman coding round-trips arbitrary symbol streams drawn from the
    /// frequency table that built the code.
    #[test]
    fn huffman_round_trip(freqs in prop::collection::vec(1u64..1000, 2..40), msg_seed in 0u64..1000) {
        let code = video::huffman::HuffmanCode::from_frequencies(&freqs).unwrap();
        let mut rng = signal::rng::Xoroshiro128::new(msg_seed);
        let msg: Vec<u16> = (0..200).map(|_| rng.below(freqs.len() as u64) as u16).collect();
        let mut w = signal::bits::BitWriter::new();
        for &s in &msg {
            code.encode(&mut w, s).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = signal::bits::BitReader::new(&bytes);
        for &s in &msg {
            prop_assert_eq!(code.decode(&mut r).unwrap(), s);
        }
    }

    /// XTEA-CTR is an involution for any key, nonce, and payload.
    #[test]
    fn cipher_involution(key in prop::array::uniform16(0u8..), nonce in 0u32.., data in prop::collection::vec(any::<u8>(), 0..500)) {
        let ctr = drm::cipher::XteaCtr::new(&key, nonce);
        prop_assert_eq!(ctr.applied(&ctr.applied(&data)), data);
    }

    /// Sealed licenses round-trip and any single-byte corruption is caught.
    #[test]
    fn license_seal_detects_corruption(title in 0u64.., plays in 1u32..100, flip in 0usize..100) {
        let license = drm::license::License {
            title: drm::license::TitleId(title),
            rights: vec![drm::license::Right::PlayCount(plays)],
            content_key: [7u8; 16],
        };
        let sealed = license.seal(b"prop-secret");
        prop_assert_eq!(drm::license::License::unseal(&sealed, b"prop-secret").unwrap(), license);
        let mut bad = sealed.clone();
        let idx = flip % bad.len();
        bad[idx] ^= 0x01;
        prop_assert!(drm::license::License::unseal(&bad, b"prop-secret").is_err());
    }

    /// IP fragmentation reassembles to the original payload for any MTU.
    #[test]
    fn packet_fragmentation_round_trip(payload in prop::collection::vec(any::<u8>(), 1..3000), mtu in 21usize..600) {
        let p = netstack::packet::Packet {
            src: netstack::packet::Addr(1),
            dst: netstack::packet::Addr(2),
            protocol: netstack::packet::Protocol::Udp,
            id: 5,
            frag_offset: 0,
            more_fragments: false,
            payload: payload.clone(),
        };
        let mut r = netstack::packet::Reassembler::new();
        let mut done = None;
        for frag in p.fragment(mtu) {
            // Wire round-trip of each fragment too.
            let decoded = netstack::packet::Packet::decode(&frag.encode()).unwrap();
            if let Some(d) = r.push(decoded) {
                done = Some(d);
            }
        }
        prop_assert_eq!(done.unwrap().payload, payload);
    }

    /// Files of any size read back exactly under both allocation
    /// policies.
    #[test]
    fn filesystem_read_back(data in prop::collection::vec(any::<u8>(), 0..5000), scatter in any::<bool>()) {
        let policy = if scatter {
            mediafs::fs::AllocPolicy::Scatter(9)
        } else {
            mediafs::fs::AllocPolicy::FirstFit
        };
        let mut fs = mediafs::fs::MediaFs::new(256, 64, policy);
        fs.create("/f", &data).unwrap();
        prop_assert_eq!(fs.read("/f").unwrap(), data);
    }

    /// The 2-D DCT round-trips any block within numerical tolerance, and
    /// preserves energy (orthonormality).
    #[test]
    fn dct_round_trip_and_energy(block in prop::collection::vec(-255.0f64..255.0, 64)) {
        let dct = video::dct::Dct2d::new();
        let coeffs = dct.forward(&block);
        let back = dct.inverse(&coeffs);
        for (a, b) in block.iter().zip(back.iter()) {
            prop_assert!((a - b).abs() < 1e-8);
        }
        let e_in: f64 = block.iter().map(|v| v * v).sum();
        let e_out: f64 = coeffs.iter().map(|v| v * v).sum();
        prop_assert!((e_in - e_out).abs() < 1e-6 * e_in.max(1.0));
    }

    /// The 5/3 wavelet is exactly invertible on any even-length signal.
    #[test]
    fn wavelet_exact_inverse(x in prop::collection::vec(-1000i32..1000, 2..200)) {
        let x = if x.len() % 2 == 0 { x } else { x[..x.len() - 1].to_vec() };
        let t = video::wavelet::forward_1d(&x);
        prop_assert_eq!(video::wavelet::inverse_1d(&t), x);
    }

    /// TCP-lite delivers any payload exactly at any loss rate below 0.4.
    #[test]
    fn tcplite_reliable(len in 1usize..5000, loss in 0.0f64..0.4, seed in 0u64..50) {
        let data: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
        let report = netstack::tcplite::transfer(
            &data,
            netstack::tcplite::TcpConfig::default(),
            netstack::link::LinkConfig::default().with_loss(loss),
            seed,
        ).unwrap();
        prop_assert_eq!(report.data, data);
    }

    /// Audio subband quantization error is bounded by the step size for
    /// any sample within the scalefactor range.
    #[test]
    fn audio_quantizer_bounded(x in -1.0f64..1.0, bits in 1u8..=15) {
        let sf = 1.0;
        let step = 2.0 * sf / ((1u32 << bits) - 1) as f64;
        let y = audio::quantizer::dequantize(audio::quantizer::quantize(x, sf, bits), sf, bits);
        prop_assert!((x - y).abs() <= step / 2.0 + 1e-12);
    }

    /// The fast fixed-8 butterfly DCT matches the matrix `Dct1d` oracle
    /// within 1e-9 on arbitrary inputs, forward and inverse, and
    /// round-trips to identity.
    #[test]
    fn dct8_butterfly_matches_matrix_oracle(x in prop::array::uniform8(-255.0f64..255.0)) {
        let oracle = signal::dct1d::Dct1d::new(8);
        let fast = signal::dct8::fdct8(&x);
        let slow = oracle.forward(&x);
        for (a, b) in fast.iter().zip(&slow) {
            prop_assert!((a - b).abs() < 1e-9, "forward {a} vs {b}");
        }
        let fast_inv = signal::dct8::idct8(&x);
        let slow_inv = oracle.inverse(&x);
        for (a, b) in fast_inv.iter().zip(&slow_inv) {
            prop_assert!((a - b).abs() < 1e-9, "inverse {a} vs {b}");
        }
        let back = signal::dct8::idct8(&signal::dct8::fdct8(&x));
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-9, "round trip {a} vs {b}");
        }
    }

    /// `sad_u8_bounded` with `cutoff = u64::MAX` equals `sad_u8` for any
    /// window size and strides, and any finite cutoff either returns the
    /// exact SAD (when it is <= cutoff) or a partial sum above the
    /// cutoff.
    #[test]
    fn bounded_sad_equals_plain_sad(
        w in 1usize..=16,
        h in 1usize..=16,
        extra_a in 0usize..8,
        extra_b in 0usize..8,
        seed in any::<u64>(),
        cutoff in 0u64..20_000,
    ) {
        let a_stride = w + extra_a;
        let b_stride = w + extra_b;
        let mut rng = signal::rng::Xoroshiro128::new(seed);
        let a: Vec<u8> = (0..(h - 1) * a_stride + w).map(|_| rng.below(256) as u8).collect();
        let b: Vec<u8> = (0..(h - 1) * b_stride + w).map(|_| rng.below(256) as u8).collect();
        // Reference: gather both windows contiguously, then plain SAD.
        let ac: Vec<u8> = (0..h).flat_map(|r| a[r * a_stride..r * a_stride + w].to_vec()).collect();
        let bc: Vec<u8> = (0..h).flat_map(|r| b[r * b_stride..r * b_stride + w].to_vec()).collect();
        let expect = signal::metrics::sad_u8(&ac, &bc);
        prop_assert_eq!(signal::metrics::sad_u8_strided(&a, a_stride, &b, b_stride, w, h), expect);
        prop_assert_eq!(
            signal::metrics::sad_u8_bounded(&a, a_stride, &b, b_stride, w, h, u64::MAX),
            expect
        );
        let bounded = signal::metrics::sad_u8_bounded(&a, a_stride, &b, b_stride, w, h, cutoff);
        if expect <= cutoff {
            prop_assert_eq!(bounded, expect, "exact at or below cutoff");
        } else {
            prop_assert!(bounded > cutoff, "abandoned candidates report > cutoff");
        }
    }

    /// Transport mux -> demux round-trips arbitrary payloads
    /// bit-identically on a lossless link: every unit on every PID comes
    /// back exactly, with no loss indicators raised.
    #[test]
    fn ts_mux_demux_round_trip(
        video_unit in prop::collection::vec(any::<u8>(), 1..4000),
        audio_len in 0usize..1200,
        audio_seed in any::<u64>(),
    ) {
        // audio_len 0 doubles as "no audio track".
        let audio_unit: Vec<u8> = {
            let mut rng = signal::rng::Xoroshiro128::new(audio_seed);
            (0..audio_len).map(|_| rng.below(256) as u8).collect()
        };
        let mut mux = mmstream::TsMux::new();
        let mut packets = mux.packetize(mmstream::ts::VIDEO_PID, &video_unit);
        if !audio_unit.is_empty() {
            packets.extend(mux.packetize(mmstream::ts::AUDIO_PID, &audio_unit));
        }
        let report = mmstream::ts::demux_wire(&mmstream::ts::to_wire(&packets));
        prop_assert!(!report.loss_detected());
        prop_assert_eq!(report.continuity_gaps, 0);
        prop_assert_eq!(report.units_on(mmstream::ts::VIDEO_PID), &[video_unit]);
        if audio_unit.is_empty() {
            prop_assert!(report.units_on(mmstream::ts::AUDIO_PID).is_empty());
        } else {
            prop_assert_eq!(report.units_on(mmstream::ts::AUDIO_PID), &[audio_unit]);
        }
    }

    /// Continuity/loss detection fires iff packets were dropped: intact
    /// streams report nothing, and removing any one packet raises a
    /// continuity gap, a damaged unit, or a stray-continuation count
    /// (when the dropped packet was the unit's PUSI packet).
    #[test]
    fn ts_gap_detection_iff_dropped(
        unit in prop::collection::vec(any::<u8>(), 400..4000),
        drop_sel in any::<u64>(),
    ) {
        let mut mux = mmstream::TsMux::new();
        let mut packets = mux.packetize(mmstream::ts::VIDEO_PID, &unit);
        prop_assert!(packets.len() >= 2, "payload floor guarantees >= 2 packets");
        // Low bit: whether to drop at all; remaining bits: which packet.
        let dropped = drop_sel & 1 == 1;
        if dropped {
            let idx = (drop_sel >> 1) as usize % packets.len();
            packets.remove(idx);
        }
        let report = mmstream::ts::demux_wire(&mmstream::ts::to_wire(&packets));
        let noticed = report.loss_detected() || report.stray_packets > 0;
        prop_assert_eq!(noticed, dropped, "loss indicators must track actual drops");
        if dropped {
            prop_assert!(report.units_on(mmstream::ts::VIDEO_PID).is_empty(),
                "a unit missing a packet must not be delivered");
        } else {
            prop_assert_eq!(report.units_on(mmstream::ts::VIDEO_PID), &[unit]);
        }
    }

    /// A continuity gap is reported **iff** a payload packet was
    /// dropped: arbitrary initial continuity counters and stuffing-only
    /// packets — inserted anywhere, dropped anywhere — never raise loss
    /// indicators on their own.
    #[test]
    fn ts_stuffing_and_initial_cc_never_fake_a_gap(
        unit in prop::collection::vec(any::<u8>(), 400..3000),
        initial_cc in 0u8..16,
        stuffing_sel in any::<u64>(),
        drop_sel in any::<u64>(),
    ) {
        let mut mux = mmstream::TsMux::new();
        mux.set_continuity(mmstream::ts::VIDEO_PID, initial_cc);
        let payload_packets = mux.packetize(mmstream::ts::VIDEO_PID, &unit);
        // Interleave stuffing after payload packets selected by bitmask,
        // then optionally drop ONE packet (payload or stuffing).
        let mut packets = Vec::new();
        for (i, p) in payload_packets.iter().enumerate() {
            packets.push(*p);
            if stuffing_sel >> (i % 64) & 1 == 1 {
                packets.push(mux.stuffing_packet());
            }
        }
        let dropped_idx = (drop_sel & 1 == 1).then_some((drop_sel >> 1) as usize % packets.len());
        let dropped_payload = dropped_idx
            .is_some_and(|i| packets[i].pid() == mmstream::ts::VIDEO_PID);
        if let Some(i) = dropped_idx {
            packets.remove(i);
        }
        let report = mmstream::ts::demux_wire(&mmstream::ts::to_wire(&packets));
        let noticed = report.loss_detected() || report.stray_packets > 0;
        prop_assert_eq!(
            noticed, dropped_payload,
            "gap iff a payload packet was dropped (initial cc {}, dropped {:?})",
            initial_cc, dropped_idx
        );
        if dropped_payload {
            prop_assert!(report.units_on(mmstream::ts::VIDEO_PID).is_empty());
        } else {
            prop_assert_eq!(report.units_on(mmstream::ts::VIDEO_PID), &[unit]);
        }
    }

    /// Manifest parsing never panics on mutated bytes: any truncation or
    /// byte flip of a valid manifest either parses or errors cleanly,
    /// and whatever parses re-serialises to a fixed point.
    #[test]
    fn manifest_mutations_never_panic(
        n_rungs in 1usize..4,
        n_segs in 1usize..5,
        tpf in 1u64..1000,
        cut in 0usize..400,
        flip_at in any::<usize>(),
        flip_bits in 1u8..=255,
    ) {
        let rungs = (0..n_rungs)
            .map(|r| mmstream::ladder::RungInfo {
                target_bits_per_frame: 1000.0 * (r + 1) as f64,
                segments: (0..n_segs)
                    .map(|s| mmstream::ladder::SegmentEntry {
                        name: format!("r{r}_s{s}.ts"),
                        bytes: 100 + r * 37 + s,
                        frames: 4,
                        nonce: ((r as u32) << 16) | s as u32,
                    })
                    .collect(),
            })
            .collect();
        let manifest = mmstream::Manifest {
            title: "prop".to_string(),
            ticks_per_frame: tpf,
            sealed: false,
            live: None,
            rungs,
        };
        let bytes = manifest.to_bytes();
        prop_assert_eq!(&mmstream::Manifest::from_bytes(&bytes).unwrap(), &manifest);
        // Truncation at an arbitrary point: must not panic.
        let cut = cut.min(bytes.len());
        let _ = mmstream::Manifest::from_bytes(&bytes[..cut]);
        // Single-byte corruption: must not panic; a successful parse
        // must re-serialise to a fixed point (parse . to_bytes . parse
        // is identity).
        let mut mutated = bytes.clone();
        let idx = flip_at % mutated.len();
        mutated[idx] ^= flip_bits;
        if let Ok(parsed) = mmstream::Manifest::from_bytes(&mutated) {
            let re = parsed.to_bytes();
            prop_assert_eq!(mmstream::Manifest::from_bytes(&re).unwrap(), parsed);
        }
    }

    /// The edge LRU never exceeds its byte budget, never loses track of
    /// held bytes, and evicts strictly least-recently-used keys.
    #[test]
    fn edge_lru_respects_budget_and_recency(
        capacity in 1usize..2000,
        ops in prop::collection::vec((0u32..64, 1usize..600, any::<bool>()), 1..80),
    ) {
        let mut lru = mmstream::Lru::new(capacity);
        let mut live: std::collections::BTreeSet<u32> = Default::default();
        for (key, bytes, touch) in ops {
            if touch {
                prop_assert_eq!(lru.touch(&key), live.contains(&key));
            } else if bytes <= capacity {
                for victim in lru.insert(key, bytes) {
                    prop_assert!(victim != key, "the inserted key must survive");
                    live.remove(&victim);
                }
                live.insert(key);
            } else {
                // Oversized: not admitted, and any stale entry under
                // the same key is dropped rather than left behind.
                let evicted = lru.insert(key, bytes);
                prop_assert!(evicted.iter().all(|v| *v == key));
                live.remove(&key);
                prop_assert!(!lru.contains(&key));
            }
            prop_assert!(lru.held_bytes() <= capacity,
                "budget violated: {} > {}", lru.held_bytes(), capacity);
            prop_assert_eq!(lru.len(), live.len());
        }
    }

    /// Live manifest refresh is monotone for any wheel shape, DVR depth,
    /// publish pace, and advance schedule: successive `LiveOrigin`
    /// manifests have non-decreasing `live_seq` and generation, a window
    /// never wider than the DVR depth, every listed segment is fetchable
    /// from the origin server at its advertised size, and every manifest
    /// parse→serialise round-trips.
    #[test]
    fn live_manifest_refresh_is_monotone_and_fetchable(
        n_rungs in 1usize..3,
        wheel_len in 1usize..5,
        dvr in 1u64..6,
        tps in 1u64..200,
        advances in prop::collection::vec(0u64..2000, 1..12),
    ) {
        // A hand-built wheel (no encoder in the loop): entry sizes vary
        // per (rung, segment) so fetch-size checks are meaningful.
        let rungs: Vec<mmstream::ladder::RungInfo> = (0..n_rungs)
            .map(|r| mmstream::ladder::RungInfo {
                target_bits_per_frame: 1000.0 * (r + 1) as f64,
                segments: (0..wheel_len)
                    .map(|s| mmstream::ladder::SegmentEntry {
                        name: format!("r{r}_s{s}.ts"),
                        bytes: 50 + r * 37 + s * 11,
                        frames: 4,
                        nonce: ((r as u32) << 16) | s as u32,
                    })
                    .collect(),
            })
            .collect();
        let segments: Vec<Vec<Vec<u8>>> = rungs
            .iter()
            .map(|r| r.segments.iter().map(|s| vec![0xA5u8; s.bytes]).collect())
            .collect();
        let wheel = mmstream::Ladder {
            manifest: mmstream::Manifest {
                title: "prop".to_string(),
                ticks_per_frame: 10,
                sealed: false,
                live: None,
                rungs,
            },
            segments,
            rung_costs: vec![mmstream::RungCost::default(); n_rungs],
        };
        let mut origin = mmstream::LiveOrigin::new(
            wheel,
            mmstream::LiveOriginConfig { dvr_window_segments: dvr, ticks_per_segment: tps },
        )
        .unwrap();
        let mut server = netstack::fetch::ContentServer::new();
        let mut now = 0u64;
        let mut prev: Option<mmstream::LiveWindow> = None;
        for step in advances {
            now += step;
            origin.advance_to(&mut server, now);
            let manifest = origin.manifest().expect("advanced origins have a window");
            let w = manifest.live.expect("live manifests carry a window");
            if let Some(p) = prev {
                prop_assert!(w.live_seq >= p.live_seq, "live edge rewound");
                prop_assert!(w.first_seq >= p.first_seq, "window start rewound");
                prop_assert!(w.generation >= p.generation, "version rewound");
            }
            prop_assert!(w.len() <= dvr, "window {} wider than DVR {}", w.len(), dvr);
            prop_assert_eq!(w.live_seq, now / tps, "publish clock drifted");
            // Every listed segment fetchable at its advertised size.
            for (ri, rung) in manifest.rungs.iter().enumerate() {
                for (i, entry) in rung.segments.iter().enumerate() {
                    let obj = server
                        .get(&manifest.segment_object(ri, i))
                        .expect("listed implies published");
                    prop_assert_eq!(obj.len(), entry.bytes);
                }
            }
            // The published manifest object matches, and round-trips.
            let published = mmstream::Manifest::from_bytes(
                server.get("prop/manifest").expect("manifest published"),
            )
            .unwrap();
            prop_assert_eq!(&published, &manifest);
            prop_assert_eq!(
                &mmstream::Manifest::from_bytes(&manifest.to_bytes()).unwrap(),
                &manifest
            );
            prev = Some(w);
        }
    }

    /// Request coalescing under concurrent misses: for any interleaving
    /// of requests, failures, and completions across keys and
    /// generations, exactly one fill is started per in-flight period of
    /// each `(key, generation)` — a waiter can never start a second
    /// origin round trip, and only a failure (or completion) re-arms the
    /// slot so a retry starts exactly one fresh fill.
    #[test]
    fn fill_table_starts_exactly_one_fill_per_generation(
        ops in prop::collection::vec((0u8..6, 0u64..3, 0u8..8), 1..120),
    ) {
        let mut fills: mmstream::FillTable<u8, ()> = mmstream::FillTable::new();
        let mut inflight = std::collections::BTreeSet::new();
        let (mut started, mut joined, mut failed) = (0u64, 0u64, 0u64);
        for (key, generation, op) in ops {
            match op {
                // Most ops are requests (waiter bursts); the rest
                // resolve the fill one way or the other.
                0..=4 => {
                    let fresh = fills.request(key, generation, || ());
                    prop_assert_eq!(
                        fresh,
                        !inflight.contains(&(key, generation)),
                        "a fill must start iff none is in flight"
                    );
                    if fresh {
                        started += 1;
                        inflight.insert((key, generation));
                    } else {
                        joined += 1;
                    }
                }
                5 => {
                    let had = fills.fail(&key, generation).is_some();
                    prop_assert_eq!(had, inflight.remove(&(key, generation)));
                    if had {
                        failed += 1;
                    }
                }
                _ => {
                    let had = fills.complete(&key, generation).is_some();
                    prop_assert_eq!(had, inflight.remove(&(key, generation)));
                }
            }
            prop_assert_eq!(fills.len(), inflight.len());
            prop_assert_eq!(
                (fills.started(), fills.joined(), fills.failed()),
                (started, joined, failed)
            );
        }
        // After a failure, a retry starts exactly one fresh fill.
        fills.fail(&0, 0);
        let before = fills.started();
        prop_assert!(fills.request(0, 0, || ()) || inflight.contains(&(0, 0)));
        prop_assert!(fills.started() <= before + 1);
    }

    /// The capacity knee is a max over a filtered set: permuting the
    /// curve (the order load levels were measured in) never changes it.
    #[test]
    fn edge_capacity_knee_is_permutation_invariant(
        levels in prop::collection::vec((1usize..10_000, 0.0f64..0.2), 1..12),
        rotate in 0usize..12,
    ) {
        let curve: Vec<mmstream::CdnLoadReport> = levels
            .iter()
            .map(|&(sessions, rebuffer_fraction)| {
                let mut r = mmstream::CdnLoadReport::default();
                r.edge.load = mmstream::LoadReport {
                    sessions,
                    completed: sessions,
                    ticks: 1,
                    rebuffer_sessions: (sessions as f64 * rebuffer_fraction) as usize,
                    rebuffer_fraction,
                    ..Default::default()
                };
                r
            })
            .collect();
        let knee = mmstream::curve_knee(&curve, 0.05);
        let mut permuted = curve.clone();
        permuted.reverse();
        prop_assert_eq!(mmstream::curve_knee(&permuted, 0.05), knee);
        let n = permuted.len().max(1);
        permuted.rotate_left(rotate % n);
        prop_assert_eq!(mmstream::curve_knee(&permuted, 0.05), knee);
    }

    /// The bisecting knee search is invariant under permutation and
    /// duplication of the candidate count list, and its verdict is
    /// self-consistent: a returned knee really sustains the stall
    /// tolerance when simulated directly, and `None` means even the
    /// smallest candidate level stalls.
    #[test]
    fn knee_bisect_is_order_invariant_and_self_consistent(
        picks in prop::collection::vec(0usize..5, 1..8),
        rotate in 0usize..8,
        capacity in 400.0f64..2500.0,
    ) {
        let levels = [10usize, 25, 50, 100, 200];
        let mut counts: Vec<usize> = picks.iter().map(|&i| levels[i]).collect();
        let frames = video::synth::SequenceGen::new(9).panning_sequence(48, 32, 8, 1, 0);
        let cfg = mmstream::LadderConfig {
            targets_bits_per_frame: vec![2_000.0, 6_000.0],
            gop: 4,
            ..Default::default()
        };
        let catalog = mmstream::Catalog::single(
            mmstream::encode_ladder("prop", &frames, &cfg).unwrap().manifest,
        );
        let mut server = mmstream::CdnConfig::single_origin();
        server.tier.edge_capacity_bytes_per_tick = capacity;
        let base = mmstream::LoadConfig {
            stagger_ticks: 200,
            ..Default::default()
        };
        let s = mmstream::Scenario::new(&catalog, server, base);
        let knee = mmstream::knee(&s, &counts, 0.05);
        // Messy input (duplicates, arbitrary order) gives the same
        // answer as the clean sorted set of distinct levels.
        let n = counts.len();
        counts.rotate_left(rotate % n);
        prop_assert_eq!(mmstream::knee(&s, &counts, 0.05), knee);
        counts.sort_unstable();
        counts.dedup();
        prop_assert_eq!(mmstream::knee(&s, &counts, 0.05), knee);
        // The verdict holds up when the named level is simulated directly.
        let stalls = |sessions: usize| {
            let at = mmstream::Scenario::new(&catalog, server, mmstream::LoadConfig { sessions, ..base });
            mmstream::simulate(&at).edge.load.rebuffer_fraction > 0.05
        };
        match knee {
            Some(k) => {
                prop_assert!(counts.contains(&k), "knee must be a candidate level");
                prop_assert!(!stalls(k), "a returned knee must sustain the tolerance");
            }
            None => prop_assert!(
                stalls(counts[0]),
                "no knee means even the smallest level stalls"
            ),
        }
    }

    /// An empty `FaultPlan` runs the fault-free edge engine
    /// bit-identically: the whole report (load, per-edge counters, hit
    /// rates, live stats) is equal and the resilience ledger is all
    /// zero. The chaos layer must cost exactly nothing when no fault is
    /// scheduled. A flat tier also has no shield tier to report, so its
    /// true-origin offload is exactly the edge-local figure.
    #[test]
    fn empty_fault_plan_is_bit_identical_to_plan_free(
        sessions in 1usize..400,
        edges in 1usize..5,
        plan_seed in any::<u64>(),
        load_seed in 0u64..1000,
    ) {
        let frames = video::synth::SequenceGen::new(9).panning_sequence(48, 32, 8, 1, 0);
        let cfg = mmstream::LadderConfig {
            targets_bits_per_frame: vec![2_000.0, 6_000.0],
            gop: 4,
            ..Default::default()
        };
        let catalog = mmstream::Catalog::single(
            mmstream::encode_ladder("prop", &frames, &cfg).unwrap().manifest,
        );
        let tier = mmstream::EdgeTierConfig {
            edges,
            ..Default::default()
        };
        let load = mmstream::LoadConfig {
            sessions,
            seed: load_seed,
            ..Default::default()
        };
        let plain = mmstream::Scenario::new(&catalog, mmstream::CdnConfig::flat(tier), load);
        let plan = mmstream::FaultPlan::new(plan_seed);
        let faulted = mmstream::simulate(&mmstream::Scenario { faults: &plan, ..plain });
        let plain = mmstream::simulate(&plain);
        prop_assert_eq!(&faulted, &plain);
        prop_assert_eq!(faulted.live, mmstream::LiveStats::default());
        prop_assert_eq!(faulted.resilience, mmstream::ResilienceStats::default());
        prop_assert!(plain.per_shield.is_empty());
        prop_assert_eq!(plain.origin_offload, plain.edge.origin_offload);
    }

    /// The consistent-hash failover ring moves only the crashed edge's
    /// keys: with every edge up, `route_alive` equals `route` on every
    /// key; with one edge down, every key homed elsewhere keeps its
    /// owner (the ≤ 1/N remap guarantee), and the crashed edge's keys
    /// land on a survivor.
    #[test]
    fn hash_ring_failover_moves_only_the_crashed_edges_keys(
        edges in 2usize..10,
        crashed_sel in any::<usize>(),
        ring_seed in any::<u64>(),
        keys in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        let ring = mmstream::HashRing::new(edges, 64, ring_seed);
        let up = vec![true; edges];
        for &k in &keys {
            prop_assert_eq!(ring.route_alive(k, &up), Some(ring.route(k)));
        }
        let crashed = crashed_sel % edges;
        let mut up = up;
        up[crashed] = false;
        for &k in &keys {
            let home = ring.route(k);
            let rerouted = ring.route_alive(k, &up).unwrap();
            if home == crashed {
                prop_assert!(rerouted != crashed, "keys must leave the dead edge");
            } else {
                prop_assert_eq!(rerouted, home, "only the crashed edge's keys may move");
            }
        }
    }

    /// Failing a ring member over and then restoring it is a perfect
    /// inverse: after the restart every key routes exactly where it did
    /// before the crash, so a heal rebalances back without any residual
    /// remap (no key stays on its failover owner).
    #[test]
    fn hash_ring_restart_rebalance_is_inverse_of_failover(
        edges in 2usize..10,
        crashed_sel in any::<usize>(),
        ring_seed in any::<u64>(),
        keys in prop::collection::vec(any::<u64>(), 1..200),
    ) {
        let ring = mmstream::HashRing::new(edges, 64, ring_seed);
        let crashed = crashed_sel % edges;
        let before: Vec<usize> = keys.iter().map(|&k| ring.route(k)).collect();
        let mut up = vec![true; edges];
        up[crashed] = false;
        let failed_over: Vec<usize> =
            keys.iter().map(|&k| ring.route_alive(k, &up).unwrap()).collect();
        up[crashed] = true;
        for ((&k, &home), &via) in keys.iter().zip(&before).zip(&failed_over) {
            let healed = ring.route_alive(k, &up).unwrap();
            prop_assert_eq!(healed, home, "restart must restore the pre-crash owner");
            if home != crashed {
                prop_assert_eq!(via, home, "bystander keys never moved at all");
            }
        }
    }

    /// The count-min sketch never under-estimates: for any key/repeat
    /// pattern (no aging in the window), every key's estimate is at
    /// least its true recorded count, saturated at the 4-bit ceiling.
    #[test]
    fn freq_sketch_estimate_is_an_upper_bound(
        keys in prop::collection::vec(any::<u64>(), 1..60),
        reps in prop::collection::vec(1u64..12, 1..60),
        sketch_seed in any::<u64>(),
    ) {
        let mut sketch = mmstream::FreqSketch::new(1 << 10, 4, u64::MAX, sketch_seed);
        let mut truth: std::collections::BTreeMap<u64, u64> = Default::default();
        for (&k, &n) in keys.iter().zip(reps.iter().cycle()) {
            sketch.record_n(k, n);
            *truth.entry(k).or_insert(0) += n;
        }
        for (&k, &count) in &truth {
            let est = u64::from(sketch.estimate(k));
            prop_assert!(
                est >= count.min(15),
                "estimate {} under-counts key {:#x} (true {})",
                est, k, count
            );
        }
    }

    /// Borrowed `BlockView` gathers (interior and edge-clamped) agree
    /// with the allocating `block_at` everywhere, so the zero-copy motion
    /// search sees exactly the same candidate pixels.
    #[test]
    fn block_view_matches_block_at(
        pw in 1usize..24,
        ph in 1usize..24,
        x in -20i32..40,
        y in -20i32..40,
        bs in 1usize..=16,
        seed in any::<u64>(),
    ) {
        let mut rng = signal::rng::Xoroshiro128::new(seed);
        let data: Vec<u8> = (0..pw * ph).map(|_| rng.below(256) as u8).collect();
        let plane = video::plane::Plane8::new(pw, ph, data);
        let mut got = vec![0u8; bs * bs];
        plane.block_into(x, y, bs, &mut got);
        prop_assert_eq!(got, plane.block_at(x, y, bs));
    }

    /// The parallel head-end is deterministic: for ANY worker count and
    /// ANY completion interleaving (a seeded busy-delay per shard
    /// scrambles which rung or curve point finishes first), the pooled
    /// ladder encode and the pooled capacity curve merge bit-identical
    /// to their sequential drivers.
    #[test]
    fn pooled_headend_merge_is_deterministic(workers in 1usize..9, seed in any::<u64>()) {
        let frames = video::synth::SequenceGen::new(41).panning_sequence(48, 32, 8, 1, 1);
        let cfg = mmstream::ladder::LadderConfig {
            targets_bits_per_frame: vec![2_000.0, 9_000.0],
            gop: 4,
            ..Default::default()
        };
        let sequential = mmstream::encode_ladder("prop", &frames, &cfg).unwrap();
        let pool = mmpool::WorkerPool::new(workers);

        // Scrambled per-rung work units reassemble the exact ladder.
        let rungs: Vec<usize> = (0..cfg.targets_bits_per_frame.len()).collect();
        let builds = pool.map(&rungs, |&ri| {
            let spins = (seed ^ (ri as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) % 30_000;
            let mut acc = seed;
            for k in 0..spins {
                acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k);
            }
            std::hint::black_box(acc);
            mmstream::encode_rung(&frames, &cfg, ri).unwrap()
        });
        for (ri, build) in builds.iter().enumerate() {
            prop_assert_eq!(&build.rung, &sequential.manifest.rungs[ri]);
            prop_assert_eq!(&build.wires, &sequential.segments[ri]);
            prop_assert_eq!(build.cost, sequential.rung_costs[ri]);
        }
        // And the undelayed pooled driver agrees wholesale.
        let pooled = mmstream::encode_ladder_on(&pool, "prop", &frames, &cfg).unwrap();
        prop_assert_eq!(&pooled, &sequential);

        // The pooled capacity curve equals the sequential scan.
        let catalog = mmstream::Catalog::single(sequential.manifest.clone());
        let s = mmstream::Scenario::new(
            &catalog,
            mmstream::CdnConfig::single_origin(),
            mmstream::LoadConfig::default(),
        );
        let counts = [40usize, 80];
        prop_assert_eq!(
            mmstream::sweep(&s, &counts, Some(&pool)),
            mmstream::sweep(&s, &counts, None)
        );
    }

    /// TCP-lite delivers the payload **exactly** or fails with a typed
    /// error — never silently corrupts — for arbitrary configurations:
    /// any MSS, any congestion controller (fixed, AIMD, CUBIC), i.i.d.
    /// or Gilbert–Elliott loss, any latency, bounded or unbounded
    /// transmitter queues.
    #[test]
    fn tcplite_arbitrary_config_is_exact_or_a_typed_error(
        len in 1usize..1500,
        mss in 1usize..600,
        mode in 0u8..3,
        window in 1usize..64,
        latency in 0u64..30,
        queue_raw in 0usize..5000,
        bursty in any::<bool>(),
        loss in 0.0f64..0.4,
        seed in any::<u64>(),
    ) {
        let data: Vec<u8> = (0..len).map(|i| (i.wrapping_mul(37) >> 3) as u8).collect();
        let cc = match mode {
            0 => netstack::CongestionControl::Fixed(window),
            1 => netstack::CongestionControl::Aimd { max_window: 256 },
            _ => netstack::CongestionControl::Cubic { max_window: 256 },
        };
        let tcp = netstack::TcpConfig {
            mss,
            cc,
            deadline_ticks: 150_000,
            ..Default::default()
        };
        let model = if bursty {
            netstack::LossModel::GilbertElliott {
                p_enter_bad: loss * 0.1,
                p_exit_bad: 0.1,
                loss_good: 0.0,
                loss_bad: 0.8,
            }
        } else {
            netstack::LossModel::Iid
        };
        let mut link = netstack::LinkConfig {
            latency_ticks: latency,
            ..Default::default()
        }
        .with_loss(loss)
        .with_loss_model(model);
        // Draws below 600 mean "unbounded queue".
        if queue_raw >= 600 {
            link = link.with_queue_bytes(queue_raw);
        }
        match netstack::tcplite::transfer(&data, tcp, link, seed) {
            Ok(report) => prop_assert_eq!(report.data, data, "delivered bytes must be exact"),
            Err(e) => prop_assert!(
                matches!(
                    e,
                    netstack::TcpError::Timeout | netstack::TcpError::ConnectionTimedOut
                ),
                "non-empty input may only fail by timing out, got {:?}",
                e
            ),
        }
    }

    /// The Gilbert–Elliott channel's empirical loss rate converges to
    /// its stationary prediction
    /// `p_bad * loss_bad + (1 - p_bad) * loss_good` with
    /// `p_bad = p_enter / (p_enter + p_exit)`, for arbitrary chain
    /// parameters.
    #[test]
    fn gilbert_elliott_loss_matches_the_stationary_rate(
        p_enter in 0.01f64..0.03,
        p_exit in 0.1f64..0.3,
        loss_good in 0.0f64..0.1,
        loss_bad in 0.5f64..1.0,
        seed in any::<u64>(),
    ) {
        let model = netstack::LossModel::GilbertElliott {
            p_enter_bad: p_enter,
            p_exit_bad: p_exit,
            loss_good,
            loss_bad,
        };
        let mut link = netstack::Link::new(
            netstack::LinkConfig::default().with_loss_model(model),
            seed,
        );
        let frames = 50_000u64;
        for i in 0..frames {
            link.send(vec![0], i);
            // Keep the in-flight queue from accumulating 50k frames.
            if i % 1024 == 0 {
                link.deliver(i);
            }
        }
        let empirical = link.dropped() as f64 / link.sent() as f64;
        let p_bad = p_enter / (p_enter + p_exit);
        let stationary = p_bad * loss_bad + (1.0 - p_bad) * loss_good;
        prop_assert!(
            (empirical - stationary).abs() < 0.05,
            "empirical {} vs stationary {}",
            empirical,
            stationary
        );
    }

    /// A traced link obeys its schedule *exactly*: every offered frame's
    /// transmit-complete tick equals the hand-computed prediction from
    /// the phase in effect at offer time (rate sampled at transmit
    /// start, backlog carried across phases), and every frame arrives
    /// precisely one propagation delay later.
    #[test]
    fn link_trace_schedule_is_obeyed_exactly(
        phase_picks in prop::collection::vec((10u64..200, 0usize..4), 1..5),
        repeat in any::<bool>(),
        trace_offset in 0u64..500,
        sends in prop::collection::vec((0u64..300, 1usize..40), 1..30),
        latency in 0u64..20,
    ) {
        // Rates from an exactly-representable set so ceil() predictions
        // cannot drift.
        let rates = [0.0f64, 0.25, 1.0, 4.0];
        let trace = netstack::LinkTrace {
            phases: phase_picks
                .iter()
                .map(|&(ticks, r)| netstack::TracePhase {
                    ticks,
                    ticks_per_byte: rates[r],
                    loss: 0.0,
                })
                .collect(),
            repeat,
        };
        let cfg = netstack::LinkConfig {
            latency_ticks: latency,
            ..Default::default()
        };
        let mut link = netstack::Link::traced(cfg, trace.clone(), trace_offset, 0);
        let mut now = 0u64;
        let mut tx_free = 0u64;
        let mut arrivals = Vec::new();
        for &(gap, len) in &sends {
            now += gap;
            let rate = trace.at(trace_offset + now).unwrap().ticks_per_byte;
            let serialize = (len as f64 * rate).ceil() as u64;
            tx_free = now.max(tx_free) + serialize;
            prop_assert_eq!(
                link.send(vec![0xC3; len], now),
                tx_free,
                "transmit-complete tick must follow the schedule"
            );
            arrivals.push(tx_free + latency);
        }
        prop_assert_eq!(link.next_arrival(), arrivals.iter().min().copied());
        let horizon = *arrivals.iter().max().unwrap();
        let early = if horizon > 0 {
            let drained = link.deliver(horizon - 1).len();
            prop_assert_eq!(
                drained,
                arrivals.iter().filter(|&&a| a < horizon).count(),
                "frames arrive exactly at transmit-complete + latency"
            );
            drained
        } else {
            0
        };
        prop_assert_eq!(link.deliver(horizon).len(), sends.len() - early);
    }

    /// The video decoder faces untrusted bytes: arbitrary bytes (alone,
    /// after a valid magic, and after a valid header whose Huffman tables
    /// then parse garbage), truncations and bit flips of a valid stream
    /// all decode or give a typed error, never a panic.
    #[test]
    fn video_decode_of_untrusted_bytes_never_panics(
        noise in prop::collection::vec(any::<u8>(), 0..400),
        cut in any::<usize>(),
        flips in prop::collection::vec(any::<usize>(), 1..5),
    ) {
        let (valid, header_len) = valid_video_stream();
        let _ = video::decoder::decode(&noise);
        for prefix in [&valid[..2], &valid[..header_len]] {
            let _ = video::decoder::decode(&[prefix, &noise[..]].concat());
        }
        let _ = video::decoder::decode(&valid[..cut % valid.len()]);
        let _ = video::decoder::decode(&flip_bits(valid, &flips));
    }

    /// The audio decoder faces untrusted bytes: arbitrary bytes, a valid
    /// stream header followed by an arbitrary granule count and frame
    /// body, truncations and bit flips of a valid stream all decode or
    /// give a typed error, never a panic.
    #[test]
    fn audio_decode_of_untrusted_bytes_never_panics(
        noise in prop::collection::vec(any::<u8>(), 0..400),
        granules in 0u8..40,
        cut in any::<usize>(),
        flips in prop::collection::vec(any::<usize>(), 1..5),
    ) {
        let valid = valid_audio_stream();
        let _ = audio::encoder::decode(&noise);
        // The 8-byte stream header (magic, frame count, sample rate).
        let _ = audio::encoder::decode(&[&valid[..8], &[granules], &noise[..]].concat());
        let _ = audio::encoder::decode(&valid[..cut % valid.len()]);
        let _ = audio::encoder::decode(&flip_bits(valid, &flips));
    }
}

/// A small valid video stream (two GOPs of a noisy pan), encoded once,
/// with the number of bytes its sequence header touches.
fn valid_video_stream() -> (&'static [u8], usize) {
    static STREAM: std::sync::OnceLock<(Vec<u8>, usize)> = std::sync::OnceLock::new();
    let (bytes, header_len) = STREAM.get_or_init(|| {
        let mut gen = video::synth::SequenceGen::new(21);
        let mut frames = gen.panning_sequence(32, 32, 5, 2, -1);
        for f in &mut frames {
            gen.add_noise(f, 4.0);
        }
        let config = video::encoder::EncoderConfig {
            gop: 3,
            ..video::encoder::EncoderConfig::symmetric_conference()
        };
        let encoded = video::encoder::Encoder::new(config)
            .unwrap()
            .encode(&frames)
            .unwrap();
        let header_len = encoded.header_bits.div_ceil(8);
        (encoded.bytes, header_len)
    });
    (bytes, *header_len)
}

/// A small valid audio stream (two frames of music), encoded once.
fn valid_audio_stream() -> &'static [u8] {
    static STREAM: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    STREAM.get_or_init(|| {
        let pcm = signal::gen::SignalGen::new(22).music(330.0, 44_100.0, 2 * 1152);
        audio::encoder::AudioEncoder::new(audio::encoder::AudioConfig::default())
            .encode(&pcm)
            .unwrap()
            .bytes
    })
}

/// `bytes` with one bit flipped per entry of `at` (taken modulo the
/// stream's bit length).
fn flip_bits(bytes: &[u8], at: &[usize]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for &bit in at {
        let bit = bit % (out.len() * 8);
        out[bit / 8] ^= 0x80 >> (bit % 8);
    }
    out
}
