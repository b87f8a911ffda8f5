//! IP-style packets: header, checksum, fragmentation and reassembly.
//!
//! Paper §7: limited-purpose devices "can make use of the small IP stacks
//! that have been developed over the past several years". This is such a
//! stack's network layer: a compact fixed header with a 16-bit ones'-
//! complement checksum, MTU fragmentation, and in-memory reassembly.
//!
//! Every viewer packet is checksummed twice (once by the sender, once by
//! the receiver), so [`checksum`] uses the three liberties RFC 1071 grants
//! a ones'-complement sum. It defers the carry: words add into a `u64`,
//! and the carries fold back into 16 bits once at the end. It sums in
//! parallel: one 32-bit word holds two 16-bit words, and since
//! 2^16 ≡ 1 (mod 0xFFFF) the fold gives the same sum. It is byte-order
//! independent: the words are read little-endian, which costs no byte
//! swap per word on a little-endian host, and the folded sum is swapped
//! once. Every step keeps the sum congruent modulo 0xFFFF and zero only
//! when every byte is, so the result equals [`checksum_per_word`], the
//! big-endian per-word fold kept as the oracle, for every input. The
//! word sum is built in two copies and picked per process at run time
//! ([`signal::simd`]): the baseline copy ([`checksum_baseline`]) adds
//! two 32-bit words per SSE2 vector on any x86_64 CPU, and where the CPU
//! has AVX-512F the other copy adds eight per vector. Over a 1,500-byte
//! frame on a 2-CPU AVX-512F Xeon host, eight `exp e20_stream` runs read
//! medians of 134 ns for the baseline copy and 47 ns for the AVX-512F
//! copy (2.9x).
//! [`Packet::decode`] verifies a frame in place by summing the bytes on
//! either side of the checksum field, so it copies nothing to zero that
//! field.

/// A 32-bit host address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Addr(pub u32);

impl core::fmt::Display for Addr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = self.0.to_be_bytes();
        write!(f, "{}.{}.{}.{}", b[0], b[1], b[2], b[3])
    }
}

/// Transport protocol selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Datagram service.
    Udp,
    /// Reliable-stream service (TCP-lite).
    Tcp,
}

impl Protocol {
    fn to_byte(self) -> u8 {
        match self {
            Protocol::Udp => 17,
            Protocol::Tcp => 6,
        }
    }

    fn from_byte(b: u8) -> Option<Self> {
        match b {
            17 => Some(Protocol::Udp),
            6 => Some(Protocol::Tcp),
            _ => None,
        }
    }
}

/// Header length in bytes.
pub const HEADER_LEN: usize = 20;

/// An IP-style packet (possibly a fragment).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Datagram id (shared by all fragments of one datagram).
    pub id: u16,
    /// Byte offset of this fragment within the datagram.
    pub frag_offset: u16,
    /// More-fragments flag.
    pub more_fragments: bool,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// Errors decoding a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketError {
    /// Fewer bytes than a header.
    Truncated,
    /// Checksum mismatch (corruption).
    BadChecksum,
    /// Unknown protocol number.
    BadProtocol(u8),
    /// Length field disagrees with the buffer.
    BadLength,
}

impl core::fmt::Display for PacketError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PacketError::Truncated => f.write_str("packet truncated"),
            PacketError::BadChecksum => f.write_str("checksum mismatch"),
            PacketError::BadProtocol(p) => write!(f, "unknown protocol {p}"),
            PacketError::BadLength => f.write_str("length field mismatch"),
        }
    }
}

impl std::error::Error for PacketError {}

/// RFC 1071 16-bit ones'-complement checksum, with the carry deferred to
/// one fold at the end, summed by the widest copy this CPU runs (see
/// [`signal::simd`]). Equal to [`checksum_per_word`] for every input.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u16 {
    !fold(swapped_sum(bytes)).swap_bytes()
}

/// [`checksum`] forced to the baseline copy, which runs on any host:
/// public so tests and benchmarks can check and time both copies.
#[must_use]
pub fn checksum_baseline(bytes: &[u8]) -> u16 {
    !fold(sum_words(bytes)).swap_bytes()
}

/// [`sum_words`] by the widest copy this CPU runs.
fn swapped_sum(bytes: &[u8]) -> u64 {
    signal::simd::dispatch(
        #[inline(always)]
        || sum_words(bytes),
    )
}

/// The ones'-complement sum of `bytes` as byte-swapped (little-endian)
/// 16-bit words, an odd last byte padded with a zero: the body of both
/// copies of [`swapped_sum`]. Each 1 GiB part is folded on its own (its
/// 2^28 32-bit words stay below 2^60), so no `u64` here overflows; the
/// parts' sum is left for the caller to fold.
#[inline(always)]
fn sum_words(bytes: &[u8]) -> u64 {
    bytes
        .chunks(1 << 30)
        .map(|part| {
            let mut quads = part.chunks_exact(4);
            let sum: u64 = quads
                .by_ref()
                .map(|q| u64::from(u32::from_le_bytes([q[0], q[1], q[2], q[3]])))
                .sum();
            let tail: u64 = (quads.remainder().iter().enumerate())
                .map(|(i, &b)| u64::from(b) << (8 * (i % 2)))
                .sum();
            u64::from(fold(sum + tail))
        })
        .sum()
}

/// Folds the carries of a word sum back into 16 bits.
fn fold(mut sum: u64) -> u16 {
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum as u16
}

/// The checksum with the carry folded after every word: the oracle that
/// [`checksum`] must equal, public so benchmarks can time the two side by
/// side.
#[must_use]
pub fn checksum_per_word(bytes: &[u8]) -> u16 {
    let mut sum = 0u32;
    for chunk in bytes.chunks(2) {
        let word = if chunk.len() == 2 {
            u16::from_be_bytes([chunk[0], chunk[1]])
        } else {
            u16::from_be_bytes([chunk[0], 0])
        };
        sum += word as u32;
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
    }
    !(sum as u16)
}

impl Packet {
    /// Serializes to wire format (header with checksum, then payload).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let total = HEADER_LEN + self.payload.len();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&self.src.0.to_be_bytes());
        out.extend_from_slice(&self.dst.0.to_be_bytes());
        out.push(self.protocol.to_byte());
        out.push(self.more_fragments as u8);
        out.extend_from_slice(&self.id.to_be_bytes());
        out.extend_from_slice(&self.frag_offset.to_be_bytes());
        out.extend_from_slice(&(total as u16).to_be_bytes());
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&[0, 0]); // reserved
        debug_assert_eq!(out.len(), HEADER_LEN);
        out.extend_from_slice(&self.payload);
        let ck = checksum(&out);
        out[16..18].copy_from_slice(&ck.to_be_bytes());
        out
    }

    /// Parses and verifies wire format.
    ///
    /// # Errors
    ///
    /// Returns [`PacketError`] on malformed input.
    pub fn decode(bytes: &[u8]) -> Result<Self, PacketError> {
        if bytes.len() < HEADER_LEN {
            return Err(PacketError::Truncated);
        }
        let total = u16::from_be_bytes([bytes[14], bytes[15]]) as usize;
        if total != bytes.len() {
            return Err(PacketError::BadLength);
        }
        // Sum around the checksum field, as if it were zero. The header
        // part is 16 bytes long, so the words after the field stay aligned.
        let sum = swapped_sum(&bytes[..16]) + swapped_sum(&bytes[18..]);
        let expect = u16::from_be_bytes([bytes[16], bytes[17]]);
        if !fold(sum).swap_bytes() != expect {
            return Err(PacketError::BadChecksum);
        }
        let protocol = Protocol::from_byte(bytes[8]).ok_or(PacketError::BadProtocol(bytes[8]))?;
        Ok(Self {
            src: Addr(u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])),
            dst: Addr(u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]])),
            protocol,
            more_fragments: bytes[9] != 0,
            id: u16::from_be_bytes([bytes[10], bytes[11]]),
            frag_offset: u16::from_be_bytes([bytes[12], bytes[13]]),
            payload: bytes[HEADER_LEN..].to_vec(),
        })
    }

    /// Splits a datagram into MTU-sized fragments.
    ///
    /// # Panics
    ///
    /// Panics if `mtu <= HEADER_LEN`.
    #[must_use]
    pub fn fragment(&self, mtu: usize) -> Vec<Packet> {
        assert!(mtu > HEADER_LEN, "mtu must exceed the header");
        let chunk = mtu - HEADER_LEN;
        if self.payload.len() <= chunk {
            let mut p = self.clone();
            p.more_fragments = false;
            p.frag_offset = 0;
            return vec![p];
        }
        let mut out = Vec::new();
        let mut off = 0usize;
        while off < self.payload.len() {
            let hi = (off + chunk).min(self.payload.len());
            out.push(Packet {
                src: self.src,
                dst: self.dst,
                protocol: self.protocol,
                id: self.id,
                frag_offset: off as u16,
                more_fragments: hi < self.payload.len(),
                payload: self.payload[off..hi].to_vec(),
            });
            off = hi;
        }
        out
    }
}

/// Reassembles fragments back into datagrams, keyed by (src, id).
#[derive(Debug, Clone, Default)]
pub struct Reassembler {
    partial: std::collections::HashMap<(Addr, u16), Vec<Packet>>,
}

impl Reassembler {
    /// Creates an empty reassembler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Accepts a fragment; returns the complete datagram payload when the
    /// last missing piece arrives.
    pub fn push(&mut self, fragment: Packet) -> Option<Packet> {
        let key = (fragment.src, fragment.id);
        let entry = self.partial.entry(key).or_default();
        entry.push(fragment);
        // Complete when a no-more-fragments piece exists and offsets tile
        // contiguously from zero.
        let mut frags = entry.clone();
        frags.sort_by_key(|f| f.frag_offset);
        let has_last = frags.iter().any(|f| !f.more_fragments);
        if !has_last {
            return None;
        }
        let mut expect = 0usize;
        for f in &frags {
            if f.frag_offset as usize != expect {
                return None;
            }
            expect += f.payload.len();
        }
        // Tiled completely: assemble.
        let mut payload = Vec::with_capacity(expect);
        for f in &frags {
            payload.extend_from_slice(&f.payload);
        }
        let first = frags.remove(0);
        self.partial.remove(&key);
        Some(Packet {
            payload,
            frag_offset: 0,
            more_fragments: false,
            ..first
        })
    }

    /// Number of incomplete datagrams held.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.partial.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use signal::rng::Xoroshiro128;

    fn sample(payload_len: usize) -> Packet {
        Packet {
            src: Addr(0x0A000001),
            dst: Addr(0x0A000002),
            protocol: Protocol::Udp,
            id: 7,
            frag_offset: 0,
            more_fragments: false,
            payload: (0..payload_len).map(|i| i as u8).collect(),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = sample(100);
        let wire = p.encode();
        assert_eq!(Packet::decode(&wire).unwrap(), p);
    }

    #[test]
    fn corruption_detected() {
        let mut wire = sample(50).encode();
        wire[25] ^= 0x40;
        assert_eq!(Packet::decode(&wire).unwrap_err(), PacketError::BadChecksum);
    }

    #[test]
    fn truncation_and_length_mismatch_detected() {
        let wire = sample(50).encode();
        assert_eq!(
            Packet::decode(&wire[..10]).unwrap_err(),
            PacketError::Truncated
        );
        assert_eq!(
            Packet::decode(&wire[..30]).unwrap_err(),
            PacketError::BadLength
        );
    }

    #[test]
    fn fragmentation_tiles_payload() {
        let p = sample(1000);
        let frags = p.fragment(256);
        assert!(frags.len() > 1);
        let mut total = 0;
        for (i, f) in frags.iter().enumerate() {
            assert_eq!(f.frag_offset as usize, total);
            total += f.payload.len();
            assert_eq!(f.more_fragments, i + 1 < frags.len());
            assert!(f.encode().len() <= 256);
        }
        assert_eq!(total, 1000);
    }

    #[test]
    fn small_payload_is_single_fragment() {
        let p = sample(10);
        let frags = p.fragment(256);
        assert_eq!(frags.len(), 1);
        assert!(!frags[0].more_fragments);
    }

    #[test]
    fn reassembly_in_order_and_shuffled() {
        let p = sample(1200);
        let mut rng = Xoroshiro128::new(91);
        for shuffle in [false, true] {
            let mut frags = p.fragment(200);
            if shuffle {
                rng.shuffle(&mut frags);
            }
            let mut r = Reassembler::new();
            let mut done = None;
            for f in frags {
                if let Some(d) = r.push(f) {
                    done = Some(d);
                }
            }
            let d = done.expect("datagram should complete");
            assert_eq!(d.payload, p.payload);
            assert_eq!(r.pending(), 0);
        }
    }

    #[test]
    fn missing_fragment_keeps_datagram_pending() {
        let p = sample(600);
        let mut frags = p.fragment(200);
        frags.remove(1);
        let mut r = Reassembler::new();
        for f in frags {
            assert!(r.push(f).is_none());
        }
        assert_eq!(r.pending(), 1);
    }

    #[test]
    fn interleaved_datagrams_reassemble_independently() {
        let mut a = sample(500);
        a.id = 1;
        let mut b = sample(500);
        b.id = 2;
        let fa = a.fragment(200);
        let fb = b.fragment(200);
        let mut r = Reassembler::new();
        let mut complete = 0;
        for (x, y) in fa.into_iter().zip(fb) {
            if r.push(x).is_some() {
                complete += 1;
            }
            if r.push(y).is_some() {
                complete += 1;
            }
        }
        assert_eq!(complete, 2);
    }

    #[test]
    fn checksum_known_properties() {
        assert_eq!(checksum(&[]), 0xFFFF);
        // Appending the checksum makes the total sum ~0.
        let data = vec![0x12, 0x34, 0x56, 0x78];
        let ck = checksum(&data);
        let mut with = data.clone();
        with.extend_from_slice(&ck.to_be_bytes());
        assert_eq!(checksum(&with), 0);
    }

    /// A copy of the checksum, as [`checksum`] is called.
    type Checksum = fn(&[u8]) -> u16;

    /// Both copies of the checksum: the baseline copy, called directly on
    /// every host, and the copy [`checksum`] dispatches to (AVX-512F
    /// where the CPU has it, else the baseline again).
    fn copies() -> [(String, Checksum); 2] {
        let wide = format!("dispatched {}-bit", signal::simd::vector_bits());
        println!("checksum copies checked: baseline 128-bit, {wide}");
        [
            ("baseline 128-bit".to_string(), checksum_baseline),
            (wide, checksum),
        ]
    }

    #[test]
    fn deferred_carry_equals_the_per_word_fold() {
        // Every length 0..=4,096, odd ones included, over random bytes,
        // over constant runs of 0x00 and 0xFF (the sums that fold to
        // zero and to 0xFFFF), and over random mixes of such runs, in
        // both copies.
        let copies = copies();
        let mut rng = Xoroshiro128::new(92);
        let random: Vec<u8> = (0..4_096).map(|_| rng.next_u32() as u8).collect();
        for data in [random, vec![0x00; 4_096], vec![0xFF; 4_096]] {
            for len in 0..=data.len() {
                let bytes = &data[..len];
                let oracle = checksum_per_word(bytes);
                for (copy, sum) in &copies {
                    assert_eq!(sum(bytes), oracle, "{copy}: len {len}");
                }
            }
        }
        for case in 0..256 {
            let len = rng.below(4_097) as usize;
            let mut bytes = Vec::with_capacity(len);
            while bytes.len() < len {
                let run = (rng.below(64) as usize + 1).min(len - bytes.len());
                let fill = match rng.below(3) {
                    0 => Some(0x00),
                    1 => Some(0xFF),
                    _ => None,
                };
                bytes.extend((0..run).map(|_| fill.unwrap_or_else(|| rng.next_u32() as u8)));
            }
            let oracle = checksum_per_word(&bytes);
            for (copy, sum) in &copies {
                assert_eq!(sum(&bytes), oracle, "{copy}: case {case} len {len}");
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error() {
        // A flip in the length field disagrees with the buffer, and one
        // in the checksum field changes the expected sum; anywhere else
        // it moves the word sum by ±2^k, never a multiple of 0xFFFF, so
        // the checksum catches it. Both copies agree: summed over the
        // whole frame, checksum field included, an intact frame reads 0
        // and a flipped one never does.
        let copies = copies();
        let mut rng = Xoroshiro128::new(93);
        for case in 0..48 {
            let len = rng.below(300) as usize;
            let mut p = sample(len);
            p.payload = match case % 3 {
                0 => vec![0x00; len],
                1 => vec![0xFF; len],
                _ => (0..len).map(|_| rng.next_u32() as u8).collect(),
            };
            p.src = Addr(rng.next_u32());
            p.id = rng.next_u32() as u16;
            p.protocol = if rng.below(2) == 0 {
                Protocol::Udp
            } else {
                Protocol::Tcp
            };
            let wire = p.encode();
            assert_eq!(Packet::decode(&wire), Ok(p));
            for (copy, sum) in &copies {
                assert_eq!(sum(&wire), 0, "{copy}: case {case} intact frame");
            }
            for bit in 0..wire.len() * 8 {
                let mut bad = wire.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    Packet::decode(&bad).is_err(),
                    "case {case}: flipping bit {bit} of {} bytes decoded Ok",
                    wire.len()
                );
                for (copy, sum) in &copies {
                    assert_ne!(sum(&bad), 0, "{copy}: case {case} bit {bit}");
                }
            }
        }
    }

    #[test]
    fn addr_display() {
        assert_eq!(Addr(0x0A000001).to_string(), "10.0.0.1");
    }
}
