//! Canonical Huffman coding.
//!
//! Paper §3: *"Lossless encoding, particularly Huffman-style encoding, is
//! used to remove entropy from the final data stream sent to the
//! decoder."* This is that box. Codes are canonical, so only the code
//! lengths travel in the stream header; both video and audio framers use
//! this module.

use std::collections::BinaryHeap;

use crate::bitstream::{BitReader, BitWriter, OutOfBitsError};

/// Errors building or using a Huffman code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HuffmanError {
    /// No symbol had a nonzero frequency.
    NoSymbols,
    /// A symbol outside the alphabet was encoded.
    UnknownSymbol(u16),
    /// The bitstream ended mid-codeword.
    OutOfBits(OutOfBitsError),
    /// The bitstream contained a prefix that matches no codeword.
    BadCode,
    /// A length table was invalid (violates Kraft inequality or empty).
    BadLengths,
}

impl core::fmt::Display for HuffmanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HuffmanError::NoSymbols => f.write_str("no symbols with nonzero frequency"),
            HuffmanError::UnknownSymbol(s) => write!(f, "symbol {s} is not in the code"),
            HuffmanError::OutOfBits(e) => write!(f, "bitstream exhausted: {e}"),
            HuffmanError::BadCode => f.write_str("invalid codeword in bitstream"),
            HuffmanError::BadLengths => f.write_str("invalid code length table"),
        }
    }
}

impl std::error::Error for HuffmanError {}

impl From<OutOfBitsError> for HuffmanError {
    fn from(e: OutOfBitsError) -> Self {
        HuffmanError::OutOfBits(e)
    }
}

const MAX_LEN: u32 = 16;

/// A canonical Huffman code over symbols `0..alphabet_len`.
///
/// Canonical codewords of one length are consecutive integers, assigned
/// in symbol order, so decoding needs only, per length, the first
/// codeword, the number of codewords, and where that length's symbols
/// start in the symbols sorted by (length, symbol).
///
/// # Example
///
/// ```
/// use video::huffman::HuffmanCode;
/// use video::bitstream::{BitReader, BitWriter};
///
/// let freqs = [50u64, 30, 15, 5];
/// let code = HuffmanCode::from_frequencies(&freqs)?;
/// let mut w = BitWriter::new();
/// for sym in [0u16, 1, 0, 3, 2] {
///     code.encode(&mut w, sym)?;
/// }
/// let bytes = w.into_bytes();
/// let mut r = BitReader::new(&bytes);
/// for expect in [0u16, 1, 0, 3, 2] {
///     assert_eq!(code.decode(&mut r)?, expect);
/// }
/// # Ok::<(), video::huffman::HuffmanError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuffmanCode {
    /// Code length per symbol (0 = symbol unused).
    lengths: Vec<u8>,
    /// Canonical codeword per symbol (valid when length > 0).
    codes: Vec<u32>,
    /// Decode table, indexed by code length: first codeword.
    first: [u32; MAX_LEN as usize + 1],
    /// Decode table, indexed by code length: number of codewords.
    count: [u32; MAX_LEN as usize + 1],
    /// Decode table, indexed by code length: index into `sorted` of the
    /// symbol with codeword `first`.
    offset: [u32; MAX_LEN as usize + 1],
    /// Used symbols sorted by (length, symbol).
    sorted: Vec<u16>,
}

#[derive(PartialEq, Eq)]
struct HeapNode {
    weight: u64,
    /// Tie-break for determinism.
    order: usize,
    node: usize,
}

impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        // Reverse for a min-heap.
        other
            .weight
            .cmp(&self.weight)
            .then(other.order.cmp(&self.order))
    }
}

impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl HuffmanCode {
    /// Builds an optimal prefix code from symbol frequencies. Symbols with
    /// zero frequency get no codeword. Code lengths are capped at 16 by
    /// flattening (frequencies are scaled until the cap holds; for the
    /// alphabet sizes in this workspace the cap is never binding in
    /// practice).
    ///
    /// # Errors
    ///
    /// Returns [`HuffmanError::NoSymbols`] if every frequency is zero.
    pub fn from_frequencies(freqs: &[u64]) -> Result<Self, HuffmanError> {
        let used: Vec<usize> = (0..freqs.len()).filter(|&i| freqs[i] > 0).collect();
        if used.is_empty() {
            return Err(HuffmanError::NoSymbols);
        }
        let mut lengths = vec![0u8; freqs.len()];
        if used.len() == 1 {
            lengths[used[0]] = 1;
            return Self::from_lengths(lengths);
        }
        // Standard two-queue-equivalent heap construction.
        // parent[] over a forest of (leaf symbols + internal nodes).
        let n = used.len();
        let mut weights: Vec<u64> = used.iter().map(|&i| freqs[i]).collect();
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut heap: BinaryHeap<HeapNode> = (0..n)
            .map(|i| HeapNode {
                weight: weights[i],
                order: i,
                node: i,
            })
            .collect();
        let mut order = n;
        while heap.len() > 1 {
            let a = heap.pop().expect("heap has >=2");
            let b = heap.pop().expect("heap has >=2");
            let idx = weights.len();
            weights.push(a.weight + b.weight);
            parent.push(None);
            parent[a.node] = Some(idx);
            parent[b.node] = Some(idx);
            heap.push(HeapNode {
                weight: a.weight + b.weight,
                order,
                node: idx,
            });
            order += 1;
        }
        // Depth of each leaf = code length.
        for (leaf, &sym) in used.iter().enumerate() {
            let mut d = 0u8;
            let mut cur = leaf;
            while let Some(p) = parent[cur] {
                d += 1;
                cur = p;
            }
            lengths[sym] = d.max(1);
        }
        // Enforce the length cap (rarely triggered).
        if lengths.iter().any(|&l| l as u32 > MAX_LEN) {
            let scaled: Vec<u64> = freqs
                .iter()
                .map(|&f| if f > 0 { (f >> 4).max(1) } else { 0 })
                .collect();
            return Self::from_frequencies(&scaled);
        }
        Self::from_lengths(lengths)
    }

    /// Builds the canonical code from a length table (lengths of 0 mean
    /// "symbol unused").
    ///
    /// # Errors
    ///
    /// Returns [`HuffmanError::BadLengths`] if the table is empty, has no
    /// used symbol, or overflows the code space (violates the Kraft
    /// inequality).
    pub fn from_lengths(lengths: Vec<u8>) -> Result<Self, HuffmanError> {
        if lengths.is_empty() || lengths.iter().all(|&l| l == 0) {
            return Err(HuffmanError::BadLengths);
        }
        if lengths.iter().any(|&l| l as u32 > MAX_LEN) {
            return Err(HuffmanError::BadLengths);
        }
        // Kraft check.
        let kraft: u64 = lengths
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 1u64 << (MAX_LEN - l as u32))
            .sum();
        if kraft > 1u64 << MAX_LEN {
            return Err(HuffmanError::BadLengths);
        }
        // Canonical assignment: sort by (length, symbol).
        let mut sorted: Vec<u16> = (0..lengths.len())
            .filter(|&i| lengths[i] > 0)
            .map(|i| i as u16)
            .collect();
        sorted.sort_by_key(|&s| (lengths[s as usize], s));
        let mut codes = vec![0u32; lengths.len()];
        let mut first = [0u32; MAX_LEN as usize + 1];
        let mut count = [0u32; MAX_LEN as usize + 1];
        let mut offset = [0u32; MAX_LEN as usize + 1];
        let mut code = 0u32;
        let mut prev_len = lengths[sorted[0] as usize] as u32;
        for (i, &s) in sorted.iter().enumerate() {
            let l = lengths[s as usize] as u32;
            code <<= l - prev_len;
            if count[l as usize] == 0 {
                first[l as usize] = code;
                offset[l as usize] = i as u32;
            }
            count[l as usize] += 1;
            codes[s as usize] = code;
            code += 1;
            prev_len = l;
        }
        Ok(Self {
            lengths,
            codes,
            first,
            count,
            offset,
            sorted,
        })
    }

    /// The code-length table (index = symbol).
    #[must_use]
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// Number of symbols in the alphabet (including unused ones).
    #[must_use]
    pub fn alphabet_len(&self) -> usize {
        self.lengths.len()
    }

    /// Bits needed to encode `symbol`, or `None` if unused.
    #[must_use]
    pub fn bit_length(&self, symbol: u16) -> Option<u32> {
        self.lengths
            .get(symbol as usize)
            .and_then(|&l| if l > 0 { Some(l as u32) } else { None })
    }

    /// Writes the codeword for `symbol`.
    ///
    /// # Errors
    ///
    /// Returns [`HuffmanError::UnknownSymbol`] for symbols without a
    /// codeword.
    pub fn encode(&self, w: &mut BitWriter, symbol: u16) -> Result<(), HuffmanError> {
        let len = self
            .bit_length(symbol)
            .ok_or(HuffmanError::UnknownSymbol(symbol))?;
        w.write_bits(self.codes[symbol as usize], len);
        Ok(())
    }

    /// Decodes one symbol, reading one bit and making one comparison per
    /// code length.
    ///
    /// # Errors
    ///
    /// Returns [`HuffmanError::OutOfBits`] or [`HuffmanError::BadCode`].
    /// A prefix that matches no codeword of up to 16 bits is `BadCode`
    /// once a 17th bit has been read.
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u16, HuffmanError> {
        let mut code = 0u32;
        for len in 1..=MAX_LEN as usize {
            code = (code << 1) | r.read_bit()? as u32;
            // Unsigned wrap-around makes codes below `first` fail too.
            let index = code.wrapping_sub(self.first[len]);
            if index < self.count[len] {
                return Ok(self.sorted[(self.offset[len] + index) as usize]);
            }
        }
        r.read_bit()?;
        Err(HuffmanError::BadCode)
    }

    /// Serializes the length table into a bit stream (8 bits alphabet-size
    /// hi/lo, then 5 bits per length).
    pub fn write_table(&self, w: &mut BitWriter) {
        let n = self.lengths.len() as u32;
        w.write_bits(n, 16);
        for &l in &self.lengths {
            w.write_bits(l as u32, 5);
        }
    }

    /// Reads a length table written by [`HuffmanCode::write_table`].
    ///
    /// # Errors
    ///
    /// Returns [`HuffmanError`] on truncated input or an invalid table.
    pub fn read_table(r: &mut BitReader<'_>) -> Result<Self, HuffmanError> {
        let n = r.read_bits(16)? as usize;
        let mut lengths = Vec::with_capacity(n);
        for _ in 0..n {
            lengths.push(r.read_bits(5)? as u8);
        }
        Self::from_lengths(lengths)
    }

    /// Expected bits per symbol under the given frequency distribution.
    #[must_use]
    pub fn expected_bits(&self, freqs: &[u64]) -> f64 {
        let total: u64 = freqs.iter().sum();
        if total == 0 {
            return 0.0;
        }
        freqs
            .iter()
            .enumerate()
            .filter(|(_, &f)| f > 0)
            .map(|(s, &f)| f as f64 * self.lengths[s] as f64)
            .sum::<f64>()
            / total as f64
    }
}

/// Shannon entropy in bits/symbol of a frequency table.
#[must_use]
pub fn entropy_bits(freqs: &[u64]) -> f64 {
    let total: u64 = freqs.iter().sum();
    if total == 0 {
        return 0.0;
    }
    freqs
        .iter()
        .filter(|&&f| f > 0)
        .map(|&f| {
            let p = f as f64 / total as f64;
            -p * p.log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The alphabet-scan decoder the canonical tables replaced, kept as
    /// their oracle: after each bit, scan every symbol for one with this
    /// (length, codeword).
    fn scan_decode(code: &HuffmanCode, r: &mut BitReader<'_>) -> Result<u16, HuffmanError> {
        let mut word = 0u32;
        let mut len = 0u32;
        loop {
            word = (word << 1) | r.read_bit()? as u32;
            len += 1;
            if len > MAX_LEN {
                return Err(HuffmanError::BadCode);
            }
            for (s, &l) in code.lengths.iter().enumerate() {
                if l as u32 == len && code.codes[s] == word {
                    return Ok(s as u16);
                }
            }
        }
    }

    /// Decodes `bytes` with the table decoder and the scan oracle side by
    /// side until both stop, asserting equal symbols, errors and cursors.
    fn assert_decoders_agree(code: &HuffmanCode, bytes: &[u8]) {
        let mut table = BitReader::new(bytes);
        let mut scan = BitReader::new(bytes);
        loop {
            let got = code.decode(&mut table);
            assert_eq!(got, scan_decode(code, &mut scan));
            assert_eq!(table.position(), scan.position());
            if got.is_err() {
                return;
            }
        }
    }

    /// Lengthens the shortest codes of `lengths` until the table obeys
    /// the Kraft inequality; the result is often incomplete.
    fn fit_kraft(mut lengths: Vec<u8>) -> Vec<u8> {
        if lengths.iter().all(|&l| l == 0) {
            lengths[0] = 1;
        }
        let kraft = |ls: &[u8]| -> u64 {
            ls.iter()
                .filter(|&&l| l > 0)
                .map(|&l| 1u64 << (MAX_LEN - l as u32))
                .sum()
        };
        while kraft(&lengths) > 1 << MAX_LEN {
            let shortest = (0..lengths.len())
                .filter(|&i| lengths[i] > 0 && (lengths[i] as u32) < MAX_LEN)
                .min_by_key(|&i| lengths[i])
                .expect("a table of <= 65536 codes fits at length 16");
            lengths[shortest] += 1;
        }
        lengths
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// For arbitrary valid length tables the table decoder equals the
        /// scan oracle: on a message of the code's own symbols, then on
        /// arbitrary trailing bits, which for an incomplete table reach
        /// unmatched prefixes (`BadCode`) and the end of the stream.
        #[test]
        fn table_decode_matches_scan_oracle(
            raw in prop::collection::vec(0u8..=16, 1..300),
            picks in prop::collection::vec(any::<u16>(), 0..200),
            tail in prop::collection::vec(any::<u8>(), 0..32),
        ) {
            let code = HuffmanCode::from_lengths(fit_kraft(raw)).unwrap();
            let used: Vec<u16> = (0..code.alphabet_len() as u16)
                .filter(|&s| code.bit_length(s).is_some())
                .collect();
            let mut w = BitWriter::new();
            for &p in &picks {
                code.encode(&mut w, used[p as usize % used.len()]).unwrap();
            }
            let mut bytes = w.into_bytes();
            bytes.extend_from_slice(&tail);
            assert_decoders_agree(&code, &bytes);
        }
    }

    #[test]
    fn table_decode_matches_scan_oracle_on_edge_tables() {
        // Lengths 1, 2, ..., 16, 16: complete, with two 16-bit codes.
        let deepest: Vec<u8> = (1..=16).chain([16]).collect();
        for lengths in [
            vec![0, 1, 0],         // one symbol: prefix "1" never matches
            deepest,               // the longest codes the format allows
            vec![2, 2, 2],         // Kraft 3/4: prefix "11" never matches
            vec![0, 16, 3, 0, 16], // incomplete, with 16-bit codes
        ] {
            let code = HuffmanCode::from_lengths(lengths).unwrap();
            for bytes in [
                vec![],
                vec![0x00],
                vec![0xFF, 0xFF],
                vec![0xFF, 0xFF, 0x80],
                vec![0x5A, 0xFF, 0xFF, 0xFF, 0x00, 0x3C],
            ] {
                assert_decoders_agree(&code, &bytes);
            }
        }
        // An unmatched prefix is `BadCode` once 17 bits are read, and runs
        // out of bits when fewer remain.
        let code = HuffmanCode::from_lengths(vec![2, 2, 2]).unwrap();
        let mut r = BitReader::new(&[0xFF, 0xFF, 0x80]);
        assert_eq!(code.decode(&mut r), Err(HuffmanError::BadCode));
        let mut r = BitReader::new(&[0xFF, 0xFF]);
        assert!(matches!(
            code.decode(&mut r),
            Err(HuffmanError::OutOfBits(_))
        ));
    }

    #[test]
    fn round_trip_random_symbols() {
        let freqs = [100u64, 50, 25, 12, 6, 3, 2, 1];
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        let mut w = BitWriter::new();
        let msg: Vec<u16> = (0..200).map(|i| (i * 7 % 8) as u16).collect();
        for &s in &msg {
            code.encode(&mut w, s).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in &msg {
            assert_eq!(code.decode(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn frequent_symbols_get_shorter_codes() {
        let freqs = [1000u64, 10, 10, 10];
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        let l0 = code.bit_length(0).unwrap();
        for s in 1..4 {
            assert!(code.bit_length(s).unwrap() >= l0);
        }
    }

    #[test]
    fn expected_length_within_one_bit_of_entropy() {
        let freqs = [50u64, 30, 10, 5, 3, 1, 1];
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        let h = entropy_bits(&freqs);
        let l = code.expected_bits(&freqs);
        assert!(l >= h - 1e-9, "below entropy: {l} < {h}");
        assert!(l < h + 1.0, "more than 1 bit above entropy: {l} vs {h}");
    }

    #[test]
    fn code_is_prefix_free() {
        let freqs = [7u64, 6, 5, 4, 3, 2, 1, 1, 1, 20];
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        let words: Vec<(u32, u32)> = (0..freqs.len() as u16)
            .filter_map(|s| code.bit_length(s).map(|l| (code.codes[s as usize], l)))
            .collect();
        for (i, &(ca, la)) in words.iter().enumerate() {
            for (j, &(cb, lb)) in words.iter().enumerate() {
                if i == j {
                    continue;
                }
                if la <= lb {
                    assert_ne!(ca, cb >> (lb - la), "codeword {i} prefixes {j}");
                }
            }
        }
    }

    #[test]
    fn single_symbol_alphabet_works() {
        let code = HuffmanCode::from_frequencies(&[0, 42, 0]).unwrap();
        let mut w = BitWriter::new();
        code.encode(&mut w, 1).unwrap();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(code.decode(&mut r).unwrap(), 1);
    }

    #[test]
    fn unknown_symbol_rejected() {
        let code = HuffmanCode::from_frequencies(&[1, 1]).unwrap();
        let mut w = BitWriter::new();
        assert_eq!(
            code.encode(&mut w, 9).unwrap_err(),
            HuffmanError::UnknownSymbol(9)
        );
    }

    #[test]
    fn all_zero_frequencies_rejected() {
        assert_eq!(
            HuffmanCode::from_frequencies(&[0, 0]).unwrap_err(),
            HuffmanError::NoSymbols
        );
    }

    #[test]
    fn table_round_trip() {
        let freqs = [9u64, 8, 7, 1, 0, 3];
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        let mut w = BitWriter::new();
        code.write_table(&mut w);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let restored = HuffmanCode::read_table(&mut r).unwrap();
        assert_eq!(restored, code);
    }

    #[test]
    fn bad_length_tables_rejected() {
        // Kraft violation: three length-1 codes.
        assert_eq!(
            HuffmanCode::from_lengths(vec![1, 1, 1]).unwrap_err(),
            HuffmanError::BadLengths
        );
        assert_eq!(
            HuffmanCode::from_lengths(vec![]).unwrap_err(),
            HuffmanError::BadLengths
        );
        assert_eq!(
            HuffmanCode::from_lengths(vec![0, 0]).unwrap_err(),
            HuffmanError::BadLengths
        );
    }

    #[test]
    fn entropy_known_values() {
        assert!((entropy_bits(&[1, 1]) - 1.0).abs() < 1e-12);
        assert!((entropy_bits(&[1, 1, 1, 1]) - 2.0).abs() < 1e-12);
        assert_eq!(entropy_bits(&[5, 0, 0]), 0.0);
        assert_eq!(entropy_bits(&[]), 0.0);
    }

    #[test]
    fn deterministic_construction() {
        let freqs = [3u64, 3, 3, 3, 3];
        let a = HuffmanCode::from_frequencies(&freqs).unwrap();
        let b = HuffmanCode::from_frequencies(&freqs).unwrap();
        assert_eq!(a, b);
    }
}
