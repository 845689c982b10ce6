//! Small, hermetic hash functions for integrity checks and
//! content-addressed keys.
//!
//! [`crc32`] is the standard CRC-32/ISO-HDLC (the zlib/PNG/gzip
//! polynomial, reflected, init and xorout `0xFFFF_FFFF`), computed with
//! a compile-time 256-entry table. It exists so on-disk artifacts — the
//! [`crate::cellfile`] files behind the trace cache and the serve result
//! cache — can detect truncation and bit-rot without pulling a crates.io
//! dependency into the otherwise hermetic build.
//!
//! [`fnv64`] is FNV-1a with 64-bit state: a fast, dependency-free hash
//! with good dispersion over short keys, used where a wide
//! *content-addressed key* is needed rather than an integrity check —
//! the `ampsched serve` result cache keys each request by the FNV-64 of
//! its canonical parameter string (DESIGN.md §14). It is not
//! collision-resistant against adversaries; it addresses a cache, it
//! does not authenticate one (CRC-32 still guards the bytes on disk).
//!
//! ```
//! use ampsched_util::hash::{crc32, fnv64};
//!
//! // The canonical CRC-32 check value.
//! assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
//! // FNV-1a 64-bit reference vectors.
//! assert_eq!(fnv64(b""), 0xCBF2_9CE4_8422_2325);
//! assert_eq!(fnv64(b"foobar"), 0x8594_4171_F739_67E8);
//! ```

/// Reflected CRC-32 polynomial (ISO-HDLC / zlib).
const POLY: u32 = 0xEDB8_8320;

/// One table entry per byte value, generated at compile time.
static TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 of `data` in one call (init/xorout `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

/// Incremental CRC-32, for hashing a file's sections without
/// concatenating them first.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Crc32 {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `data` into the running checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        for &b in data {
            crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The final checksum (the hasher may keep being updated; `finish`
    /// is a pure read).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// FNV-1a 64-bit offset basis.
pub const FNV64_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01B3;

/// FNV-1a 64-bit hash of `data` in one call.
///
/// ```
/// use ampsched_util::hash::fnv64;
///
/// assert_eq!(fnv64(b"a"), 0xAF63_DC4C_8601_EC8C);
/// // Order matters: FNV is a fold, not a set hash.
/// assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
/// ```
pub fn fnv64(data: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(data);
    h.finish()
}

/// Incremental FNV-1a 64-bit hasher, for keying structured data without
/// concatenating it into one buffer first.
///
/// ```
/// use ampsched_util::hash::{fnv64, Fnv64};
///
/// let mut h = Fnv64::new();
/// h.update(b"split ");
/// h.update(b"input");
/// assert_eq!(h.finish(), fnv64(b"split input"));
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A fresh hasher (state = offset basis).
    pub fn new() -> Fnv64 {
        Fnv64 {
            state: FNV64_OFFSET,
        }
    }

    /// Fold `data` into the running hash.
    pub fn update(&mut self, data: &[u8]) {
        let mut h = self.state;
        for &b in data {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV64_PRIME);
        }
        self.state = h;
    }

    /// Fold a `u64` in as 8 little-endian bytes (length-prefix-free
    /// convenience for fixed-width fields).
    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    /// The current hash (a pure read; the hasher may keep updating).
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_known_vectors() {
        // Reference vectors from Noll's published FNV-1a test suite.
        assert_eq!(fnv64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn fnv64_incremental_matches_oneshot() {
        let data = b"canonical params string; split across update calls";
        let mut h = Fnv64::new();
        for part in data.chunks(5) {
            h.update(part);
        }
        assert_eq!(h.finish(), fnv64(data));
    }

    #[test]
    fn fnv64_u64_matches_le_bytes() {
        let mut a = Fnv64::new();
        a.update_u64(0x0123_4567_89AB_CDEF);
        let mut b = Fnv64::new();
        b.update(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn fnv64_single_bit_flips_change_the_hash() {
        let base: Vec<u8> = (0u16..256).map(|i| (i % 251) as u8).collect();
        let reference = fnv64(&base);
        for at in [0usize, 1, 128, 255] {
            for bit in 0..8 {
                let mut corrupt = base.clone();
                corrupt[at] ^= 1 << bit;
                assert_ne!(fnv64(&corrupt), reference, "flip at {at} bit {bit} undetected");
            }
        }
    }

    #[test]
    fn known_vectors() {
        // Check values from the CRC catalogue (CRC-32/ISO-HDLC).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data = b"split across several update calls";
        let mut h = Crc32::new();
        for part in data.chunks(7) {
            h.update(part);
        }
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base: Vec<u8> = (0u16..512).map(|i| (i % 251) as u8).collect();
        let reference = crc32(&base);
        for at in [0usize, 1, 255, 511] {
            for bit in 0..8 {
                let mut corrupt = base.clone();
                corrupt[at] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), reference, "flip at {at} bit {bit} undetected");
            }
        }
    }
}
