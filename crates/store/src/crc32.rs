//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the checksum
//! guarding every WAL record. Implemented here because the build environment
//! vendors its dependencies; the tables are computed at compile time.
//!
//! The loop is slicing-by-8: eight table lookups fold eight input bytes per
//! step, where the bytewise loop (kept as the tests' reference) takes one
//! lookup and one dependent shift per byte. Table `k` maps a byte to its CRC
//! contribution `k` bytes ahead of the register, so the polynomial, and
//! every checksum on disk, are those of the bytewise loop.

/// `TABLES[0]` is the bytewise table of the reflected IEEE polynomial;
/// `TABLES[k][b]` is `TABLES[k - 1][b]` pushed through one more zero byte.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 of `bytes` (init `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF` — the
/// standard zlib/`cksum -o 3` convention).
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise loop this module shipped first: the reference.
    fn bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// Sliced and bytewise agree at every length 0..=256 and every start
    /// offset 0..8 (so every alignment of the 8-byte steps and every
    /// remainder length), over bytes that exercise every table entry.
    #[test]
    fn slicing_by_8_is_the_bytewise_crc() {
        let data: Vec<u8> =
            (0u32..264 + 8).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for offset in 0..8 {
            for len in 0..=256 {
                let bytes = &data[offset..offset + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "offset {offset} length {len}");
            }
        }
    }

    #[test]
    fn single_byte_changes_are_detected() {
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let c0 = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut m = base.clone();
                m[i] ^= 1 << bit;
                assert_ne!(crc32(&m), c0, "flip at byte {i} bit {bit} undetected");
            }
        }
    }
}
