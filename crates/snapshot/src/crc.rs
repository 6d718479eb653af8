//! IEEE CRC-32 (the zlib/PNG polynomial, reflected), hand-rolled so the
//! snapshot format has no external dependency and its tables are computed
//! at compile time.
//!
//! [`crc32`] is slice-by-16: it folds sixteen input bytes per step through
//! sixteen lookup tables, where table `k` maps a byte to the CRC of that
//! byte followed by `k` zero bytes. The sixteen lookups of a step are
//! independent of each other, where a byte-at-a-time loop chains every
//! lookup on the one before it; that is the whole speed-up, in safe,
//! portable code with no CPU-feature dispatch.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes folded per step of the main loop.
const STRIDE: usize = 16;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC
/// register after byte `b` and then `k` zero bytes, computed at compile
/// time.
const TABLES: [[u32; 256]; STRIDE] = {
    let mut tables = [[0u32; 256]; STRIDE];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < STRIDE {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes`. The check value of `b"123456789"` is
/// `0xCBF4_3926`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut blocks = bytes.chunks_exact(STRIDE);
    for b in &mut blocks {
        // The register overlaps the block's first four bytes; those sit
        // furthest from the end of the block, so they take the tables
        // that append the most zero bytes.
        let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop: the reference the sliced loop must equal.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn standard_check_values() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_equals_bytewise_at_every_length_and_alignment() {
        // One fixed xorshift buffer; every (offset, length) pair covers
        // zero, one and many whole blocks with every tail length, at every
        // start alignment of the block loop relative to the allocation.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..STRIDE + 256)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        for offset in 0..STRIDE {
            for len in 0..=256 {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let a = crc32(b"snapshot payload");
        let b = crc32(b"snapshot pcyload");
        assert_ne!(a, b);
    }
}
