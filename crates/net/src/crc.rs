//! CRC-32 (IEEE 802.3) frame check sequence.
//!
//! §4.3.3's link layer "wraps all messages with a rotating checksum" and
//! discards frames whose checksum fails; the token-ring recorder of §6.1.2
//! *complements* the checksum to deliberately invalidate a frame it could
//! not record. Both behaviours need a real FCS, so we implement the
//! standard reflected CRC-32 used by Ethernet.

/// The CRC-32/IEEE polynomial, reflected.
const POLY: u32 = 0xEDB8_8320;

/// Builds the slicing-by-8 tables at compile time.
///
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so eight table reads fold
/// eight input bytes into the register at once.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
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

static TABLES: [[u32; 256]; 8] = build_tables();

/// Folds `data` into the CRC register one byte at a time: the tail of
/// [`crc32`], and the reference its tests compare the sliced path to.
fn update_bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Computes the CRC-32/IEEE checksum of `data`, eight bytes per step
/// (slicing-by-8) with a byte-wise tail.
///
/// # Examples
///
/// ```
/// // The standard check value for "123456789".
/// assert_eq!(publishing_net::crc::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][c[4] as usize]
            ^ TABLES[2][c[5] as usize]
            ^ TABLES[1][c[6] as usize]
            ^ TABLES[0][c[7] as usize];
    }
    !update_bytewise(crc, chunks.remainder())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The byte-at-a-time CRC the sliced path must equal.
    fn reference(data: &[u8]) -> u32 {
        !update_bytewise(0xFFFF_FFFF, data)
    }

    #[test]
    fn sliced_matches_bytewise_at_every_short_length() {
        let data: Vec<u8> = (0..64u32).map(|i| (i * 73 + 11) as u8).collect();
        for len in 0..=64 {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_random_buffers_at_every_offset() {
        // Start offsets 0..8 move the 8-byte chunks across every
        // alignment of the underlying allocation.
        let mut rng = publishing_sim::rng::DetRng::new(0xC4C);
        for _ in 0..64 {
            let len = rng.below(4097) as usize;
            let buf: Vec<u8> = (0..len + 8).map(|_| rng.below(256) as u8).collect();
            for off in 0..8 {
                let data = &buf[off..off + len];
                assert_eq!(crc32(data), reference(data), "len {len} offset {off}");
            }
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 128];
        data[17] = 0xA5;
        let good = crc32(&data);
        data[17] ^= 0x01;
        assert_ne!(crc32(&data), good);
    }

    #[test]
    fn complemented_crc_never_validates() {
        // The token-ring recorder invalidates a frame by complementing the
        // FCS; a complemented CRC must never equal the true CRC.
        for data in [&b"x"[..], b"hello", b"", b"0123456789abcdef"] {
            let c = crc32(data);
            assert_ne!(c, !c);
        }
    }
}
