//! Byte-level encoding helpers: little-endian integers and CRC32
//! (IEEE 802.3 polynomial, slicing-by-8 tables), implemented locally so
//! the store has no checksum dependency.

/// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320.
/// `TABLES[0]` is the bytewise table; `TABLES[k][b]` is the CRC of byte
/// `b` followed by `k` zero bytes, so eight table lookups advance the CRC
/// by eight bytes at once.
static TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC32 of `data` (IEEE, as used by zlib/Ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Extend `crc`, the CRC32 of some bytes, by `data`: the CRC32 of those
/// bytes followed by `data`. `crc32_update(0, data) == crc32(data)`, so a
/// record can be checked as it streams past in pieces.
pub(crate) fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !crc;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Append a `u32` little-endian.
pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Read a `u32` little-endian at `pos`, if in bounds.
pub(crate) fn get_u32(buf: &[u8], pos: usize) -> Option<u32> {
    let bytes = buf.get(pos..pos + 4)?;
    Some(u32::from_le_bytes(bytes.try_into().expect("4-byte slice")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector: "123456789" -> 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    /// The bytewise table loop the slicing-by-8 form must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_loop_at_every_misalignment() {
        // splitmix64 fills the buffers.
        let mut state = 0x5EED_u64;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for len in 0..=70usize {
            for round in 0..4 {
                let buf: Vec<u8> = (0..len + 8).map(|_| next() as u8).collect();
                for skew in 0..8 {
                    let data = &buf[skew..skew + len];
                    let want = crc32_bytewise(data);
                    assert_eq!(crc32(data), want, "len {len} round {round} skew {skew}");
                    for split in 0..=len {
                        let (a, b) = data.split_at(split);
                        assert_eq!(crc32_update(crc32(a), b), want, "len {len} split {split}");
                    }
                }
            }
        }
    }

    #[test]
    fn crc32_detects_single_bit_flip() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }

    #[test]
    fn u32_round_trip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u32(&mut buf, 7);
        assert_eq!(get_u32(&buf, 0), Some(0xDEAD_BEEF));
        assert_eq!(get_u32(&buf, 4), Some(7));
        assert_eq!(get_u32(&buf, 5), None);
    }
}
