//! Binary encodings shared by the WAL, blocks, SSTables and the manifest:
//! LEB128 varints, length-prefixed slices and CRC-32 (the Castagnoli
//! polynomial LevelDB/RocksDB use for record framing); the decoders are
//! `lsm_boundary::encoding`'s.

pub use lsm_boundary::encoding::{get_fixed_u64, get_length_prefixed, get_varint_u64};

/// Appends a LEB128 varint encoding of `v`.
pub fn put_varint_u64(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Appends a `u32` varint.
pub fn put_varint_u32(buf: &mut Vec<u8>, v: u32) {
    put_varint_u64(buf, u64::from(v));
}

/// Decodes a `u32` varint; fails if the value exceeds `u32::MAX`.
pub fn get_varint_u32(buf: &[u8]) -> Option<(u32, usize)> {
    let (v, n) = get_varint_u64(buf)?;
    u32::try_from(v).ok().map(|v| (v, n))
}

/// Appends a varint length followed by the bytes.
pub fn put_length_prefixed(buf: &mut Vec<u8>, data: &[u8]) {
    put_varint_u64(buf, data.len() as u64);
    buf.extend_from_slice(data);
}

/// Appends a little-endian fixed `u32`.
pub fn put_fixed_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Reads a little-endian fixed `u32` at `offset`.
pub fn get_fixed_u32(buf: &[u8], offset: usize) -> Option<u32> {
    let bytes = buf.get(offset..offset + 4)?;
    Some(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
}

/// Appends a little-endian fixed `u64`.
pub fn put_fixed_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// CRC-32C (Castagnoli) slicing-by-8 tables, computed at first use.
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which lets eight input
/// bytes fold into the running CRC with eight independent lookups.
fn crc32c_tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        const POLY: u32 = 0x82f6_3b78; // reflected 0x1EDC6F41
        let mut tables = [[0u32; 256]; 8];
        for (i, entry) in tables[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
            *entry = crc;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = tables[k - 1][i];
                tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            }
        }
        tables
    })
}

/// CRC-32C checksum of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    let t = crc32c_tables();
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint_u64(&mut buf, v);
            let (got, n) = get_varint_u64(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn varint_sizes_match_leb128() {
        let mut buf = Vec::new();
        put_varint_u64(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_varint_u64(&mut buf, 128);
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn varint_truncated_fails() {
        assert!(get_varint_u64(&[0x80]).is_none());
        assert!(get_varint_u64(&[]).is_none());
    }

    #[test]
    fn varint_overlong_fails() {
        // 11 continuation bytes exceed a u64.
        let buf = [0xffu8; 11];
        assert!(get_varint_u64(&buf).is_none());
    }

    #[test]
    fn u32_varint_rejects_big_values() {
        let mut buf = Vec::new();
        put_varint_u64(&mut buf, u64::from(u32::MAX) + 1);
        assert!(get_varint_u32(&buf).is_none());
    }

    #[test]
    fn length_prefixed_round_trip() {
        let mut buf = Vec::new();
        put_length_prefixed(&mut buf, b"hello");
        put_length_prefixed(&mut buf, b"");
        let (a, n) = get_length_prefixed(&buf).unwrap();
        assert_eq!(a, b"hello");
        let (b, m) = get_length_prefixed(&buf[n..]).unwrap();
        assert_eq!(b, b"");
        assert_eq!(n + m, buf.len());
    }

    #[test]
    fn length_prefixed_truncated_fails() {
        let mut buf = Vec::new();
        put_length_prefixed(&mut buf, b"hello");
        assert!(get_length_prefixed(&buf[..3]).is_none());
    }

    #[test]
    fn fixed_round_trip() {
        let mut buf = Vec::new();
        put_fixed_u32(&mut buf, 0xdead_beef);
        put_fixed_u64(&mut buf, 0x0123_4567_89ab_cdef);
        assert_eq!(get_fixed_u32(&buf, 0), Some(0xdead_beef));
        assert_eq!(get_fixed_u64(&buf, 4), Some(0x0123_4567_89ab_cdef));
        assert_eq!(get_fixed_u32(&buf, 9), None);
    }

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 test vectors for CRC-32C.
        assert_eq!(crc32c(&[0u8; 32]), 0x8a91_36aa);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62a8_ab43);
        let ascending: Vec<u8> = (0..32u8).collect();
        assert_eq!(crc32c(&ascending), 0x46dd_794e);
    }

    /// The byte-at-a-time loop the sliced one replaced, as the reference.
    fn crc32c_bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ 0x82f6_3b78 } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn crc32c_sliced_matches_bytewise_on_random_lengths() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xc3c3_2c2c);
        let mut lengths: Vec<usize> = (0..=64).collect();
        lengths.extend((0..300).map(|_| rng.gen_range(0..=4096usize)));
        lengths.push(4096);
        for len in lengths {
            let data: Vec<u8> = (0..len).map(|_| rng.gen()).collect();
            assert_eq!(crc32c(&data), crc32c_bytewise(&data), "length {len}");
        }
    }

    #[test]
    fn crc32c_detects_corruption() {
        let a = crc32c(b"payload");
        let b = crc32c(b"paYload");
        assert_ne!(a, b);
    }
}
