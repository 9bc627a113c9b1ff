//! The varint and fixed-width helpers the record codec and the enclave's
//! value envelope share; the engine's `encoding` module re-exports the
//! decoders.

/// Writes `v` as a LEB128 varint at the front of `out`, which has room
/// for it (10 bytes hold any `u64`); returns its length.
#[inline]
pub fn put_varint_at(out: &mut [u8], mut v: u64) -> usize {
    let mut at = 0;
    while v >= 0x80 {
        out[at] = (v as u8 & 0x7f) | 0x80;
        v >>= 7;
        at += 1;
    }
    out[at] = v as u8;
    at + 1
}

/// Decodes a LEB128 varint from the front of `buf`, returning the value and
/// the number of bytes consumed.
///
/// Returns `None` on truncated or over-long input.
#[inline]
pub fn get_varint_u64(buf: &[u8]) -> Option<(u64, usize)> {
    let mut result = 0u64;
    let mut shift = 0u32;
    for (i, &b) in buf.iter().enumerate() {
        if shift >= 64 {
            return None;
        }
        result |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some((result, i + 1));
        }
        shift += 7;
    }
    None
}

/// Reads a length-prefixed slice from the front of `buf`, returning the
/// slice and total bytes consumed.
#[inline]
pub fn get_length_prefixed(buf: &[u8]) -> Option<(&[u8], usize)> {
    let (len, n) = get_varint_u64(buf)?;
    let len = usize::try_from(len).ok()?;
    let end = n.checked_add(len)?;
    if end > buf.len() {
        return None;
    }
    Some((&buf[n..end], end))
}

/// Reads a little-endian fixed `u64` at `offset`.
#[inline]
pub fn get_fixed_u64(buf: &[u8], offset: usize) -> Option<u64> {
    let bytes = buf.get(offset..offset + 8)?;
    Some(u64::from_le_bytes([
        bytes[0], bytes[1], bytes[2], bytes[3], bytes[4], bytes[5], bytes[6], bytes[7],
    ]))
}
