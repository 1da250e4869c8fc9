//! The one little-endian byte codec shared by every on-disk format: DXTS
//! v2 snapshot pages ([`crate::backend::paged`]), write-ahead log frames
//! and checkpoints ([`crate::wal`]). Writers append fixed-width integers
//! and `u32`-length-prefixed UTF-8 strings to a `Vec<u8>`; [`Reader`]
//! reads them back with every access bounds-checked, so a truncated or
//! forged length surfaces as an error, never a panic. [`checksum`] is
//! the single integrity hash all three formats store.

/// Appends `v` as 4 little-endian bytes.
pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as 8 little-endian bytes.
pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `s` as a `u32` LE byte length followed by its UTF-8 bytes.
pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// FNV-1a over `parts` in order, finished with splitmix64 — cheap,
/// stable, and plenty to catch corruption (integrity, not
/// authentication).
pub(crate) fn checksum_parts(parts: &[&[u8]]) -> u64 {
    let mut h = dogmatix_textsim::Fnv1a::new();
    for part in parts {
        h.update(part);
    }
    dogmatix_textsim::mix64(h.finish())
}

/// [`checksum_parts`] over one contiguous buffer.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    checksum_parts(&[bytes])
}

/// A bounds-checked little-endian cursor over a byte slice. Errors are
/// plain strings naming what was being read (`"<what> truncated"`);
/// callers wrap them into their own structured error kind.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    /// A reader over `buf`; `what` names the structure in errors.
    pub(crate) fn new(buf: &'a [u8], what: &'static str) -> Reader<'a> {
        Reader { buf, pos: 0, what }
    }

    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been consumed.
    pub(crate) fn is_done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The next `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| format!("{} truncated", self.what))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.array::<1>()?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        self.array().map(u32::from_le_bytes)
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `u64` that must fit the host `usize` (an index or a count).
    pub(crate) fn usize(&mut self) -> Result<usize, String> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| format!("{} value {v} exceeds usize", self.what))
    }

    /// A string written by [`put_str`].
    pub(crate) fn str(&mut self) -> Result<String, String> {
        let n = self.u32()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| format!("{} string is not UTF-8", self.what))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writers_and_reader_round_trip_and_reject_short_input() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_str(&mut buf, "héllo");
        buf.push(7);
        let mut r = Reader::new(&buf, "record");
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.is_done());
        assert_eq!(r.u8().unwrap_err(), "record truncated");

        // A forged string length past the buffer is an error, not a
        // slice panic; neither is an offset overflow.
        let mut forged = Vec::new();
        put_u32(&mut forged, u32::MAX);
        assert_eq!(
            Reader::new(&forged, "record").str().unwrap_err(),
            "record truncated"
        );
        let mut r = Reader::new(&forged, "record");
        r.take(1).unwrap();
        assert!(r.take(usize::MAX).is_err());
        assert_eq!(checksum(b"ab"), checksum_parts(&[b"a", b"b"]));
    }
}
