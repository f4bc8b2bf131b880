//! Write-ahead log encoding and recovery scan.
//!
//! Record layout (all integers little-endian):
//!
//! ```text
//! [crc32: u32][klen: u32][vlen: u32][key: klen bytes][value: vlen bytes]
//! ```
//!
//! `vlen == TOMBSTONE` marks a deletion (no value bytes follow). The CRC
//! covers everything after itself. A record that fails its CRC or runs
//! past end-of-file is treated as a torn tail: recovery keeps the valid
//! prefix and truncates the rest, which is the crash-consistency contract
//! the paper needs ("changes ... are synchronously written to the storage
//! in order to survive power failures").
//!
//! Two walks decode a log. The store recovers with a crate-private
//! stream that reads the log through a fixed 64 KiB window and keeps only
//! the current key; `Walk` and [`scan`] decode a whole in-memory image
//! and are the reference that stream is tested against.

use crate::codec::{crc32, crc32_update, get_u32, put_u32};
use crate::error::{Error, Result};
use std::io::{self, Read};

/// Sentinel `vlen` marking a delete record.
pub(crate) const TOMBSTONE: u32 = u32::MAX;

/// Fixed header size: crc + klen + vlen.
pub(crate) const HEADER: usize = 12;

/// One decoded log record, copied out of the log image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Byte offset of the record header in the log.
    pub offset: u64,
    /// The key.
    pub key: Vec<u8>,
    /// The value, or `None` for a tombstone.
    pub value: Option<Vec<u8>>,
}

/// Encode a put record.
pub(crate) fn encode_put(key: &[u8], value: &[u8]) -> Result<Vec<u8>> {
    if key.len() >= u32::MAX as usize || value.len() >= u32::MAX as usize {
        return Err(Error::TooLarge);
    }
    encode(key, Some(value))
}

/// Encode a delete record.
pub(crate) fn encode_delete(key: &[u8]) -> Result<Vec<u8>> {
    if key.len() >= u32::MAX as usize {
        return Err(Error::TooLarge);
    }
    encode(key, None)
}

fn encode(key: &[u8], value: Option<&[u8]>) -> Result<Vec<u8>> {
    let vlen = value.map_or(TOMBSTONE, |v| v.len() as u32);
    let mut out = Vec::with_capacity(HEADER + key.len() + value.map_or(0, <[u8]>::len));
    put_u32(&mut out, 0);
    put_u32(&mut out, key.len() as u32);
    put_u32(&mut out, vlen);
    out.extend_from_slice(key);
    if let Some(v) = value {
        out.extend_from_slice(v);
    }
    let crc = crc32(&out[4..]);
    out[..4].copy_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// Size of the read window a [`Stream`] walks a log through. Window `k`
/// holds log bytes `[k * WINDOW, (k + 1) * WINDOW)`.
pub(crate) const WINDOW: usize = 64 << 10;

/// A record met by a [`Stream`]: its key, with its value only measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecordMeta<'a> {
    /// Byte offset of the record header in the log.
    pub(crate) offset: u64,
    /// The key, valid until the next record is read.
    pub(crate) key: &'a [u8],
    /// The value's length, or `None` for a tombstone.
    pub(crate) value_len: Option<u32>,
}

impl RecordMeta<'_> {
    /// Byte offset where this record's value bytes start (meaningful only
    /// for puts).
    pub(crate) fn value_offset(&self) -> u64 {
        self.offset + HEADER as u64 + self.key.len() as u64
    }
}

/// Log bytes read in order through one fixed window.
struct Window<R> {
    src: R,
    /// Bytes of `src` not yet read into the window.
    unread: u64,
    buf: Box<[u8]>,
    filled: usize,
    at: usize,
}

impl<R: Read> Window<R> {
    /// Pass the next `n` bytes to `f`, in pieces split at window edges.
    /// The caller has checked that `n` bytes remain.
    fn take(&mut self, mut n: u64, mut f: impl FnMut(&[u8])) -> io::Result<()> {
        while n > 0 {
            if self.at == self.filled {
                let k = self.unread.min(self.buf.len() as u64) as usize;
                if k == 0 {
                    return Err(io::ErrorKind::UnexpectedEof.into());
                }
                self.src.read_exact(&mut self.buf[..k])?;
                self.unread -= k as u64;
                (self.filled, self.at) = (k, 0);
            }
            let k = ((self.filled - self.at) as u64).min(n) as usize;
            f(&self.buf[self.at..self.at + k]);
            self.at += k;
            n -= k as u64;
        }
        Ok(())
    }
}

/// The valid records of a log read from a source, in log order. It reads
/// through one [`WINDOW`]-sized buffer and keeps only the current key:
/// each header is checked against the log length before anything is read
/// or allocated for the record, and the CRC runs over the key and value as
/// they stream past. Memory is the window plus the longest key, whatever
/// the log's length. Like [`Walk`], it stops at the end of the log or at
/// the first record that fails its CRC or runs past the end.
pub(crate) struct Stream<R> {
    window: Window<R>,
    len: u64,
    pos: u64,
    torn: bool,
    key: Vec<u8>,
}

impl<R: Read> Stream<R> {
    /// Walk the `len`-byte log that `src` reads out from its first record.
    pub(crate) fn new(src: R, len: u64) -> Self {
        let buf = vec![0; len.min(WINDOW as u64) as usize].into_boxed_slice();
        let window = Window { src, unread: len, buf, filled: 0, at: 0 };
        Stream { window, len, pos: 0, torn: false, key: Vec::new() }
    }

    /// Length of the valid prefix walked so far; once the walk is done,
    /// bytes past this are a torn tail.
    pub(crate) fn valid_len(&self) -> u64 {
        self.pos
    }

    /// True once the walk has stopped at a torn tail (which should be
    /// truncated).
    pub(crate) fn torn(&self) -> bool {
        self.torn
    }

    /// The next valid record, or `None` at the end of the log or at a torn
    /// tail. Errors only if the source fails to read.
    pub(crate) fn next_record(&mut self) -> io::Result<Option<RecordMeta<'_>>> {
        let left = self.len - self.pos;
        if self.torn || left == 0 {
            return Ok(None);
        }
        if left < HEADER as u64 {
            self.torn = true;
            return Ok(None);
        }
        let mut header = [0u8; HEADER];
        let mut filled = 0;
        self.window.take(HEADER as u64, |b| {
            header[filled..filled + b.len()].copy_from_slice(b);
            filled += b.len();
        })?;
        let word = |i: usize| u32::from_le_bytes(header[i..i + 4].try_into().expect("4 bytes"));
        let (stored_crc, klen, vlen_raw) = (word(0), word(4), word(8));
        let vlen = if vlen_raw == TOMBSTONE { 0 } else { vlen_raw };
        let body = HEADER as u64 + u64::from(klen) + u64::from(vlen);
        if body > left {
            self.torn = true;
            return Ok(None);
        }
        let mut crc = crc32(&header[4..]);
        let key = &mut self.key;
        key.clear();
        self.window.take(u64::from(klen), |b| {
            crc = crc32_update(crc, b);
            key.extend_from_slice(b);
        })?;
        self.window.take(u64::from(vlen), |b| crc = crc32_update(crc, b))?;
        if crc != stored_crc {
            self.torn = true;
            return Ok(None);
        }
        let offset = self.pos;
        self.pos += body;
        let value_len = (vlen_raw != TOMBSTONE).then_some(vlen_raw);
        Ok(Some(RecordMeta { offset, key: &self.key, value_len }))
    }
}

/// One record borrowed from a log image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecordRef<'a> {
    /// Byte offset of the record header in the log.
    pub offset: u64,
    /// The key.
    pub key: &'a [u8],
    /// The value, or `None` for a tombstone.
    pub value: Option<&'a [u8]>,
}

/// The valid records of a log image in log order, borrowed from it. The
/// walk stops at the end of the image or at the first record that fails
/// its CRC or runs past the end, which is the torn tail.
#[derive(Debug)]
pub(crate) struct Walk<'a> {
    buf: &'a [u8],
    pos: usize,
    torn: bool,
}

impl<'a> Walk<'a> {
    /// Walk `buf` from its first record.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Walk { buf, pos: 0, torn: false }
    }

    /// Length of the valid prefix walked so far; once the walk is done,
    /// bytes past this are a torn tail.
    pub(crate) fn valid_len(&self) -> u64 {
        self.pos as u64
    }

    /// True once the walk has stopped at a torn tail (which should be
    /// truncated).
    pub(crate) fn torn(&self) -> bool {
        self.torn
    }

    /// Decode the record at the current position and return it with the
    /// next record's offset, if it is valid.
    fn decode(&self) -> Option<(RecordRef<'a>, usize)> {
        let (buf, pos) = (self.buf, self.pos);
        let stored_crc = get_u32(buf, pos)?;
        let klen = get_u32(buf, pos + 4)? as usize;
        let vlen_raw = get_u32(buf, pos + 8)?;
        let vlen = if vlen_raw == TOMBSTONE { 0 } else { vlen_raw as usize };
        let body_end = pos.checked_add(HEADER)?.checked_add(klen)?.checked_add(vlen)?;
        if body_end > buf.len() || crc32(&buf[pos + 4..body_end]) != stored_crc {
            return None;
        }
        let key_end = pos + HEADER + klen;
        let value = (vlen_raw != TOMBSTONE).then(|| &buf[key_end..body_end]);
        Some((RecordRef { offset: pos as u64, key: &buf[pos + HEADER..key_end], value }, body_end))
    }
}

impl<'a> Iterator for Walk<'a> {
    type Item = RecordRef<'a>;

    fn next(&mut self) -> Option<RecordRef<'a>> {
        if self.torn || self.pos == self.buf.len() {
            return None;
        }
        let Some((rec, end)) = self.decode() else {
            self.torn = true;
            return None;
        };
        self.pos = end;
        Some(rec)
    }
}

/// Outcome of scanning a log image.
#[derive(Debug)]
pub struct ScanResult {
    /// Valid records in log order.
    pub records: Vec<WalRecord>,
    /// Length of the valid prefix; bytes past this are a torn tail.
    pub valid_len: u64,
    /// True if a torn tail was detected (and should be truncated).
    pub torn: bool,
}

/// Scan a full log image, stopping at the first invalid record: a
/// `Walk` with every record copied out.
pub fn scan(buf: &[u8]) -> ScanResult {
    let mut walk = Walk::new(buf);
    let records = walk.by_ref().map(WalRecord::from).collect();
    ScanResult { records, valid_len: walk.valid_len(), torn: walk.torn() }
}

impl From<RecordRef<'_>> for WalRecord {
    fn from(r: RecordRef<'_>) -> Self {
        WalRecord { offset: r.offset, key: r.key.to_vec(), value: r.value.map(<[u8]>::to_vec) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_round_trip() {
        let rec = encode_put(b"key", b"value").unwrap();
        let s = scan(&rec);
        assert!(!s.torn);
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.records[0].key, b"key");
        assert_eq!(s.records[0].value.as_deref(), Some(&b"value"[..]));
        assert_eq!(s.valid_len, rec.len() as u64);
    }

    #[test]
    fn delete_round_trip() {
        let rec = encode_delete(b"gone").unwrap();
        let s = scan(&rec);
        assert_eq!(s.records[0].value, None);
    }

    #[test]
    fn empty_key_and_value_are_legal() {
        let rec = encode_put(b"", b"").unwrap();
        let s = scan(&rec);
        assert_eq!(s.records.len(), 1);
        assert_eq!(s.records[0].key, b"");
        assert_eq!(s.records[0].value.as_deref(), Some(&b""[..]));
    }

    #[test]
    fn torn_tail_is_detected_at_every_cut_point() {
        let mut log = encode_put(b"a", b"1").unwrap();
        log.extend(encode_put(b"b", b"22").unwrap());
        let first_len = encode_put(b"a", b"1").unwrap().len();
        for cut in 0..log.len() {
            let s = scan(&log[..cut]);
            if cut < first_len {
                assert_eq!(s.records.len(), 0, "cut={cut}");
                assert_eq!(s.valid_len, 0);
            } else if cut < log.len() {
                assert_eq!(s.records.len(), 1, "cut={cut}");
                assert_eq!(s.valid_len, first_len as u64);
                assert!(s.torn || cut == first_len, "cut={cut}");
            }
        }
        let full = scan(&log);
        assert_eq!(full.records.len(), 2);
        assert!(!full.torn);
    }

    #[test]
    fn bit_flip_invalidates_record() {
        let mut log = encode_put(b"k", b"v").unwrap();
        let last = log.len() - 1;
        log[last] ^= 0x01;
        let s = scan(&log);
        assert_eq!(s.records.len(), 0);
        assert!(s.torn);
    }

    #[test]
    fn value_offset_points_at_value_bytes() {
        let mut log = encode_put(b"head", b"x").unwrap();
        log.extend(encode_put(b"kk", b"PAYLOAD").unwrap());
        let mut stream = Stream::new(&log[..], log.len() as u64);
        stream.next_record().unwrap();
        let r = stream.next_record().unwrap().unwrap();
        let vo = r.value_offset() as usize;
        assert_eq!(&log[vo..vo + 7], b"PAYLOAD");
        assert_eq!(r.value_len, Some(7));
    }

    /// splitmix64: a deterministic case generator for the seeded loops.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        fn bytes(&mut self, max_len: usize) -> Vec<u8> {
            (0..self.below(max_len + 1)).map(|_| self.below(256) as u8).collect()
        }
    }

    /// A record as recovery sees it: offset, key, value offset, value length.
    type Meta = (u64, Vec<u8>, u64, Option<u32>);

    /// Stream `image` and return what it recovered, with `valid_len` and
    /// `torn`.
    fn streamed(image: &[u8]) -> (Vec<Meta>, u64, bool) {
        let mut stream = Stream::new(image, image.len() as u64);
        let mut out = Vec::new();
        while let Some(r) = stream.next_record().unwrap() {
            out.push((r.offset, r.key.to_vec(), r.value_offset(), r.value_len));
        }
        assert_eq!(stream.next_record().unwrap(), None, "a finished stream stays finished");
        (out, stream.valid_len(), stream.torn())
    }

    /// The same view of `image` from the in-memory oracle.
    fn scanned(image: &[u8]) -> (Vec<Meta>, u64, bool) {
        let s = scan(image);
        let metas = s
            .records
            .into_iter()
            .map(|r| {
                let value_offset = r.offset + (HEADER + r.key.len()) as u64;
                (r.offset, r.key, value_offset, r.value.map(|v| v.len() as u32))
            })
            .collect();
        (metas, s.valid_len, s.torn)
    }

    #[test]
    fn walk_and_scan_agree_on_random_cut_logs() {
        for seed in 0..500u64 {
            let mut rng = Rng(seed);
            let (mut log, mut ends, mut written) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..rng.below(12) {
                let key = rng.bytes(6);
                let value = (rng.below(4) != 0).then(|| rng.bytes(40));
                let rec = match &value {
                    Some(v) => encode_put(&key, v),
                    None => encode_delete(&key),
                };
                written.push(WalRecord { offset: log.len() as u64, key, value });
                log.extend(rec.unwrap());
                ends.push(log.len());
            }
            let cut = rng.below(log.len() + 1);
            let mut image = log[..cut].to_vec();
            let mut whole = ends.iter().take_while(|&&e| e <= cut).count();
            // Every other case also flips one byte, which invalidates the
            // record holding it and everything after.
            if seed % 2 == 1 && cut > 0 {
                let at = rng.below(cut);
                image[at] ^= 1 << rng.below(8);
                whole = whole.min(ends.iter().take_while(|&&e| e <= at).count());
            }
            let valid_len = if whole == 0 { 0 } else { ends[whole - 1] as u64 };

            let s = scan(&image);
            let mut walk = Walk::new(&image);
            let walked: Vec<WalRecord> = walk.by_ref().map(WalRecord::from).collect();
            assert_eq!(walked, s.records, "seed {seed}");
            assert_eq!((walk.valid_len(), walk.torn()), (s.valid_len, s.torn), "seed {seed}");
            assert_eq!(s.records, written[..whole], "seed {seed} cut {cut}");
            assert_eq!(s.valid_len, valid_len, "seed {seed} cut {cut}");
            assert_eq!(s.torn, valid_len != image.len() as u64, "seed {seed} cut {cut}");
            assert_eq!(walk.next(), None, "a finished walk stays finished");
            assert_eq!(streamed(&image), scanned(&image), "seed {seed} cut {cut}");
        }
    }

    #[test]
    fn stream_and_scan_agree_across_window_edges() {
        // How far before a window edge the record crossing it starts,
        // cycled over every split of its header and of the start of its key.
        let mut straddle = (0..HEADER + 8).cycle();
        for seed in 0..16u64 {
            let mut rng = Rng(seed);
            let (mut log, mut ends) = (Vec::new(), Vec::new());
            let mut edge = WINDOW;
            // Small, page-sized and larger-than-a-window values, with
            // tombstones, until the log spans at least three windows.
            while log.len() < 3 * WINDOW + WINDOW / 2 {
                let key = rng.bytes(24);
                let rec = match rng.below(6) {
                    0 => encode_delete(&key),
                    1 => encode_put(&key, &vec![rng.below(256) as u8; WINDOW + rng.below(WINDOW)]),
                    2 => encode_put(&key, &rng.bytes(8 << 10)),
                    _ => encode_put(&key, &rng.bytes(40)),
                }
                .unwrap();
                let room = edge - log.len();
                if rec.len() > room && room >= HEADER + HEADER + 8 {
                    let filler = room - straddle.next().unwrap() - HEADER;
                    log.extend(encode_put(b"", &vec![0xF1; filler]).unwrap());
                    ends.push(log.len());
                }
                log.extend(rec);
                ends.push(log.len());
                while edge <= log.len() {
                    edge += WINDOW;
                }
            }
            let whole_before = |at: usize| ends.iter().take_while(|&&e| e <= at).count();
            let valid_before = |at: usize| match whole_before(at) {
                0 => 0,
                n => ends[n - 1] as u64,
            };
            let (all, all_len, all_torn) = streamed(&log);
            assert_eq!((all.len(), all_len, all_torn), (ends.len(), log.len() as u64, false));
            for edge in (1..=log.len() / WINDOW).map(|k| k * WINDOW) {
                for at in edge - 16..=(edge + 16).min(log.len()) {
                    let cut = &log[..at];
                    let got = streamed(cut);
                    assert_eq!(got, scanned(cut), "seed {seed} cut {at}");
                    assert_eq!(got.0[..], all[..whole_before(at)], "seed {seed} cut {at}");
                    assert_eq!(got.1, valid_before(at), "seed {seed} cut {at}");
                }
                for at in edge - 16..(edge + 16).min(log.len()) {
                    let mut image = log.clone();
                    image[at] ^= 1 << rng.below(8);
                    let got = streamed(&image);
                    assert_eq!(got, scanned(&image), "seed {seed} flip {at}");
                    assert_eq!(got.0[..], all[..whole_before(at)], "seed {seed} flip {at}");
                    assert!(got.2, "seed {seed} flip {at}");
                }
            }
        }
    }

    #[test]
    fn huge_declared_length_is_torn_not_panic() {
        // Header claiming a 4 GB value on a short buffer must not overflow.
        let mut buf = Vec::new();
        put_u32(&mut buf, 0); // bogus crc
        put_u32(&mut buf, 10);
        put_u32(&mut buf, u32::MAX - 1);
        buf.extend_from_slice(&[0u8; 32]);
        let s = scan(&buf);
        assert_eq!(s.records.len(), 0);
        assert!(s.torn);
        assert_eq!(streamed(&buf), (Vec::new(), 0, true));
    }
}
