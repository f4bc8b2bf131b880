//! Line-oriented trace interchange (tab-separated), mirroring the trace
//! files IOSIG writes.
//!
//! Format, one record per line:
//! `pid<TAB>rank<TAB>file<TAB>op<TAB>offset<TAB>len<TAB>ts_ns<TAB>phase`
//! Lines starting with `#` are comments. `pid`, `rank`, `file` and
//! `phase` are `u32`, `offset`, `len` and `ts_ns` are `u64`; a value out
//! of its type's range is a parse error, never a wrapped number.
//!
//! Both directions work on bytes. [`to_tsv`] writes lines straight into
//! a 16 KiB stack block and appends each filled block to the output.
//! It writes integers two digits at a time from a digit-pair table, and
//! splits off eight-digit groups so the rest is `u32` arithmetic. [`from_tsv`]
//! makes one forward pass straight into the trace's run-encoded store,
//! sizing its tables from the share of the text already read: a line in
//! the plain form
//! the encoder writes (ASCII digits, tabs and `read`/`write`) is cut into
//! fields and its digits parsed in place. Any other line goes through the
//! `str` path — `trim`, a split on tabs, std's integer parsers — which
//! decides blank and comment lines, `str::trim`'s Unicode whitespace and
//! every error message.

use crate::batch::{Builder, Pace};
use crate::error::TraceError;
use crate::record::{FileId, Rank, TraceRecord};
use crate::trace::Trace;
use simrt::SimTime;
use std::num::ParseIntError;
use storage_model::IoOp;

const HEADER: &str = "# pid\trank\tfile\top\toffset\tlen\tts_ns\tphase\n";

/// Bytes `2k` and `2k + 1` are the two decimal digits of `k < 100`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut k = 0;
    while k < 100 {
        t[2 * k] = b'0' + (k / 10) as u8;
        t[2 * k + 1] = b'0' + (k % 10) as u8;
        k += 1;
    }
    t
};

/// The longest record line: seven 20-digit integers, `write`, eight
/// separators.
const LINE_MAX: usize = 7 * 20 + 5 + 8;

/// Bytes [`to_tsv`] encodes on the stack between appends to its output.
const BLOCK: usize = 16 << 10;

/// Serialize a trace to TSV.
pub fn to_tsv(trace: &Trace) -> String {
    let mut out = String::with_capacity(trace.len() * 48 + 64);
    out.push_str(HEADER);
    let mut block = [0u8; BLOCK];
    let mut n = 0;
    for r in trace.records() {
        if n + LINE_MAX > BLOCK {
            out.push_str(ascii(&block[..n]));
            n = 0;
        }
        n = put_line(&mut block, n, &r);
    }
    out.push_str(ascii(&block[..n]));
    out
}

/// An encoded block as text, checked while it is still in cache.
fn ascii(block: &[u8]) -> &str {
    std::str::from_utf8(block).expect("the encoder writes only ASCII")
}

/// Write `r`'s line at `buf[at..]`; returns the index past its newline.
fn put_line(buf: &mut [u8], at: usize, r: &TraceRecord) -> usize {
    let mut n = put_decimal(buf, at, r.pid.into(), b'\t');
    n = put_decimal(buf, n, r.rank.0.into(), b'\t');
    n = put_decimal(buf, n, r.file.0.into(), b'\t');
    let op = r.op.name().as_bytes();
    buf[n..n + op.len()].copy_from_slice(op);
    buf[n + op.len()] = b'\t';
    n = put_decimal(buf, n + op.len() + 1, r.offset, b'\t');
    n = put_decimal(buf, n, r.len, b'\t');
    n = put_decimal(buf, n, r.ts.as_nanos(), b'\t');
    put_decimal(buf, n, r.phase.into(), b'\n')
}

/// Write `v` in decimal and then `sep` at `buf[at..]`; returns the index
/// past `sep`. Digits go right to left: eight at a time while `v` has
/// more than eight (one `u64` division, then four independent `u32`
/// pairs), then two at a time.
#[inline(always)]
fn put_decimal(buf: &mut [u8], at: usize, v: u64, sep: u8) -> usize {
    let mut i = at + v.checked_ilog10().map_or(1, |d| d as usize + 1);
    buf[i] = sep;
    let end = i + 1;
    let mut v = v;
    while v >= 100_000_000 {
        let low = (v % 100_000_000) as u32;
        v /= 100_000_000;
        i -= 8;
        let (hi4, lo4) = (low / 10_000, low % 10_000);
        put_pair(buf, i, hi4 / 100);
        put_pair(buf, i + 2, hi4 % 100);
        put_pair(buf, i + 4, lo4 / 100);
        put_pair(buf, i + 6, lo4 % 100);
    }
    let mut v = v as u32;
    while v >= 100 {
        i -= 2;
        put_pair(buf, i, v % 100);
        v /= 100;
    }
    if v >= 10 {
        put_pair(buf, i - 2, v);
    } else {
        buf[i - 1] = b'0' + v as u8;
    }
    end
}

/// Write the two digits of `k < 100` at `buf[i..i + 2]`.
#[inline(always)]
fn put_pair(buf: &mut [u8], i: usize, k: u32) {
    let k = k as usize * 2;
    buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[k..k + 2]);
}

/// Parse a trace from TSV and [validate](Trace::validate) it: malformed
/// lines report [`TraceError::Parse`] with the 1-based line number, and a
/// trace that parses but violates a schema invariant (zero-length request,
/// out-of-range rank, out-of-order timestamps, …) reports
/// [`TraceError::InvalidRecord`].
///
/// One forward pass over the bytes: plain lines parse in place, all
/// others take the `str` path (see the module docs). Each record goes
/// straight into the trace's run-encoded store, whose tables grow to the
/// size the text read so far extrapolates to (plus a sixteenth), so a
/// parse sizes them about once and never copies them down at the end.
pub fn from_tsv(text: &str) -> Result<Trace, TraceError> {
    let bytes = text.as_bytes();
    let total = bytes.len();
    let mut store = Builder::with_pace(Pace::Input { done: 0, total });
    let (mut pos, mut lineno) = (0, 0);
    while pos < total {
        lineno += 1;
        let start = pos;
        let record = match plain_record(bytes, pos) {
            Some((record, next)) => {
                pos = next;
                Some(record)
            }
            None => {
                let end = bytes[pos..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(total, |n| pos + n);
                pos = end + 1;
                parse_line(&text[start..end], lineno)?
            }
        };
        if let Some(record) = record {
            store.set_pace(Pace::Input { done: pos.min(total), total });
            store.push(&record);
        }
    }
    let trace = Trace::from_store(store.finish(false));
    trace.validate()?;
    Ok(trace)
}

/// Parse the line at `b[i..]` if it has the plain form the encoder
/// writes: eight tab-separated fields, each 1 to 19 ASCII digits except
/// the fourth, `read` or `write`, ended by `\n`, `\r\n` or the end of the
/// text. Returns the record and the index past the line end. `None` sends
/// the line to [`parse_line`], so a value that does not fit its field's
/// type comes back as `None` too.
fn plain_record(b: &[u8], mut i: usize) -> Option<(TraceRecord, usize)> {
    let pid = u32::try_from(tab_field(b, &mut i)?).ok()?;
    let rank = u32::try_from(tab_field(b, &mut i)?).ok()?;
    let file = u32::try_from(tab_field(b, &mut i)?).ok()?;
    let op = if b[i..].starts_with(b"write\t") {
        i += 6;
        IoOp::Write
    } else if b[i..].starts_with(b"read\t") {
        i += 5;
        IoOp::Read
    } else {
        return None;
    };
    let offset = tab_field(b, &mut i)?;
    let len = tab_field(b, &mut i)?;
    let ts = tab_field(b, &mut i)?;
    let phase = u32::try_from(digits(b, &mut i)?).ok()?;
    let next = match &b[i..] {
        [] => i,
        [b'\n', ..] => i + 1,
        [b'\r', b'\n', ..] => i + 2,
        _ => return None,
    };
    let record = TraceRecord {
        pid,
        rank: Rank(rank),
        file: FileId(file),
        op,
        offset,
        len,
        ts: SimTime::from_nanos(ts),
        phase,
    };
    Some((record, next))
}

/// [`digits`] followed by a tab, which is consumed too.
fn tab_field(b: &[u8], i: &mut usize) -> Option<u64> {
    let v = digits(b, i)?;
    if b.get(*i) != Some(&b'\t') {
        return None;
    }
    *i += 1;
    Some(v)
}

/// The run of ASCII digits at `b[*i..]`, advancing `*i` past it. `None`
/// for an empty run or one longer than 19 digits, the most that always
/// fit a `u64`.
fn digits(b: &[u8], i: &mut usize) -> Option<u64> {
    let start = *i;
    let mut v = 0u64;
    while let Some(d) = b.get(*i).map(|c| c.wrapping_sub(b'0')).filter(|&d| d <= 9) {
        v = v.wrapping_mul(10).wrapping_add(u64::from(d));
        *i += 1;
    }
    (1..=19).contains(&(*i - start)).then_some(v)
}

/// The `str` path for one line (without its `\n`): `None` for a blank or
/// comment line, else the record or the line's parse error.
fn parse_line(line: &str, lineno: usize) -> Result<Option<TraceRecord>, TraceError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let fields: Vec<&str> = line.split('\t').collect();
    let fields: [&str; 8] = fields
        .try_into()
        .map_err(|f: Vec<&str>| TraceError::Parse {
            line: lineno,
            message: format!("expected 8 fields, found {}", f.len()),
        })?;
    let bad = |what: &str, s: &str, e: ParseIntError| TraceError::Parse {
        line: lineno,
        message: format!("bad {what} '{s}': {e}"),
    };
    let wide = |i: usize, what: &str| {
        fields[i]
            .parse::<u64>()
            .map_err(|e| bad(what, fields[i], e))
    };
    let narrow = |i: usize, what: &str| {
        fields[i]
            .parse::<u32>()
            .map_err(|e| bad(what, fields[i], e))
    };
    let op = match fields[3] {
        "read" => IoOp::Read,
        "write" => IoOp::Write,
        other => {
            return Err(TraceError::Parse {
                line: lineno,
                message: format!("bad op '{other}' (expected read/write)"),
            })
        }
    };
    Ok(Some(TraceRecord {
        pid: narrow(0, "pid")?,
        rank: Rank(narrow(1, "rank")?),
        file: FileId(narrow(2, "file")?),
        op,
        offset: wide(4, "offset")?,
        len: wide(5, "len")?,
        ts: SimTime::from_nanos(wide(6, "ts")?),
        phase: narrow(7, "phase")?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::from_records(vec![
            TraceRecord {
                pid: 11,
                rank: Rank(0),
                file: FileId(0),
                op: IoOp::Write,
                offset: 0,
                len: 16,
                ts: SimTime::from_nanos(100),
                phase: 0,
            },
            TraceRecord {
                pid: 12,
                rank: Rank(1),
                file: FileId(0),
                op: IoOp::Read,
                offset: 16,
                len: 131_056,
                ts: SimTime::from_nanos(200),
                phase: 1,
            },
        ])
    }

    #[test]
    fn tsv_round_trip() {
        let t = sample();
        let text = to_tsv(&t);
        let back = from_tsv(&text).unwrap();
        assert_eq!(back.records(), t.records());
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# header\n\n11\t0\t0\twrite\t0\t16\t100\t0\n";
        let t = from_tsv(text).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn bad_field_count_reports_line() {
        let err = from_tsv("1\t2\t3\n").unwrap_err();
        assert!(
            matches!(&err, TraceError::Parse { line: 1, message } if message.contains("8 fields")),
            "{err}"
        );
    }

    #[test]
    fn bad_op_rejected() {
        let err = from_tsv("1\t0\t0\tappend\t0\t16\t0\t0\n").unwrap_err();
        assert!(
            matches!(&err, TraceError::Parse { message, .. } if message.contains("bad op")),
            "{err}"
        );
    }

    #[test]
    fn bad_number_rejected() {
        let err = from_tsv("x\t0\t0\tread\t0\t16\t0\t0\n").unwrap_err();
        assert!(
            matches!(&err, TraceError::Parse { message, .. } if message.contains("bad pid")),
            "{err}"
        );
    }

    #[test]
    fn negative_size_rejected_at_parse() {
        // A negative length never parses as u64, so it fails at the
        // parse stage rather than slipping through reinterpreted.
        let err = from_tsv("1\t0\t0\tread\t0\t-16\t0\t0\n").unwrap_err();
        assert!(
            matches!(&err, TraceError::Parse { message, .. } if message.contains("bad len")),
            "{err}"
        );
    }

    #[test]
    fn zero_length_record_rejected_by_validation() {
        let err = from_tsv("1\t0\t0\tread\t0\t0\t0\t0\n").unwrap_err();
        assert!(
            matches!(&err, TraceError::InvalidRecord { index: 0, reason } if reason.contains("zero-length")),
            "{err}"
        );
    }

    #[test]
    fn out_of_order_timestamps_rejected_by_validation() {
        let text = "1\t0\t0\tread\t0\t16\t200\t0\n1\t0\t0\tread\t16\t16\t100\t1\n";
        let err = from_tsv(text).unwrap_err();
        assert!(
            matches!(&err, TraceError::InvalidRecord { index: 1, reason } if reason.contains("issue order")),
            "{err}"
        );
    }

    #[test]
    fn out_of_range_rank_rejected_by_validation() {
        let text = format!("1\t{}\t0\tread\t0\t16\t0\t0\n", crate::trace::MAX_RANK);
        let err = from_tsv(&text).unwrap_err();
        assert!(
            matches!(&err, TraceError::InvalidRecord { reason, .. } if reason.contains("rank")),
            "{err}"
        );
    }

    /// The pre-streaming parser, kept verbatim as the oracle the
    /// streaming parser is property-tested against.
    fn from_tsv_oracle(text: &str) -> Result<Trace, TraceError> {
        let mut records = Vec::new();
        for (idx, line) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split('\t').collect();
            if fields.len() != 8 {
                return Err(TraceError::Parse {
                    line: lineno,
                    message: format!("expected 8 fields, found {}", fields.len()),
                });
            }
            let num = |s: &str, what: &str| -> Result<u64, TraceError> {
                s.parse::<u64>().map_err(|e| TraceError::Parse {
                    line: lineno,
                    message: format!("bad {what} '{s}': {e}"),
                })
            };
            let op = match fields[3] {
                "read" => IoOp::Read,
                "write" => IoOp::Write,
                other => {
                    return Err(TraceError::Parse {
                        line: lineno,
                        message: format!("bad op '{other}' (expected read/write)"),
                    })
                }
            };
            records.push(TraceRecord {
                pid: num(fields[0], "pid")? as u32,
                rank: Rank(num(fields[1], "rank")? as u32),
                file: FileId(num(fields[2], "file")? as u32),
                op,
                offset: num(fields[4], "offset")?,
                len: num(fields[5], "len")?,
                ts: SimTime::from_nanos(num(fields[6], "ts")?),
                phase: num(fields[7], "phase")? as u32,
            });
        }
        let trace = Trace::from_records(records);
        trace.validate()?;
        Ok(trace)
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_trace(s: &mut u64, n: usize) -> Trace {
        let mut ts = 0u64;
        let recs = (0..n)
            .map(|i| {
                ts += xorshift(s) % 1000;
                TraceRecord {
                    pid: (xorshift(s) % 10_000) as u32,
                    rank: Rank((xorshift(s) % 1024) as u32),
                    file: FileId((xorshift(s) % 16) as u32),
                    op: if xorshift(s).is_multiple_of(2) { IoOp::Read } else { IoOp::Write },
                    offset: xorshift(s) % (1 << 40),
                    len: 1 + xorshift(s) % (1 << 20),
                    ts: SimTime::from_nanos(ts),
                    phase: (i / 4) as u32,
                }
            })
            .collect();
        Trace::from_records(recs)
    }

    #[test]
    fn streaming_parser_round_trips_randomized_traces() {
        let mut s = 0xDEAD_BEEF_0BAD_F00Du64;
        for trial in 0..50 {
            let n = 1 + (xorshift(&mut s) % 200) as usize;
            let t = random_trace(&mut s, n);
            let text = to_tsv(&t);
            let new = from_tsv(&text).unwrap();
            let old = from_tsv_oracle(&text).unwrap();
            assert_eq!(new.records(), t.records(), "trial {trial}");
            assert_eq!(new.records(), old.records(), "trial {trial}");
            assert_eq!(to_tsv(&new), text, "trial {trial}: byte-identical round trip");
        }
    }

    #[test]
    fn malformed_lines_report_identical_errors() {
        let mut s = 0x1234_5678_9ABC_DEF0u64;
        for trial in 0..120 {
            let n = 1 + (xorshift(&mut s) % 20) as usize;
            let t = random_trace(&mut s, n);
            let mut lines: Vec<String> = to_tsv(&t).lines().map(String::from).collect();
            // Line 0 is the header comment; corrupt one record line.
            let victim = 1 + (xorshift(&mut s) as usize) % (lines.len() - 1);
            let mode = xorshift(&mut s) % 6;
            lines[victim] = {
                let mut f: Vec<String> =
                    lines[victim].split('\t').map(String::from).collect();
                match mode {
                    0 => lines[victim].replace('\t', " "), // too few fields
                    1 => format!("{}\textra", lines[victim]), // too many fields
                    2 => {
                        f[3] = "append".into(); // bad op
                        f.join("\t")
                    }
                    3 => {
                        f[0] = format!("x{}", f[0]); // non-digit pid
                        f.join("\t")
                    }
                    4 => {
                        // Overflows u64 and exceeds the 19-digit fast
                        // path — must fall back to std's error.
                        f[4] = "99999999999999999999999999".into();
                        f.join("\t")
                    }
                    _ => {
                        f[5] = format!("-{}", f[5]); // negative length
                        f.join("\t")
                    }
                }
            };
            let text = lines.join("\n");
            match (from_tsv(&text), from_tsv_oracle(&text)) {
                (
                    Err(TraceError::Parse { line: la, message: ma }),
                    Err(TraceError::Parse { line: lb, message: mb }),
                ) => {
                    assert_eq!((la, &ma), (lb, &mb), "trial {trial} mode {mode}");
                    assert_eq!(la, victim + 1, "trial {trial}: 1-based line number");
                }
                (a, b) => panic!("parsers disagree on trial {trial} mode {mode}: {a:?} vs {b:?}"),
            }
        }
    }

    /// The `fmt` encoder the byte-level one replaced, kept as the
    /// reference its output must equal byte for byte.
    fn to_tsv_fmt(trace: &Trace) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(trace.len() * 48 + 64);
        out.push_str("# pid\trank\tfile\top\toffset\tlen\tts_ns\tphase\n");
        for r in trace.records() {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                r.pid,
                r.rank.0,
                r.file.0,
                r.op.name(),
                r.offset,
                r.len,
                r.ts.as_nanos(),
                r.phase
            );
        }
        out
    }

    /// 0, 9, 10, 99, 100, …, 10^19, `u32::MAX` and `u64::MAX`, ascending.
    fn digit_edges() -> Vec<u64> {
        let mut edges = vec![0, u64::from(u32::MAX), u64::MAX];
        for k in 1..=19 {
            edges.extend([10u64.pow(k) - 1, 10u64.pow(k)]);
        }
        edges.sort_unstable();
        edges
    }

    /// One record per edge value, with every field set to it (clamped
    /// where the field type or, if `valid`, `validate` demands).
    fn edge_trace(valid: bool) -> Trace {
        use crate::trace::{MAX_RANK, MAX_REQUEST_LEN};
        let narrow = |v: u64| u32::try_from(v).unwrap_or(u32::MAX);
        let recs = digit_edges()
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                let (mut rank, mut offset, mut len) = (narrow(v), v, v);
                if valid {
                    rank = rank.min(MAX_RANK - 1);
                    len = len.clamp(1, MAX_REQUEST_LEN);
                    offset = offset.min(u64::MAX - len);
                }
                TraceRecord {
                    pid: narrow(v),
                    rank: Rank(rank),
                    file: FileId(narrow(v)),
                    op: if i % 2 == 0 { IoOp::Read } else { IoOp::Write },
                    offset,
                    len,
                    ts: SimTime::from_nanos(v),
                    phase: narrow(v),
                }
            })
            .collect();
        Trace::from_records(recs)
    }

    fn generated_traces() -> Vec<(&'static str, Trace)> {
        use crate::gen::{btio, burst, cholesky, hpio, ior, lanl, lu, skewed};
        let (r, w) = (IoOp::Read, IoOp::Write);
        vec![
            ("lanl", lanl::generate(&lanl::LanlConfig::paper(16, w))),
            ("ior", ior::generate(&ior::IorConfig::default_run(r))),
            ("hpio", hpio::generate(&hpio::HpioConfig::paper(16, w))),
            ("btio", btio::generate(&btio::BtioConfig::paper(9, w))),
            ("lu", lu::generate(&lu::LuConfig::default())),
            ("cholesky", cholesky::generate(&Default::default())),
            (
                "skewed",
                skewed::generate(&skewed::SkewedConfig::default_run(r)),
            ),
            (
                "burst",
                burst::generate(&burst::BurstConfig::default_run(w)),
            ),
        ]
    }

    #[test]
    fn encoder_matches_fmt_on_digit_count_edges() {
        for valid in [false, true] {
            let t = edge_trace(valid);
            assert_eq!(to_tsv(&t), to_tsv_fmt(&t), "valid {valid}");
        }
        let t = edge_trace(true);
        assert_eq!(from_tsv(&to_tsv(&t)).unwrap().records(), t.records());
    }

    #[test]
    fn encoder_matches_fmt_and_round_trips_every_generator() {
        for (name, t) in generated_traces() {
            assert!(!t.is_empty(), "{name}");
            let text = to_tsv(&t);
            assert_eq!(text, to_tsv_fmt(&t), "{name}");
            assert_eq!(from_tsv(&text).unwrap().records(), t.records(), "{name}");
        }
    }

    /// Enough records to fill several stack blocks, each field a random
    /// value of random digit count, so the bytes left in a block before
    /// each flush vary line by line: the encoder writes what `fmt` writes.
    #[test]
    fn encoder_matches_fmt_across_block_edges() {
        let mut s = 0x0BAD_5EED_1234_5678u64;
        let any = |s: &mut u64| {
            let shift = xorshift(s) % 64;
            xorshift(s) >> shift
        };
        let recs: Vec<TraceRecord> = (0..4 * BLOCK / 40)
            .map(|i| TraceRecord {
                pid: any(&mut s) as u32,
                rank: Rank(any(&mut s) as u32),
                file: FileId(any(&mut s) as u32),
                op: if i % 3 == 0 { IoOp::Read } else { IoOp::Write },
                offset: any(&mut s),
                len: any(&mut s),
                ts: SimTime::from_nanos(any(&mut s)),
                phase: any(&mut s) as u32,
            })
            .collect();
        let t = Trace::from_records(recs);
        let text = to_tsv(&t);
        assert!(text.len() > 3 * BLOCK, "{} bytes", text.len());
        assert_eq!(text, to_tsv_fmt(&t));
    }

    /// `from_tsv` and the oracle agree on `text`, error or trace.
    fn assert_parses_as_oracle(text: &str) {
        let (new, old) = (from_tsv(text), from_tsv_oracle(text));
        assert_eq!(format!("{new:?}"), format!("{old:?}"), "input {text:?}");
    }

    #[test]
    fn line_endings_and_padding_parse_as_the_oracle_does() {
        let a = "11\t0\t0\twrite\t0\t16\t100\t0";
        let b = "12\t1\t0\tread\t16\t131056\t200\t1";
        let pads = [" ", "\t", "  \t ", "\u{a0}", "\u{2003}", "\r"];
        let mut texts = vec![
            format!("{a}\r\n{b}\r\n"),
            format!("{a}\n{b}"),
            format!("{a}\r\n{b}"),
            format!("{a}\n{b}\r"),
            format!("{a}\r{b}\n"),
            format!("{a}\r\r\n{b}"),
            format!("# c\r\n\r\n{a}\r\n\n{b}\n\n"),
        ];
        for p in pads {
            texts.push(format!("{p}{a}\n{b}{p}\n"));
            texts.push(format!("{a}{p}\n{p}{b}"));
            texts.push(format!("{p}#{p}\n{p}\n{a}\n{b}\n"));
            // Padding inside a line: a field gains it, or a tab-split
            // shifts the field count; either way it is an error.
            texts.push(format!("{a}\n12\t1\t0\tread{p}\t16\t131056\t200\t1\n"));
            texts.push(format!("{a}\n12\t1{p}\t0\tread\t16\t131056\t200\t1\n"));
            texts.push(format!("{a}\n12\t1\t0\tread\t16\t131056\t200{p}\t1\n"));
        }
        for text in &texts {
            assert_parses_as_oracle(text);
        }
    }

    /// A one-line trace with field `index` set to `value`, too large for
    /// a `u32`, fails to parse with std's error text.
    fn assert_out_of_range(index: usize, what: &str, value: &str) {
        let mut fields = ["1", "1", "0", "read", "0", "16", "0", "0"];
        fields[index] = value;
        match from_tsv(&fields.join("\t")) {
            Err(TraceError::Parse { line: 1, message }) => {
                let want = format!("bad {what} '{value}': number too large to fit in target type");
                assert_eq!(message, want);
            }
            other => panic!("{fields:?} parsed as {other:?}"),
        }
    }

    #[test]
    fn out_of_range_pid_is_a_parse_error() {
        assert_out_of_range(0, "pid", "4294967297");
    }

    #[test]
    fn out_of_range_rank_is_a_parse_error() {
        assert_out_of_range(1, "rank", "4294967297");
    }

    #[test]
    fn out_of_range_file_is_a_parse_error() {
        assert_out_of_range(2, "file", "4294967296");
    }

    #[test]
    fn out_of_range_phase_is_a_parse_error() {
        assert_out_of_range(7, "phase", "99999999999");
    }

    #[test]
    fn number_oddities_parse_as_the_oracle_does() {
        let oddities = [
            "0",
            "42",
            "18446744073709551615",
            "18446744073709551616",
            "+7",
            "007",
            "",
            " 3",
            "3 ",
            "1e3",
            "0x10",
            "99999999999999999999999999",
            "000000000000000000000000007",
        ];
        for s in oddities {
            // The u64 columns: the oracle's `as u32` casts make it wrong
            // for the u32 ones.
            for col in [4, 5, 6] {
                let mut fields = ["1", "0", "0", "read", "0", "16", "0", "0"];
                fields[col] = s;
                assert_parses_as_oracle(&fields.join("\t"));
            }
        }
    }
}
