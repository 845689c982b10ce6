//! One checked on-disk cell format: the file layout, the atomic write,
//! the validating parse, and the directory scan shared by every cache
//! that keeps deterministic results across processes (the trace arena's
//! chunk files and the `ampsched serve` result cells).
//!
//! ## Layout
//!
//! Little-endian throughout:
//!
//! ```text
//! magic        8 bytes   Format::magic
//! version      u32       Format::version (bumped on any change to what
//!                        the payload means; mismatched files are stale)
//! key          K bytes   the caller's key, echoed
//! header_crc   u32       CRC-32 of the 12 + K bytes above
//! record, one or more, repeated until end of file:
//!   count      u32       caller-defined item count
//!   len        u32       payload length in bytes
//!   crc        u32       CRC-32 of the payload
//!   payload    len bytes
//! ```
//!
//! Files are written to `.<name>.<pid>.tmp` in the same directory,
//! synced, and renamed into place, so a crash mid-write never leaves a
//! partial file under the final name; a leftover `*.tmp` is reported by
//! [`scan`] and removed by [`gc`].
//!
//! ## Validation
//!
//! [`parse`] checks everything the layout can: magic, version, header
//! CRC, key echo, every record's header, length and CRC, at least one
//! record, and the format's own per-record [`Format::check`]. Any
//! mismatch is an `Err` naming what failed; the caller decides whether
//! to delete and recompute. A file cut exactly at a record boundary
//! (after the first record) still parses, as a shorter sequence of
//! whole, checksummed records.
//!
//! ```
//! use ampsched_util::cellfile::{parse, Format, Record};
//!
//! const DEMO: Format = Format {
//!     magic: *b"DEMOCEL\0",
//!     version: 1,
//!     ext: "demo",
//!     key_of: |_| None,
//!     check: |_| Ok(()),
//! };
//! let image = DEMO.image(b"key", &[Record { count: 1, payload: b"bytes" }]);
//! let records = parse(&image, &DEMO, b"key").unwrap();
//! assert_eq!(records[0].payload, b"bytes");
//! assert!(parse(&image, &DEMO, b"kez").unwrap_err().contains("key"));
//! assert!(parse(&image[..image.len() - 1], &DEMO, b"key").is_err());
//! ```

use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::hash::crc32;

/// Bytes of a record's header: `count`, `len` and `crc`, one `u32` each.
pub const RECORD_HEADER_LEN: usize = 12;

/// Bytes of a file header for a key of `key_len` bytes: magic, version,
/// key and header CRC.
pub const fn header_len(key_len: usize) -> usize {
    8 + 4 + key_len + 4
}

/// One kind of cell file.
pub struct Format {
    /// Magic bytes opening every file of this kind.
    pub magic: [u8; 8],
    /// Format version; files carrying another are rejected.
    pub version: u32,
    /// File extension (without the dot) that [`scan`] walks.
    pub ext: &'static str,
    /// The key a file must echo, spelled by its name; `None` when the
    /// name spells no key (the file can never be loaded).
    pub key_of: fn(&Path) -> Option<Vec<u8>>,
    /// The format's own check on one record whose length and CRC passed.
    pub check: fn(&Record<'_>) -> Result<(), String>,
}

/// One record of a cell file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    /// Caller-defined item count (ops in a trace chunk, 1 for a report).
    pub count: u32,
    /// The record's bytes.
    pub payload: &'a [u8],
}

impl Format {
    /// The full file image for `key` holding `records`.
    pub fn image(&self, key: &[u8], records: &[Record<'_>]) -> Vec<u8> {
        let body: usize = records
            .iter()
            .map(|r| RECORD_HEADER_LEN + r.payload.len())
            .sum();
        let mut out = Vec::with_capacity(header_len(key.len()) + body);
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(key);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        for r in records {
            out.extend_from_slice(&r.count.to_le_bytes());
            out.extend_from_slice(&(r.payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&crc32(r.payload).to_le_bytes());
            out.extend_from_slice(r.payload);
        }
        out
    }
}

/// Atomically write the cell file at `path`: the image goes to a
/// temporary file in the same directory (created if needed), is synced,
/// and is renamed into place. On any failure the temporary is removed
/// and the previous file, if any, is left intact.
pub fn write(
    path: &Path,
    format: &Format,
    key: &[u8],
    records: &[Record<'_>],
) -> std::io::Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    std::fs::create_dir_all(dir)?;
    let name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let tmp = dir.join(format!(".{name}.{}.tmp", std::process::id()));
    let written = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&format.image(key, records))?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

fn u32_at(data: &[u8], pos: usize) -> Option<u32> {
    data.get(pos..pos + 4)
        .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
}

/// Validate a file image of `format` that must echo `key`, returning its
/// records (borrowing `data`). Every failure names what failed: short
/// header, bad magic, format version, header checksum, key mismatch, a
/// truncated or checksum-failing record, no records, or the format's
/// own check.
pub fn parse<'a>(data: &'a [u8], format: &Format, key: &[u8]) -> Result<Vec<Record<'a>>, String> {
    let header = header_len(key.len());
    if data.len() < header {
        return Err(format!("short header ({} bytes)", data.len()));
    }
    if data[..8] != format.magic {
        return Err("bad magic".to_string());
    }
    let version = u32_at(data, 8).expect("header length checked");
    if version != format.version {
        return Err(format!(
            "format version {version}, expected {}",
            format.version
        ));
    }
    if crc32(&data[..header - 4]) != u32_at(data, header - 4).expect("header length checked") {
        return Err("header checksum mismatch".to_string());
    }
    if data[12..header - 4] != *key {
        return Err("key mismatch (file renamed or hash collision)".to_string());
    }
    let mut records = Vec::new();
    let mut pos = header;
    while pos < data.len() {
        let i = records.len();
        let truncated = || format!("record {i} truncated");
        let count = u32_at(data, pos).ok_or_else(truncated)?;
        let len = u32_at(data, pos + 4).ok_or_else(truncated)? as usize;
        let crc = u32_at(data, pos + 8).ok_or_else(truncated)?;
        pos += RECORD_HEADER_LEN;
        let payload = data.get(pos..pos + len).ok_or_else(truncated)?;
        pos += len;
        if crc32(payload) != crc {
            return Err(format!("record {i} checksum mismatch"));
        }
        let record = Record { count, payload };
        (format.check)(&record).map_err(|e| format!("record {i}: {e}"))?;
        records.push(record);
    }
    if records.is_empty() {
        return Err("no records (truncated after the header)".to_string());
    }
    Ok(records)
}

/// Read and validate the cell file at `path`, returning each record's
/// payload. An unreadable file is an `Err` like any other failure.
pub fn load(path: &Path, format: &Format, key: &[u8]) -> Result<Vec<Vec<u8>>, String> {
    let data = std::fs::read(path).map_err(|e| format!("unreadable: {e}"))?;
    Ok(parse(&data, format, key)?
        .iter()
        .map(|r| r.payload.to_vec())
        .collect())
}

/// Every file directly in `dir` whose extension is one of `exts`, with
/// its size in bytes, sorted by path. A missing or unreadable directory
/// lists nothing.
pub fn list(dir: &Path, exts: &[&str]) -> Vec<(PathBuf, u64)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<(PathBuf, u64)> = entries
        .flatten()
        .filter(|e| e.file_type().is_ok_and(|t| t.is_file()))
        .filter(|e| {
            e.path()
                .extension()
                .and_then(|x| x.to_str())
                .is_some_and(|x| exts.contains(&x))
        })
        .map(|e| (e.path(), e.metadata().map(|m| m.len()).unwrap_or(0)))
        .collect();
    files.sort();
    files
}

/// What [`scan`] learned about one file.
#[derive(Debug)]
pub struct FileReport {
    /// The file's path.
    pub path: PathBuf,
    /// File size in bytes.
    pub bytes: u64,
    /// Validated records (0 when invalid).
    pub records: usize,
    /// Sum of the validated records' counts (0 when invalid).
    pub count: u64,
    /// `None` when the file is fully valid, else what failed.
    pub error: Option<String>,
}

impl FileReport {
    /// Whether the file passed full validation.
    pub fn is_valid(&self) -> bool {
        self.error.is_none()
    }
}

/// Validate every file of the given formats in `dir` (non-recursively),
/// each against the key its name spells. Leftover temporary files from
/// interrupted writes are reported as invalid. Sorted by path.
pub fn scan(dir: &Path, formats: &[&Format]) -> Vec<FileReport> {
    let mut exts: Vec<&str> = formats.iter().map(|f| f.ext).collect();
    exts.push("tmp");
    list(dir, &exts)
        .into_iter()
        .map(|(path, bytes)| {
            let ext = path
                .extension()
                .and_then(|x| x.to_str())
                .unwrap_or_default();
            let outcome = match formats.iter().find(|f| f.ext == ext) {
                None => Err("leftover temporary file from an interrupted write".to_string()),
                Some(format) => match ((format.key_of)(&path), std::fs::read(&path)) {
                    (None, _) => Err("file name spells no key".to_string()),
                    (_, Err(e)) => Err(format!("unreadable: {e}")),
                    (Some(key), Ok(data)) => parse(&data, format, &key)
                        .map(|rs| (rs.len(), rs.iter().map(|r| u64::from(r.count)).sum())),
                },
            };
            let (records, count, error) = match outcome {
                Ok((records, count)) => (records, count, None),
                Err(e) => (0, 0, Some(e)),
            };
            FileReport {
                path,
                bytes,
                records,
                count,
                error,
            }
        })
        .collect()
}

/// Delete every invalid file (and leftover temporary) that [`scan`]
/// reports. Returns `(files_removed, bytes_reclaimed)`.
pub fn gc(dir: &Path, formats: &[&Format]) -> (usize, u64) {
    let mut removed = 0usize;
    let mut reclaimed = 0u64;
    for report in scan(dir, formats) {
        if !report.is_valid() && std::fs::remove_file(&report.path).is_ok() {
            removed += 1;
            reclaimed += report.bytes;
        }
    }
    (removed, reclaimed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A test format whose file names are the key in hex and whose
    /// records must hold an even count.
    const TEST: Format = Format {
        magic: *b"TESTCEL\0",
        version: 3,
        ext: "tcell",
        key_of: |path| {
            let stem = path.file_stem()?.to_str()?;
            u64::from_str_radix(stem, 16)
                .ok()
                .map(|k| k.to_le_bytes().to_vec())
        },
        check: |r| {
            if r.count % 2 == 0 {
                Ok(())
            } else {
                Err(format!("odd count {}", r.count))
            }
        },
    };

    const KEY: [u8; 8] = 0x1234u64.to_le_bytes();

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ampsched-cellfile-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    fn payload(n: usize, salt: u8) -> Vec<u8> {
        (0..n).map(|i| (i as u8).wrapping_mul(31) ^ salt).collect()
    }

    fn two_records() -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let (a, b) = (payload(300, 1), payload(257, 2));
        let image = TEST.image(
            &KEY,
            &[
                Record {
                    count: 2,
                    payload: &a,
                },
                Record {
                    count: 4,
                    payload: &b,
                },
            ],
        );
        (image, a, b)
    }

    #[test]
    fn round_trip_keeps_every_record() {
        let (image, a, b) = two_records();
        assert_eq!(
            image.len(),
            header_len(8) + 2 * RECORD_HEADER_LEN + a.len() + b.len()
        );
        let back = parse(&image, &TEST, &KEY).expect("valid image");
        assert_eq!(
            back,
            vec![
                Record {
                    count: 2,
                    payload: &a
                },
                Record {
                    count: 4,
                    payload: &b
                }
            ]
        );
    }

    #[test]
    fn truncation_at_every_byte_is_detected_except_whole_records() {
        let (image, a, _) = two_records();
        let boundary = header_len(8) + RECORD_HEADER_LEN + a.len();
        for cut in 0..image.len() {
            let parsed = parse(&image[..cut], &TEST, &KEY);
            if cut == boundary {
                // Whole first record: a valid, shorter file.
                assert_eq!(parsed.expect("whole record").len(), 1);
            } else {
                assert!(
                    parsed.is_err(),
                    "truncation to {cut} bytes must be detected"
                );
            }
        }
        assert!(parse(&image[..header_len(8)], &TEST, &KEY)
            .unwrap_err()
            .contains("no records"));
        assert!(parse(&image[..4], &TEST, &KEY)
            .unwrap_err()
            .contains("short header"));
        assert!(parse(&image[..header_len(8) + 3], &TEST, &KEY)
            .unwrap_err()
            .contains("truncated"));
        assert!(parse(&image[..image.len() - 1], &TEST, &KEY)
            .unwrap_err()
            .contains("record 1 truncated"));
    }

    #[test]
    fn version_skew_is_named_even_with_a_fixed_header_crc() {
        let (image, _, _) = two_records();
        let mut skew = image.clone();
        skew[8] = skew[8].wrapping_add(1);
        assert!(parse(&skew, &TEST, &KEY).unwrap_err().contains("version"));
        let h = header_len(8);
        let fixed = crc32(&skew[..h - 4]);
        skew[h - 4..h].copy_from_slice(&fixed.to_le_bytes());
        assert!(parse(&skew, &TEST, &KEY).unwrap_err().contains("version"));
    }

    #[test]
    fn key_mismatch_and_header_bit_flips_are_detected() {
        let (image, _, _) = two_records();
        assert!(parse(&image, &TEST, &7u64.to_le_bytes())
            .unwrap_err()
            .contains("key"));
        // A key of another length reads a different header.
        assert!(parse(&image, &TEST, &[0u8; 4]).is_err());
        let mut flip = image.clone();
        flip[13] ^= 0x01;
        assert!(parse(&flip, &TEST, &KEY)
            .unwrap_err()
            .contains("header checksum"));
    }

    #[test]
    fn payload_bit_flips_fail_the_record_checksum() {
        let (image, _, _) = two_records();
        let first = header_len(8) + RECORD_HEADER_LEN;
        for at in [first, first + 100, image.len() - 1] {
            let mut flip = image.clone();
            flip[at] ^= 0x40;
            assert!(
                parse(&flip, &TEST, &KEY).unwrap_err().contains("checksum"),
                "flip at {at}"
            );
        }
    }

    #[test]
    fn bad_magic_and_format_check_are_named() {
        let (image, _, _) = two_records();
        let mut magic = image.clone();
        magic[0] = b'X';
        assert!(parse(&magic, &TEST, &KEY).unwrap_err().contains("magic"));
        let odd = TEST.image(
            &KEY,
            &[Record {
                count: 3,
                payload: b"x",
            }],
        );
        assert_eq!(
            parse(&odd, &TEST, &KEY).unwrap_err(),
            "record 0: odd count 3"
        );
    }

    #[test]
    fn write_is_atomic_and_load_reads_it_back() {
        let dir = tmp_dir("write");
        let path = dir.join("sub").join("1234.tcell");
        let a = payload(64, 9);
        write(
            &path,
            &TEST,
            &KEY,
            &[Record {
                count: 2,
                payload: &a,
            }],
        )
        .expect("write");
        assert_eq!(load(&path, &TEST, &KEY).expect("load"), vec![a]);
        assert_eq!(
            list(&dir.join("sub"), &["tmp"]),
            Vec::new(),
            "no temporary left behind"
        );
        assert!(load(&dir.join("absent.tcell"), &TEST, &KEY)
            .unwrap_err()
            .contains("unreadable"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scan_reports_leftover_tmp_and_gc_reclaims() {
        let dir = tmp_dir("scan");
        let a = payload(64, 3);
        let good = dir.join("1234.tcell");
        write(
            &good,
            &TEST,
            &KEY,
            &[
                Record {
                    count: 2,
                    payload: &a,
                },
                Record {
                    count: 2,
                    payload: &a,
                },
            ],
        )
        .expect("write");
        // A valid image under another key's name fails the key echo.
        std::fs::copy(&good, dir.join("99.tcell")).expect("copy");
        std::fs::write(dir.join("zz-not-hex.tcell"), TEST.image(&KEY, &[])).expect("unnamed");
        std::fs::write(dir.join(".1234.tcell.77.tmp"), b"partial").expect("tmp");
        std::fs::write(dir.join("ignored.txt"), b"other").expect("other file");

        let reports = scan(&dir, &[&TEST]);
        assert_eq!(reports.len(), 4, "{reports:?}");
        let error_of = |name: &str| {
            reports
                .iter()
                .find(|r| r.path.ends_with(name))
                .and_then(|r| r.error.clone())
        };
        assert!(error_of(".1234.tcell.77.tmp").unwrap().contains("leftover"));
        assert!(error_of("99.tcell").unwrap().contains("key"));
        assert!(error_of("zz-not-hex.tcell")
            .unwrap()
            .contains("spells no key"));
        let valid: Vec<_> = reports.iter().filter(|r| r.is_valid()).collect();
        assert_eq!(valid.len(), 1);
        assert_eq!((valid[0].records, valid[0].count), (2, 4));

        let (removed, reclaimed) = gc(&dir, &[&TEST]);
        assert_eq!(removed, 3);
        assert!(reclaimed > 0);
        assert!(good.exists(), "gc keeps valid files");
        assert!(
            dir.join("ignored.txt").exists(),
            "gc touches only its formats"
        );
        assert_eq!(scan(&dir, &[&TEST]).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
