#![deny(missing_docs)]

//! # journal — crash-safe write-ahead log for campaign work units
//!
//! Long campaigns die in mundane ways — OOM kills, preemptions, power
//! loss — and a harness that keeps its only copy of six hours of
//! results in memory loses all of them. This crate persists each
//! completed work unit (a *shard*: one VM pair, one probe, one
//! replicate) the moment it finishes, so a campaign can be SIGKILLed at
//! any instant and resumed without recomputing — or worse, silently
//! changing — what was already done.
//!
//! ## Durability model
//!
//! The journal is an append-only log written in place:
//!
//! * [`Journal::create`] writes the 16-byte header to `<path>.tmp`,
//!   calls `sync_data` on it, renames it over `<path>` and then fsyncs
//!   the parent directory. A crash during `create` leaves either no
//!   journal or a complete header, never a partial one.
//! * [`Journal::append`] and [`Journal::flush`] issue one `write_all`
//!   of the framed pending records to an `O_APPEND` handle, then one
//!   `sync_data`. When `flush` returns, the records survive power loss.
//!   Group commit is fsync batching: deferred records share one write
//!   and one `sync_data`.
//! * A crash mid-write can leave a torn record at the end of the file.
//!   Records are length-prefixed and checksummed, so [`Journal::open`]
//!   keeps the longest valid record prefix and reports the rest in
//!   [`OpenReport::truncated_bytes`]. `open` only reads; the first
//!   `flush` after it cuts the torn tail with `set_len` before writing.
//!
//! Neither the file image nor the appended records stay in memory:
//! `open` parses through a bounded buffered reader, and a writer holds
//! only the records it has not flushed yet.
//!
//! ## Binary format
//!
//! ```text
//! header:  magic "CLDRJNL1" (8 bytes) | config fingerprint (u64 LE)
//! record:  body length (u32 LE) | body | FNV-1a 64 of body (u64 LE)
//! body:    shard (u64) | seed (u64) | result fingerprint (u64)
//!          | payload length (u32) | payload bytes
//! ```
//!
//! The *config fingerprint* binds the journal to one campaign
//! configuration: opening with a different fingerprint is a typed
//! error, never a silent mix of incompatible results. The per-record
//! *result fingerprint* is the caller's 64-bit digest of the result
//! bytes (conventionally [`fingerprint64`] of the payload), used by
//! resume-verification to re-check journaled shards bit for bit.

use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufReader, Read, Write};
use std::path::{Path, PathBuf};

/// Magic bytes opening every journal file (name + format version).
const MAGIC: [u8; 8] = *b"CLDRJNL1";

/// Header length: magic + config fingerprint.
const HEADER_LEN: usize = 16;

/// Fixed part of a record body: shard + seed + fingerprint + payload len.
const BODY_FIXED_LEN: usize = 28;

/// Read buffer of `open`: the parser holds this plus the one record it
/// is decoding, whatever the journal's size.
const READ_BUF: usize = 64 * 1024;

/// FNV-1a 64 offset basis: the digest of zero bytes.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit digest — the workspace's standard content fingerprint
/// (matches the corpus fingerprint idiom; deterministic across
/// platforms and runs).
pub fn fingerprint64(bytes: &[u8]) -> u64 {
    fnv_fold(FNV_BASIS, bytes)
}

/// Continue an FNV-1a 64 digest `h` over more bytes.
/// `fnv_fold(FNV_BASIS, b) == fingerprint64(b)`, and chaining from any
/// intermediate state digests the concatenation — what makes a
/// campaign digest resumable.
#[inline]
pub fn fnv_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One completed work unit, as persisted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// Stable shard index within the campaign (e.g. the fleet pair).
    pub shard: u64,
    /// The derived seed the accepted result was computed under (after
    /// any supervised retries — not necessarily the shard's base seed).
    pub seed: u64,
    /// 64-bit digest of `payload`, re-checked on every open and by
    /// resume-verification.
    pub fingerprint: u64,
    /// Opaque result bytes (the caller's own encoding).
    pub payload: Vec<u8>,
}

/// Why a journal could not be opened or written.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem trouble (open, read, write, `sync_data`, `set_len`,
    /// rename, or the directory fsync).
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// Underlying I/O error.
        cause: std::io::Error,
    },
    /// The file exists but does not start with a valid journal header.
    BadHeader {
        /// Offending path.
        path: PathBuf,
    },
    /// The journal was written under a different campaign
    /// configuration; resuming would mix incompatible results.
    ConfigMismatch {
        /// Fingerprint the caller expected.
        expected: u64,
        /// Fingerprint found in the file.
        found: u64,
    },
    /// `create` refuses to clobber an existing journal: resuming is
    /// explicit (`open`), overwriting is the caller deleting the file.
    AlreadyExists {
        /// Offending path.
        path: PathBuf,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, cause } => {
                write!(f, "journal {}: {cause}", path.display())
            }
            JournalError::BadHeader { path } => {
                write!(f, "journal {}: not a journal file (bad header)", path.display())
            }
            JournalError::ConfigMismatch { expected, found } => write!(
                f,
                "journal config fingerprint mismatch: campaign is {expected:#018x}, journal was written under {found:#018x}"
            ),
            JournalError::AlreadyExists { path } => write!(
                f,
                "journal {} already exists; resume it or delete it explicitly",
                path.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { cause, .. } => Some(cause),
            _ => None,
        }
    }
}

/// What `open` found on disk, beyond the records themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenReport {
    /// Records recovered.
    pub records: usize,
    /// Bytes of torn/corrupt tail past the last valid record (0 for a
    /// clean file). `open` leaves them on disk; the first `flush` that
    /// writes cuts them before appending.
    pub truncated_bytes: usize,
}

/// A crash-safe, append-only journal bound to one campaign config.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    config_fingerprint: u64,
    /// Records recovered by [`Journal::open`]; appended records are
    /// written out, not kept.
    recovered: Vec<JournalRecord>,
    /// Records in the journal: recovered at open plus appended since.
    len: usize,
    /// Bytes of valid journal on disk: the header and every record
    /// flushed so far.
    valid_len: u64,
    /// Whether the file may hold bytes past `valid_len` (a torn tail
    /// found by `open`, or a failed write); the next flush cuts them.
    dirty: bool,
    /// Framed records appended but not yet written
    /// (see [`Journal::append_deferred`] / [`Journal::flush`]).
    pending: Vec<u8>,
    /// Number of records in `pending`.
    pending_records: usize,
    /// `O_APPEND` handle, opened by the first flush.
    file: Option<File>,
}

impl Journal {
    /// Create a fresh journal at `path` for the given campaign config.
    /// Refuses to overwrite an existing file ([`JournalError::AlreadyExists`]).
    /// The header is written to `<path>.tmp`, synced, renamed into place
    /// and the parent directory is fsynced, so a crash leaves either no
    /// journal or a complete header.
    pub fn create(path: &Path, config_fingerprint: u64) -> Result<Journal, JournalError> {
        if path.exists() {
            return Err(JournalError::AlreadyExists { path: path.to_path_buf() });
        }
        let mut header = [0u8; HEADER_LEN];
        header[..8].copy_from_slice(&MAGIC);
        header[8..].copy_from_slice(&config_fingerprint.to_le_bytes());
        let tmp = tmp_path(path);
        File::create(&tmp)
            .and_then(|mut f| {
                f.write_all(&header)?;
                f.sync_data()
            })
            .map_err(io_err(&tmp))?;
        fs::rename(&tmp, path).map_err(io_err(path))?;
        sync_parent_dir(path).map_err(io_err(path))?;
        Ok(Journal::at(path, config_fingerprint, 0, HEADER_LEN as u64, false))
    }

    /// Open an existing journal, requiring its config fingerprint to
    /// match `expected_config`, and keep every recovered record (see
    /// [`Journal::records`]). A torn final write is detected by the
    /// length prefix / checksum; how much lies past the last valid
    /// record is reported in [`OpenReport`]. The file is not modified.
    pub fn open(path: &Path, expected_config: u64) -> Result<(Journal, OpenReport), JournalError> {
        let mut recovered = Vec::new();
        let (mut j, report) = Journal::open_with(path, expected_config, |r| recovered.push(r))?;
        j.recovered = recovered;
        Ok((j, report))
    }

    /// [`Journal::open`] that hands each recovered record, in order, to
    /// `visit` instead of keeping it: a reader that needs only part of
    /// the log (say, its last record) holds only that part in memory.
    /// The returned journal's [`Journal::records`] is empty;
    /// [`Journal::len`] still counts every recovered record.
    pub fn open_with(
        path: &Path,
        expected_config: u64,
        visit: impl FnMut(JournalRecord),
    ) -> Result<(Journal, OpenReport), JournalError> {
        Journal::scan(path, Some(expected_config), visit)
    }

    /// Open a journal without checking its config fingerprint — for
    /// inspection tooling only; resuming a campaign must use [`open`].
    ///
    /// [`open`]: Journal::open
    pub fn open_unchecked(path: &Path) -> Result<(Journal, OpenReport), JournalError> {
        let mut recovered = Vec::new();
        let (mut j, report) = Journal::scan(path, None, |r| recovered.push(r))?;
        j.recovered = recovered;
        Ok((j, report))
    }

    /// The one parse loop behind every open: header, config check, then
    /// records until the bytes run out or stop making sense. Anything
    /// from the first unparseable position onward is a torn or corrupt
    /// tail. Records are never resynchronized past a bad one — the
    /// journal is a *prefix* log.
    fn scan(
        path: &Path,
        expected_config: Option<u64>,
        mut visit: impl FnMut(JournalRecord),
    ) -> Result<(Journal, OpenReport), JournalError> {
        let file = File::open(path).map_err(io_err(path))?;
        let file_len = file.metadata().map_err(io_err(path))?.len();
        if file_len < HEADER_LEN as u64 {
            return Err(JournalError::BadHeader { path: path.to_path_buf() });
        }
        let mut reader = BufReader::with_capacity(READ_BUF, file);
        let mut header = [0u8; HEADER_LEN];
        reader.read_exact(&mut header).map_err(io_err(path))?;
        if header[..8] != MAGIC {
            return Err(JournalError::BadHeader { path: path.to_path_buf() });
        }
        let config_fingerprint = read_u64(&header, 8);
        if let Some(expected) = expected_config.filter(|&e| e != config_fingerprint) {
            return Err(JournalError::ConfigMismatch { expected, found: config_fingerprint });
        }
        let mut at = HEADER_LEN as u64;
        let mut records = 0;
        while let Some((rec, next)) =
            read_record(&mut reader, at, file_len).map_err(io_err(path))?
        {
            visit(rec);
            records += 1;
            at = next;
        }
        let truncated_bytes = (file_len - at) as usize;
        Ok((
            Journal::at(path, config_fingerprint, records, at, truncated_bytes > 0),
            OpenReport { records, truncated_bytes },
        ))
    }

    /// A journal handle whose file holds `len` valid records in its
    /// first `valid_len` bytes.
    fn at(
        path: &Path,
        config_fingerprint: u64,
        len: usize,
        valid_len: u64,
        dirty: bool,
    ) -> Journal {
        Journal {
            path: path.to_path_buf(),
            config_fingerprint,
            recovered: Vec::new(),
            len,
            valid_len,
            dirty,
            pending: Vec::new(),
            pending_records: 0,
            file: None,
        }
    }

    /// Append one completed work unit and make it durable before
    /// returning: one write to the end of the file and one `sync_data`.
    /// A crash at any instant leaves `n` valid records, possibly
    /// followed by a torn `n+1`-th that the next open discards.
    pub fn append(&mut self, record: JournalRecord) -> Result<(), JournalError> {
        self.append_deferred(record);
        self.flush()
    }

    /// Frame one record into the pending buffer **without** writing it
    /// — the group-commit half of [`Journal::append`]. Deferred records
    /// are durable only after the next [`Journal::flush`] (or durable
    /// `append`); a crash before then loses exactly the deferred suffix
    /// and nothing else. Batching k appends per flush turns the N
    /// `sync_data` calls of a journaled campaign into N/k, with the
    /// same file bytes.
    pub fn append_deferred(&mut self, record: JournalRecord) {
        let fixed = encode_fixed(&record);
        let body_len = (BODY_FIXED_LEN + record.payload.len()) as u32;
        let crc = fnv_fold(fingerprint64(&fixed), &record.payload);
        self.pending.extend_from_slice(&body_len.to_le_bytes());
        self.pending.extend_from_slice(&fixed);
        self.pending.extend_from_slice(&record.payload);
        self.pending.extend_from_slice(&crc.to_le_bytes());
        self.pending_records += 1;
        self.len += 1;
    }

    /// Number of records appended but not yet persisted.
    pub fn pending(&self) -> usize {
        self.pending_records
    }

    /// Persist all deferred records: cut any torn tail with `set_len`,
    /// then one `write_all` to the `O_APPEND` handle and one
    /// `sync_data`. A no-op when nothing is pending, so callers can
    /// flush defensively at group boundaries and on completion. On
    /// error the records stay pending and the next flush rewrites them
    /// from the last durable length.
    pub fn flush(&mut self) -> Result<(), JournalError> {
        if self.pending_records == 0 {
            return Ok(());
        }
        let file = match &mut self.file {
            Some(f) => f,
            None => {
                let opened = OpenOptions::new().append(true).open(&self.path);
                self.file.insert(opened.map_err(io_err(&self.path))?)
            }
        };
        if self.dirty {
            file.set_len(self.valid_len).map_err(io_err(&self.path))?;
        }
        self.dirty = true;
        file.write_all(&self.pending)
            .and_then(|()| file.sync_data())
            .map_err(io_err(&self.path))?;
        self.dirty = false;
        self.valid_len += self.pending.len() as u64;
        self.pending.clear();
        self.pending_records = 0;
        Ok(())
    }

    /// The records recovered by [`Journal::open`] (or
    /// [`Journal::open_unchecked`]), in append order. Records appended
    /// through this handle are not kept, and a created or
    /// [`Journal::open_with`] journal has none here.
    pub fn records(&self) -> &[JournalRecord] {
        &self.recovered
    }

    /// Number of records: recovered at open plus appended since
    /// (flushed or pending).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The campaign configuration fingerprint this journal is bound to.
    pub fn config_fingerprint(&self) -> u64 {
        self.config_fingerprint
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Map an I/O error on `path` into [`JournalError::Io`].
fn io_err(path: &Path) -> impl FnOnce(io::Error) -> JournalError + '_ {
    move |cause| JournalError::Io { path: path.to_path_buf(), cause }
}

/// `<path>.tmp` sibling the header is written to before its rename.
fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    PathBuf::from(os)
}

/// Fsync the directory holding `path`, so its new directory entry
/// survives power loss.
#[cfg(unix)]
fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Directories cannot be opened for fsync off Unix; the rename is
/// as durable as the platform makes it.
#[cfg(not(unix))]
fn sync_parent_dir(_path: &Path) -> io::Result<()> {
    Ok(())
}

/// The fixed part of a record body: shard, seed, fingerprint, payload
/// length.
fn encode_fixed(record: &JournalRecord) -> [u8; BODY_FIXED_LEN] {
    let mut fixed = [0u8; BODY_FIXED_LEN];
    fixed[..8].copy_from_slice(&record.shard.to_le_bytes());
    fixed[8..16].copy_from_slice(&record.seed.to_le_bytes());
    fixed[16..24].copy_from_slice(&record.fingerprint.to_le_bytes());
    fixed[24..].copy_from_slice(&(record.payload.len() as u32).to_le_bytes());
    fixed
}

/// Little-endian u64 at `at` (caller guarantees bounds).
fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Little-endian u32 at `at` (caller guarantees bounds).
fn read_u32(bytes: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&bytes[at..at + 4]);
    u32::from_le_bytes(b)
}

/// Read the record starting at file offset `at` from `reader`, which
/// is positioned there. `Ok(None)` when the bytes from `at` to
/// `file_len` do not form a complete, checksum-valid record (EOF or
/// torn tail). The declared length is checked against `file_len`
/// before anything is allocated.
fn read_record(
    reader: &mut impl Read,
    at: u64,
    file_len: u64,
) -> io::Result<Option<(JournalRecord, u64)>> {
    let rest = file_len - at;
    if rest < 4 {
        return Ok(None);
    }
    let mut prefix = [0u8; 4];
    reader.read_exact(&mut prefix)?;
    let body_len = u64::from(u32::from_le_bytes(prefix));
    if body_len < BODY_FIXED_LEN as u64 {
        return Ok(None); // nonsense length: corrupt prefix byte(s)
    }
    if rest < 4 + body_len + 8 {
        return Ok(None); // torn mid-record
    }
    let mut fixed = [0u8; BODY_FIXED_LEN];
    reader.read_exact(&mut fixed)?;
    let mut payload = vec![0u8; body_len as usize - BODY_FIXED_LEN];
    reader.read_exact(&mut payload)?;
    let mut crc = [0u8; 8];
    reader.read_exact(&mut crc)?;
    if fnv_fold(fingerprint64(&fixed), &payload) != u64::from_le_bytes(crc) {
        return Ok(None); // checksum mismatch: corrupt record
    }
    if read_u32(&fixed, 24) as usize != payload.len() {
        return Ok(None); // inner/outer length disagreement
    }
    let record = JournalRecord {
        shard: read_u64(&fixed, 0),
        seed: read_u64(&fixed, 8),
        fingerprint: read_u64(&fixed, 16),
        payload,
    };
    Ok(Some((record, at + 4 + body_len + 8)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir();
        dir.join(format!("journal_unit_{}_{tag}.wal", std::process::id()))
    }

    fn rec(shard: u64, payload: &[u8]) -> JournalRecord {
        JournalRecord {
            shard,
            seed: shard.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            fingerprint: fingerprint64(payload),
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn roundtrip_appends_and_reopens() {
        let path = temp_file("roundtrip");
        let _ = fs::remove_file(&path);
        let mut j = Journal::create(&path, 0xABCD).unwrap();
        let written: Vec<JournalRecord> =
            (0..5u64).map(|i| rec(i, &vec![i as u8; (i * 7) as usize])).collect();
        for r in &written {
            j.append(r.clone()).unwrap();
        }
        assert_eq!(j.len(), 5);
        assert!(j.records().is_empty(), "a writer keeps no appended records");
        let (re, report) = Journal::open(&path, 0xABCD).unwrap();
        assert_eq!(report, OpenReport { records: 5, truncated_bytes: 0 });
        assert_eq!(re.records(), written.as_slice());
        assert_eq!(re.len(), 5);
        assert_eq!(re.config_fingerprint(), 0xABCD);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_refuses_to_clobber() {
        let path = temp_file("clobber");
        let _ = fs::remove_file(&path);
        let _j = Journal::create(&path, 1).unwrap();
        match Journal::create(&path, 1) {
            Err(JournalError::AlreadyExists { .. }) => {}
            other => panic!("expected AlreadyExists, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn config_mismatch_is_typed() {
        let path = temp_file("config");
        let _ = fs::remove_file(&path);
        let _j = Journal::create(&path, 7).unwrap();
        match Journal::open(&path, 8) {
            Err(JournalError::ConfigMismatch { expected: 8, found: 7 }) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
        // Unchecked open works for inspection.
        let (j, _) = Journal::open_unchecked(&path).unwrap();
        assert_eq!(j.config_fingerprint(), 7);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = temp_file("torn");
        let _ = fs::remove_file(&path);
        let mut j = Journal::create(&path, 3).unwrap();
        j.append(rec(0, b"alpha")).unwrap();
        j.append(rec(1, b"beta")).unwrap();
        let full = fs::read(&path).unwrap();
        // Tear 5 bytes off the final record.
        let torn = &full[..full.len() - 5];
        fs::write(&path, torn).unwrap();
        let (re, report) = Journal::open(&path, 3).unwrap();
        assert_eq!(re.len(), 1);
        assert_eq!(re.records()[0], rec(0, b"alpha"));
        assert!(report.truncated_bytes > 0);
        assert_eq!(fs::read(&path).unwrap(), torn, "open must not modify the file");
        // Appending after recovery cuts the tail and heals the file.
        let mut re = re;
        re.append(rec(1, b"beta")).unwrap();
        assert_eq!(fs::read(&path).unwrap(), full);
        let (again, rep2) = Journal::open(&path, 3).unwrap();
        assert_eq!(again.len(), 2);
        assert_eq!(rep2.truncated_bytes, 0);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_byte_invalidates_suffix_not_prefix() {
        let path = temp_file("corrupt");
        let _ = fs::remove_file(&path);
        let mut j = Journal::create(&path, 3).unwrap();
        j.append(rec(0, b"keep me")).unwrap();
        j.append(rec(1, b"flip me")).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() - 10; // inside record 1's body/crc
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let (re, report) = Journal::open(&path, 3).unwrap();
        assert_eq!(re.len(), 1, "prefix survives, corrupt suffix dropped");
        assert_eq!(re.records()[0], rec(0, b"keep me"));
        assert!(report.truncated_bytes > 0);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_and_non_journal_files_are_bad_headers() {
        let path = temp_file("badheader");
        fs::write(&path, b"not a journal").unwrap();
        match Journal::open_unchecked(&path) {
            Err(JournalError::BadHeader { .. }) => {}
            other => panic!("expected BadHeader, got {other:?}"),
        }
        fs::write(&path, b"").unwrap();
        assert!(matches!(
            Journal::open_unchecked(&path),
            Err(JournalError::BadHeader { .. })
        ));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn deferred_appends_are_invisible_until_flush() {
        let path = temp_file("deferred");
        let _ = fs::remove_file(&path);
        let mut j = Journal::create(&path, 5).unwrap();
        let written = [rec(0, b"durable"), rec(1, b"in flight"), rec(2, b"also in flight")];
        j.append(written[0].clone()).unwrap();
        j.append_deferred(written[1].clone());
        j.append_deferred(written[2].clone());
        assert_eq!(j.pending(), 2);
        assert_eq!(j.len(), 3, "deferred records are counted");
        // A reader (or a crash) at this instant sees only the flushed
        // prefix — exactly the group-commit durability contract.
        let (snap, _) = Journal::open(&path, 5).unwrap();
        assert_eq!(snap.records(), &written[..1]);
        j.flush().unwrap();
        assert_eq!(j.pending(), 0);
        let (re, report) = Journal::open(&path, 5).unwrap();
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(re.records(), written.as_slice());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_with_visits_every_record_and_keeps_none() {
        let path = temp_file("visit");
        let _ = fs::remove_file(&path);
        let mut j = Journal::create(&path, 6).unwrap();
        let written = [rec(0, b"one"), rec(1, b"two"), rec(2, b"three")];
        for r in &written {
            j.append(r.clone()).unwrap();
        }
        let mut seen = Vec::new();
        let (re, report) = Journal::open_with(&path, 6, |r| seen.push(r)).unwrap();
        assert_eq!(seen, written);
        assert_eq!(report, OpenReport { records: 3, truncated_bytes: 0 });
        assert!(re.records().is_empty());
        assert_eq!(re.len(), 3);
        assert!(matches!(
            Journal::open_with(&path, 7, |_| panic!("visited under a config mismatch")),
            Err(JournalError::ConfigMismatch { expected: 7, found: 6 })
        ));
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn create_leaves_a_synced_header_and_no_tmp_file() {
        let path = temp_file("create");
        let _ = fs::remove_file(&path);
        let _j = Journal::create(&path, 0x1234).unwrap();
        let bytes = fs::read(&path).unwrap();
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(&bytes[..8], &MAGIC);
        assert!(!tmp_path(&path).exists());
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn grouped_and_per_record_appends_produce_identical_files() {
        let pa = temp_file("grouped_a");
        let pb = temp_file("grouped_b");
        let _ = fs::remove_file(&pa);
        let _ = fs::remove_file(&pb);
        let mut a = Journal::create(&pa, 9).unwrap();
        let mut b = Journal::create(&pb, 9).unwrap();
        for i in 0..7u64 {
            a.append(rec(i, &vec![i as u8; 5])).unwrap();
            b.append_deferred(rec(i, &vec![i as u8; 5]));
            if i % 3 == 2 {
                b.flush().unwrap();
            }
        }
        b.flush().unwrap();
        assert_eq!(fs::read(&pa).unwrap(), fs::read(&pb).unwrap());
        // Idempotent: flushing with nothing pending rewrites nothing.
        b.flush().unwrap();
        fs::remove_file(&pa).unwrap();
        fs::remove_file(&pb).unwrap();
    }

    #[test]
    fn fingerprint64_is_stable() {
        // FNV-1a 64 test vectors.
        assert_eq!(fingerprint64(b""), 0xcbf29ce484222325);
        assert_eq!(fingerprint64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fingerprint64(b"hello"), 0xa430d84680aabd0b);
    }
}
