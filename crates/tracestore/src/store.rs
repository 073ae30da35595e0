//! The on-disk segment-file store.
//!
//! A store is a directory:
//!
//! ```text
//! store/
//!   MANIFEST        # text, one line per run in append order:
//!                   #   <segment>\t<event count>\t<run id>
//!   000000.seg      # binary event records, append order
//!   000000.idx      # per-kind byte offsets into the segment
//!   000001.seg
//!   ...
//! ```
//!
//! Runs are immutable once appended; the manifest is append-only. Replay
//! order — manifest order for runs, record order within a segment — is the
//! canonical iteration order everywhere, so identical appends produce
//! byte-identical stores and identical queries produce byte-identical
//! output.
//!
//! **Writing.** A [`RunBuffer`] is the one encoder: it encodes each record
//! as it is pushed and keeps the offsets and checkpoints the index needs, so
//! [`TraceStore::append_buffer`] writes the segment, then the index, then
//! the manifest line. Each of those byte runs is kept in chunks that are
//! allocated once at their final size and never moved (`Chunks`): a run
//! that grows to megabytes is neither copied as it grows nor briefly held
//! twice, and the chunks a written run frees are the size the next run's
//! chunks take. A sink-fed run is pushed as it is emitted;
//! [`TraceStore::append_run`] pushes a slice of owned events.
//!
//! **Reading.** There is one read path, `TraceStore::scan`: it loads the
//! run's segment with a single read into a buffer the call reuses for every
//! run it reads (across `sweep_write`'s 108 1,800 s paper-scale runs the
//! median segment is 1.18 MB and the largest 1.85 MB, 122 MB of segments
//! and 21.6 MB of indices in all), and its walk decodes each selected
//! record in place with the one record decoder. A decoded record's subject
//! and detail are still the segment's bytes: the callers that hand back
//! owned events — [`read_run`](TraceStore::read_run),
//! [`read_run_from`](TraceStore::read_run_from),
//! [`read_run_kind`](TraceStore::read_run_kind) and
//! [`Query::execute`](crate::query::Query::execute) — turn them into
//! interned `archmodel::Key`s through one table per call, keyed by the
//! bytes, which checks a string as UTF-8 and interns it the first time it
//! appears and copies its key after.
//! A scan knows before it decodes how many records it will visit (the
//! manifest count, or the index's offset count for a kind), so a reader
//! that keeps every record it visits reserves exactly that many. What the
//! index buys is therefore *offsets into the loaded segment*, never file
//! seeks: the per-kind section lets a single-kind scan (`gauge` readings in
//! a long run, say) decode only its own records, and the second, optional
//! section — coarse *time checkpoints*, every [`TIME_CHECKPOINT_STRIDE`]
//! records the record's index, byte offset, and the maximum event time seen
//! strictly before it — lets a time-window read start decoding at the last
//! checkpoint whose whole prefix lies before the window. Stores written
//! before the checkpoint section existed fall back to a full scan.
//!
//! **Damage.** A store that does not parse is [`StoreError::Corrupt`] on
//! every read path, never a shorter or different answer, a panic, or an
//! allocation sized by the damaged field (a reservation is capped by the
//! records the loaded bytes can hold): every length read from disk is
//! checked against the bytes that are left; a sequential scan must decode
//! exactly the manifest's record count and end at the segment's last byte; an
//! index must account for exactly the manifest's count and be consumed
//! whole; a kind's offsets must lie inside the segment, walk forward through
//! non-overlapping records, and point at records of that kind; a string that
//! is not UTF-8 is corrupt where a read makes it a string (a query that
//! drops its record by run, kind or window never does, and answers as if it
//! were intact). What these
//! structural checks cannot see — a flipped payload byte that still decodes,
//! a checkpoint time that lies, an in-bounds offset moved onto bytes that
//! happen to decode as the indexed kind — needs a per-segment checksum,
//! which would change the store bytes and is tracked on the ROADMAP.

use crate::event::{
    invalid, take, take_array, EventKind, EventRef, Record, StringTable, TraceEvent,
};
use archmodel::Key;
use rustc_hash::FxHashSet;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::str::Utf8Error;

/// The manifest file name inside a store directory.
pub const MANIFEST: &str = "MANIFEST";

/// Records between consecutive time checkpoints in an index file. Events are
/// near-sorted by simulation time (gauge batches share a tick time), so a
/// coarse stride keeps the index tiny while a window read still skips the
/// bulk of a long run's prefix.
pub const TIME_CHECKPOINT_STRIDE: u64 = 64;

/// One run recorded in the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// The caller-chosen run identifier (unique within the store), interned:
    /// every [`QueryRow`](crate::query::QueryRow) a query returns for the
    /// run copies it.
    pub run_id: Key,
    /// Segment file name, relative to the store directory.
    pub segment: String,
    /// Number of events in the segment.
    pub count: u64,
}

/// A store failure.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// The file or directory involved.
        path: PathBuf,
        /// The failing operation's error.
        source: std::io::Error,
    },
    /// The manifest, a segment, or an index did not parse.
    Corrupt(String),
    /// A run id was appended twice.
    DuplicateRun(String),
    /// A queried run id is not in the manifest.
    UnknownRun(String),
    /// A run id contained a tab or newline (the manifest separators).
    InvalidRunId(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "trace store I/O error at {}: {source}", path.display())
            }
            StoreError::Corrupt(what) => write!(f, "trace store corrupt: {what}"),
            StoreError::DuplicateRun(run) => write!(f, "run '{run}' already in the store"),
            StoreError::UnknownRun(run) => write!(f, "run '{run}' not in the store"),
            StoreError::InvalidRunId(run) => {
                write!(f, "run id {run:?} contains a tab or newline")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// The error for a failed operation on `path`, which is copied only when the
/// operation fails.
fn io_err(path: &Path) -> impl FnOnce(std::io::Error) -> StoreError + '_ {
    move |source| StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// An open trace store.
#[derive(Debug)]
pub struct TraceStore {
    root: PathBuf,
    runs: Vec<RunMeta>,
}

impl TraceStore {
    /// Opens a store directory, creating it (and an empty manifest) if it
    /// does not exist yet. A manifest line whose segment is not the one the
    /// writer names for its position (`000000.seg`, `000001.seg`, …), or
    /// whose run id an earlier line already holds, is
    /// [`StoreError::Corrupt`]: nothing is read from outside the store, and
    /// every run is reachable by its id.
    pub fn open(path: impl Into<PathBuf>) -> Result<TraceStore, StoreError> {
        let root = path.into();
        std::fs::create_dir_all(&root).map_err(io_err(&root))?;
        let manifest = root.join(MANIFEST);
        if !manifest.exists() {
            File::create(&manifest).map_err(io_err(&manifest))?;
        }
        let text = std::fs::read_to_string(&manifest).map_err(io_err(&manifest))?;
        let mut runs = Vec::new();
        let mut run_ids = FxHashSet::default();
        for (lineno, line) in text.lines().enumerate() {
            let corrupt =
                |what: String| StoreError::Corrupt(format!("manifest line {}: {what}", lineno + 1));
            let mut parts = line.splitn(3, '\t');
            let (segment, count, run_id) = match (parts.next(), parts.next(), parts.next()) {
                (Some(s), Some(c), Some(r)) => (s, c, r),
                _ => return Err(corrupt("fewer than 3 fields".into())),
            };
            let count: u64 =
                (count.parse()).map_err(|_| corrupt(format!("bad event count {count:?}")))?;
            let expected = segment_name(lineno);
            if segment != expected {
                return Err(corrupt(format!("segment {segment:?} is not {expected}")));
            }
            if !run_ids.insert(run_id) {
                return Err(corrupt(format!(
                    "run id {run_id:?} repeats an earlier line's"
                )));
            }
            runs.push(RunMeta {
                run_id: Key::new(run_id),
                segment: segment.to_string(),
                count,
            });
        }
        Ok(TraceStore { root, runs })
    }

    /// The store directory.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// The recorded runs, in append order.
    pub fn runs(&self) -> &[RunMeta] {
        &self.runs
    }

    /// Looks a run up by id.
    pub fn run(&self, run_id: &str) -> Option<&RunMeta> {
        self.runs.iter().find(|r| r.run_id == run_id)
    }

    /// Total number of events across all runs.
    pub fn total_events(&self) -> u64 {
        self.runs.iter().map(|r| r.count).sum()
    }

    /// Appends a run of owned events: each one's view goes through
    /// [`RunBuffer::push`], then [`append_buffer`](Self::append_buffer)
    /// writes the result.
    pub fn append_run(
        &mut self,
        run_id: &str,
        events: &[TraceEvent],
    ) -> Result<&RunMeta, StoreError> {
        let mut run = RunBuffer::default();
        events.iter().for_each(|event| run.push(event.as_ref()));
        self.append_buffer(run_id, &run)
    }

    /// Appends an encoded run: writes its segment, then its index, then
    /// commits it to the manifest. Run ids must be unique within the store
    /// and must not contain tabs or newlines.
    pub fn append_buffer(&mut self, run_id: &str, run: &RunBuffer) -> Result<&RunMeta, StoreError> {
        if run_id.is_empty() || run_id.contains('\t') || run_id.contains('\n') {
            return Err(StoreError::InvalidRunId(run_id.to_string()));
        }
        if self.run(run_id).is_some() {
            return Err(StoreError::DuplicateRun(run_id.to_string()));
        }
        let segment = segment_name(self.runs.len());
        let seg_path = self.root.join(&segment);
        let idx_path = seg_path.with_extension("idx");
        write_file(&seg_path, |file| run.segment.write_to(file))?;
        write_file(&idx_path, |file| run.write_index(file))?;

        // Manifest line last: a run is only visible once its files are
        // fully written.
        let manifest = self.root.join(MANIFEST);
        let mut file = OpenOptions::new()
            .append(true)
            .open(&manifest)
            .map_err(io_err(&manifest))?;
        writeln!(file, "{segment}\t{}\t{run_id}", run.count).map_err(io_err(&manifest))?;

        self.runs.push(RunMeta {
            run_id: Key::new(run_id),
            segment,
            count: run.count,
        });
        Ok(self.runs.last().expect("just pushed"))
    }

    /// Reads a whole run, in append (replay) order.
    pub fn read_run(&self, run_id: &str) -> Result<Vec<TraceEvent>, StoreError> {
        self.collect(run_id, Select::All)
    }

    /// Reads the suffix of a run relevant to a time window starting at
    /// `from_secs`: finds the index's last coarse time checkpoint where
    /// every earlier record is provably before the window (`prefix max time
    /// < from_secs`), then decodes from there in append order. The result is
    /// always a suffix of [`read_run`](Self::read_run) and every skipped
    /// record has `time_secs < from_secs`, so filtering the suffix by the
    /// window yields byte-identical results to filtering the full scan.
    /// Stores written before the checkpoint section existed fall back to the
    /// full scan.
    pub fn read_run_from(
        &self,
        run_id: &str,
        from_secs: f64,
    ) -> Result<Vec<TraceEvent>, StoreError> {
        self.collect(run_id, Select::From(from_secs))
    }

    /// Reads only the events of one kind from a run, through the per-kind
    /// index; append (replay) order within the kind.
    pub fn read_run_kind(
        &self,
        run_id: &str,
        kind: EventKind,
    ) -> Result<Vec<TraceEvent>, StoreError> {
        self.collect(run_id, Select::Kind(kind))
    }

    fn collect(&self, run_id: &str, select: Select) -> Result<Vec<TraceEvent>, StoreError> {
        let meta = self
            .run(run_id)
            .ok_or_else(|| StoreError::UnknownRun(run_id.to_string()))?;
        let mut buffers = Buffers::default();
        let scan = self.scan(meta, select, &mut buffers)?;
        let (mut events, mut strings) = (Vec::with_capacity(scan.len()), StringTable::default());
        scan.visit(|record| {
            events.push(strings.event(record).map_err(|e| meta.non_utf8(e))?);
            Ok::<(), StoreError>(())
        })?;
        Ok(events)
    }

    /// The most records `meta`'s segment can hold: its manifest count, capped
    /// by what the segment file's size leaves room for, so that a damaged
    /// count reserves no more rows than the bytes on disk could fill. A
    /// segment that cannot be read holds none; the scan that reads it reports
    /// why.
    pub(crate) fn record_bound(&self, meta: &RunMeta) -> usize {
        let bytes = std::fs::metadata(self.root.join(&meta.segment)).map_or(0, |m| m.len());
        usize::try_from(meta.count.min(bytes / MIN_RECORD_BYTES)).unwrap_or(usize::MAX)
    }

    /// The one read path: loads `meta`'s segment (and, for anything but
    /// [`Select::All`], its index) into `buffers`, reusing their memory from
    /// the last run loaded, and returns the walk over the selected records.
    /// Nothing read from disk sizes an allocation or indexes unchecked.
    pub(crate) fn scan<'b>(
        &self,
        meta: &'b RunMeta,
        select: Select,
        buffers: &'b mut Buffers,
    ) -> Result<Scan<'b>, StoreError> {
        let seg_path = self.root.join(&meta.segment);
        let index = |buf| Index::load(&seg_path.with_extension("idx"), buf, meta.count);
        let walk = match select {
            Select::All => Walk::Records(0, 0),
            Select::Kind(kind) => {
                let offsets = index(&mut buffers.index)?.kinds.get(&kind.code()).copied();
                Walk::Kind(kind, offsets.unwrap_or_default())
            }
            // A checkpoint (record index, byte offset, prefix max time) whose
            // prefix max lies before the window has only skippable records
            // before it: start at the last such one.
            Select::From(from_secs) => (index(&mut buffers.index)?.checkpoints.chunks_exact(24))
                .rfind(|cp| f64::from_bits(u64_at(cp, 16)) < from_secs)
                .map_or(Walk::Records(0, 0), |cp| {
                    Walk::Records(u64_at(cp, 0), u64_at(cp, 8))
                }),
        };
        read_into(&seg_path, &mut buffers.segment)?;
        Ok(Scan {
            meta,
            segment: &buffers.segment,
            walk,
        })
    }
}

/// The smallest encoded record: kind, flags, time and two empty strings.
const MIN_RECORD_BYTES: u64 = 2 + 8 + 4 + 4;

/// Replaces `buf`'s contents with the file at `path`, keeping its memory.
fn read_into(path: &Path, buf: &mut Vec<u8>) -> Result<(), StoreError> {
    buf.clear();
    File::open(path)
        .and_then(|mut file| file.read_to_end(buf))
        .map(drop)
        .map_err(io_err(path))
}

impl RunMeta {
    /// The error for damage found in this run's segment.
    pub(crate) fn corrupt(&self, what: impl fmt::Display) -> StoreError {
        StoreError::Corrupt(format!("{}: {what}", self.segment))
    }

    /// The error for a record string that is not UTF-8.
    pub(crate) fn non_utf8(&self, error: Utf8Error) -> StoreError {
        self.corrupt(format_args!("non-UTF-8 string: {error}"))
    }
}

/// Which records of a run a [`TraceStore::scan`] visits.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Select {
    /// Every record.
    All,
    /// A suffix holding every record with `time_secs >=` the bound.
    From(f64),
    /// The records of one kind, through the per-kind index.
    Kind(EventKind),
}

/// The memory one call's scans load segments and indices into, reused from
/// run to run.
#[derive(Default)]
pub(crate) struct Buffers {
    segment: Vec<u8>,
    index: Vec<u8>,
}

/// One run loaded by [`TraceStore::scan`], ready to be walked.
pub(crate) struct Scan<'b> {
    meta: &'b RunMeta,
    segment: &'b [u8],
    walk: Walk<'b>,
}

/// Where a [`Scan`] finds its records.
enum Walk<'b> {
    /// Records of one kind, at the index's offsets (raw little-endian `u64`s).
    Kind(EventKind, &'b [u8]),
    /// Every record from the given record number, which starts at the given
    /// byte offset.
    Records(u64, u64),
}

impl<'b> Scan<'b> {
    /// How many records [`visit`](Self::visit) hands over if the run is
    /// intact, capped by what the loaded bytes can hold.
    pub(crate) fn len(&self) -> usize {
        let count = match self.walk {
            Walk::Kind(_, offsets) => offsets.len() as u64 / 8,
            Walk::Records(first, offset) => (self.meta.count.saturating_sub(first))
                .min((self.segment.len() as u64).saturating_sub(offset) / MIN_RECORD_BYTES),
        };
        usize::try_from(count).unwrap_or(usize::MAX)
    }

    /// Decodes each selected record in append order and hands it to `visit`.
    /// A walk that does not end where the manifest and the index say it must
    /// is [`StoreError::Corrupt`].
    pub(crate) fn visit<E: From<StoreError>>(
        self,
        mut visit: impl FnMut(Record<'b>) -> Result<(), E>,
    ) -> Result<(), E> {
        let (meta, seg) = (self.meta, self.segment);
        let corrupt = |what: String| meta.corrupt(what);
        let tail = |offset: u64| {
            (usize::try_from(offset).ok())
                .and_then(|offset| seg.get(offset..))
                .ok_or_else(|| corrupt(format!("offset {offset} is past the segment's end")))
        };
        match self.walk {
            Walk::Kind(kind, offsets) => {
                // Offsets of one kind must walk forward through whole
                // records: each record starts in what the one before it left
                // unread.
                let mut unread = seg.len();
                for off in offsets.chunks_exact(8).map(|off| u64_at(off, 0)) {
                    let mut buf = tail(off)?;
                    if buf.len() > unread {
                        return Err(corrupt(format!("index offset {off} is out of order")).into());
                    }
                    let record = Record::decode(&mut buf)
                        .map_err(|e| corrupt(format!("offset {off}: {e}")))?;
                    if record.kind != kind {
                        return Err(corrupt(format!(
                            "index points offset {off} at a {} record, expected {kind}",
                            record.kind
                        ))
                        .into());
                    }
                    unread = buf.len();
                    visit(record)?;
                }
            }
            Walk::Records(first, offset) => {
                let mut buf = tail(offset)?;
                for i in first..meta.count {
                    let record = Record::decode(&mut buf)
                        .map_err(|e| corrupt(format!("record {i}: {e}")))?;
                    visit(record)?;
                }
                if !buf.is_empty() {
                    let what = format!("trailing bytes after {} records", meta.count);
                    return Err(corrupt(what).into());
                }
            }
        }
        Ok(())
    }
}

/// A parsed `.idx` file, borrowing the file's bytes.
#[derive(Default)]
struct Index<'a> {
    /// Per kind code, the record offsets as raw little-endian `u64`s.
    kinds: BTreeMap<u8, &'a [u8]>,
    /// The raw time checkpoints, 24 bytes each; empty for a store older
    /// than the section.
    checkpoints: &'a [u8],
}

impl<'a> Index<'a> {
    /// Reads the index file at `path` into `buf` and parses it.
    fn load(path: &Path, buf: &'a mut Vec<u8>, count: u64) -> Result<Index<'a>, StoreError> {
        read_into(path, buf)?;
        Index::parse(buf, count)
            .map_err(|e| StoreError::Corrupt(format!("{}: {e}", path.display())))
    }

    /// Parses both sections of an index file (see `RunBuffer::index` for
    /// the layout) for a run of `count`
    /// records. A count that promises more bytes than are left is a short
    /// read, whatever its size: nothing is allocated for it.
    fn parse(mut buf: &'a [u8], count: u64) -> io::Result<Index<'a>> {
        let sized = |n: u64, width: u64| usize::try_from(n.saturating_mul(width));
        let mut index = Index::default();
        let mut indexed = 0;
        for _ in 0..u32::from_le_bytes(take_array(&mut buf)?) {
            let [code] = take_array(&mut buf)?;
            let n = u64::from_le_bytes(take_array(&mut buf)?);
            let offsets = take(&mut buf, sized(n, 8).unwrap_or(usize::MAX))?;
            if index.kinds.insert(code, offsets).is_some() {
                return Err(invalid("duplicate kind code"));
            }
            indexed += n;
        }
        if indexed != count {
            return Err(invalid("indexed records differ from the manifest's count"));
        }
        if !buf.is_empty() {
            let n = u32::from_le_bytes(take_array(&mut buf)?);
            index.checkpoints = take(&mut buf, sized(n.into(), 24).unwrap_or(usize::MAX))?;
            if !buf.is_empty() {
                return Err(invalid("trailing bytes after the checkpoint section"));
            }
        }
        Ok(index)
    }
}

/// The little-endian `u64` at `bytes[at..at + 8]`.
fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("eight bytes"))
}

/// The segment file of the `n`th run in the manifest.
fn segment_name(n: usize) -> String {
    format!("{n:06}.seg")
}

/// Creates (or truncates) `path` and writes it through a buffer.
fn write_file(
    path: &Path,
    write: impl FnOnce(&mut io::BufWriter<File>) -> io::Result<()>,
) -> Result<(), StoreError> {
    let mut file = io::BufWriter::new(File::create(path).map_err(io_err(path))?);
    write(&mut file)
        .and_then(|()| file.flush())
        .map_err(io_err(path))
}

/// Bytes appended in chunks that never move. A chunk is allocated once, at
/// its final capacity: the first holds [`Chunks::FIRST`] bytes, each next
/// one twice its predecessor's up to [`Chunks::MAX`], where they stay (or,
/// for a single larger append, exactly that append). So a byte run that
/// grows to megabytes is never copied and never briefly held twice, as a
/// doubling `Vec` is on each growth, and it wastes at most one chunk's
/// spare room. An append never straddles two chunks, so a chunk holds whole
/// records.
#[derive(Debug, Clone, Default)]
pub(crate) struct Chunks {
    chunks: Vec<Vec<u8>>,
    len: usize,
}

impl Chunks {
    /// Capacity of the first chunk.
    const FIRST: usize = 1 << 10;
    /// Capacity every chunk grows to: under the smallest threshold at which
    /// a common allocator maps a block of its own, so chunks are recycled
    /// between runs rather than mapped and unmapped.
    const MAX: usize = 1 << 16;

    /// Bytes appended so far.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `n` bytes, which `write` pushes onto the chunk it is handed:
    /// the last one, or a new one when they would not fit in its spare room.
    fn append(&mut self, n: usize, write: impl FnOnce(&mut Vec<u8>)) {
        let chunk = match self.chunks.last_mut() {
            Some(last) if last.capacity() - last.len() >= n => last,
            last => {
                let next = last.map_or(Self::FIRST, |c| (c.capacity() * 2).min(Self::MAX));
                self.chunks.push(Vec::with_capacity(next.max(n)));
                self.chunks.last_mut().expect("just pushed")
            }
        };
        let before = chunk.len();
        write(chunk);
        debug_assert_eq!(chunk.len() - before, n, "an append writes what it named");
        self.len += n;
    }

    /// The chunks' bytes, in append order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.chunks.iter().map(Vec::as_slice)
    }

    fn write_to(&self, out: &mut impl Write) -> io::Result<()> {
        self.iter().try_for_each(|chunk| out.write_all(chunk))
    }
}

/// One run encoded as it arrives: the segment bytes, and the per-kind
/// offsets and time checkpoints its index is written from, each already in
/// its on-disk form. The only encoder of a record;
/// [`BufferSink`](crate::sink::BufferSink) wraps one.
#[derive(Debug, Clone, Default)]
pub struct RunBuffer {
    /// The records, in push order.
    pub(crate) segment: Chunks,
    /// Per kind code, the byte offset of each of its records (`u64`s).
    offsets: [Chunks; EventKind::ALL.len()],
    /// Every [`TIME_CHECKPOINT_STRIDE`] records, the next record's index and
    /// byte offset and the maximum time of the records before it (`u64`,
    /// `u64`, `f64`): a time-window read starts at the last checkpoint whose
    /// prefix lies wholly before the window.
    checkpoints: Chunks,
    /// Records pushed.
    pub(crate) count: u64,
    /// The maximum time among the records pushed (reset by the first push).
    prefix_max_secs: f64,
}

impl RunBuffer {
    /// Encodes one record onto the segment.
    ///
    /// Layout (little-endian): kind code `u8`, flags `u8` (bit 0 = has
    /// value, bit 1 = has correlation), time `f64`, subject length `u32` +
    /// bytes, detail length `u32` + bytes, then the optional value `f64`
    /// and correlation `u64`. The encoding is bijective, so a round trip
    /// through the store is bit-identical.
    ///
    /// # Panics
    ///
    /// If `subject` or `detail` is 4 GiB or longer.
    pub fn push(&mut self, event: EventRef<'_>) {
        let offset = (self.segment.len() as u64).to_le_bytes();
        if self.count == 0 {
            self.prefix_max_secs = f64::NEG_INFINITY;
        } else if self.count.is_multiple_of(TIME_CHECKPOINT_STRIDE) {
            let (count, max) = (self.count.to_le_bytes(), self.prefix_max_secs.to_le_bytes());
            self.checkpoints.append(24, |c| {
                c.extend(count);
                c.extend(offset);
                c.extend(max);
            });
        }
        self.prefix_max_secs = self.prefix_max_secs.max(event.time_secs);
        self.offsets[usize::from(event.kind.code())].append(8, |o| o.extend(offset));
        let flags = u8::from(event.value.is_some()) | (u8::from(event.correlation.is_some()) << 1);
        let optional =
            usize::from(event.value.is_some()) + usize::from(event.correlation.is_some());
        let len =
            MIN_RECORD_BYTES as usize + event.subject.len() + event.detail.len() + 8 * optional;
        self.segment.append(len, |segment| {
            segment.extend([event.kind.code(), flags]);
            segment.extend(event.time_secs.to_le_bytes());
            for text in [event.subject, event.detail] {
                let len = u32::try_from(text.len()).expect("a trace string is under 4 GiB");
                segment.extend(len.to_le_bytes());
                segment.extend_from_slice(text.as_bytes());
            }
            if let Some(value) = event.value {
                segment.extend(value.to_le_bytes());
            }
            if let Some(correlation) = event.correlation {
                segment.extend(correlation.to_le_bytes());
            }
        });
        self.count += 1;
    }

    /// Writes the `.idx` file: kind count (`u32`), then per kind present
    /// (code, record count, offsets), kinds in code order; then the
    /// time-checkpoint section (count as `u32`, then the checkpoints). Old
    /// readers stop after the kind entries and never see the checkpoints.
    fn write_index(&self, out: &mut impl Write) -> io::Result<()> {
        let kinds = (EventKind::ALL.iter().zip(&self.offsets)).filter(|(_, offs)| !offs.is_empty());
        let checkpoints = u32::try_from(self.checkpoints.len() / 24).expect("under 2^32 of them");
        out.write_all(&(kinds.clone().count() as u32).to_le_bytes())?;
        for (kind, offsets) in kinds {
            out.write_all(&[kind.code()])?;
            out.write_all(&(offsets.len() as u64 / 8).to_le_bytes())?;
            offsets.write_to(out)?;
        }
        out.write_all(&checkpoints.to_le_bytes())?;
        self.checkpoints.write_to(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tracestore-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::new(0.0, EventKind::Info, "framework", "gauges deployed"),
            TraceEvent::new(5.0, EventKind::Gauge, "C3", "availableBandwidth").with_value(9.4e6),
            TraceEvent::new(10.0, EventKind::Violation, "C3", "minBandwidth"),
            TraceEvent::new(10.0, EventKind::RepairStart, "C3", "moveClient").with_correlation(1),
            TraceEvent::new(35.0, EventKind::RepairEnd, "C3", "moveClient").with_correlation(1),
            TraceEvent::new(40.0, EventKind::Gauge, "C3", "availableBandwidth").with_value(3.0e6),
        ]
    }

    #[test]
    fn append_read_round_trip_and_reopen() {
        let dir = tmpdir("roundtrip");
        let events = sample_events();
        {
            let mut store = TraceStore::open(&dir).unwrap();
            store.append_run("run-a", &events).unwrap();
            store.append_run("run-b", &events[..2]).unwrap();
            assert_eq!(store.total_events(), 8);
        }
        let store = TraceStore::open(&dir).unwrap();
        assert_eq!(
            store.runs().iter().map(|r| r.run_id).collect::<Vec<_>>(),
            vec!["run-a", "run-b"]
        );
        assert_eq!(store.read_run("run-a").unwrap(), events);
        assert_eq!(store.read_run("run-b").unwrap(), &events[..2]);
        assert!(matches!(
            store.read_run("run-c"),
            Err(StoreError::UnknownRun(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kind_index_seeks_to_matching_records_only() {
        let dir = tmpdir("kinds");
        let events = sample_events();
        let mut store = TraceStore::open(&dir).unwrap();
        store.append_run("run-a", &events).unwrap();
        let gauges = store.read_run_kind("run-a", EventKind::Gauge).unwrap();
        assert_eq!(gauges.len(), 2);
        assert_eq!(gauges[0].value, Some(9.4e6));
        assert_eq!(gauges[1].value, Some(3.0e6));
        assert!(store
            .read_run_kind("run-a", EventKind::Transfer)
            .unwrap()
            .is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_and_invalid_run_ids_are_rejected() {
        let dir = tmpdir("ids");
        let mut store = TraceStore::open(&dir).unwrap();
        store.append_run("run-a", &[]).unwrap();
        assert!(matches!(
            store.append_run("run-a", &[]),
            Err(StoreError::DuplicateRun(_))
        ));
        assert!(matches!(
            store.append_run("bad\tid", &[]),
            Err(StoreError::InvalidRunId(_))
        ));
        assert!(matches!(
            store.append_run("", &[]),
            Err(StoreError::InvalidRunId(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A long near-sorted run with tick-time ties, long enough for several
    /// checkpoint strides.
    fn long_run() -> Vec<TraceEvent> {
        let mut events = Vec::new();
        for tick in 0..200u64 {
            let t = tick as f64 * 5.0;
            for g in 0..3 {
                events.push(
                    TraceEvent::new(t, EventKind::Gauge, &format!("C{g}"), "latency")
                        .with_value(t / 100.0 + g as f64),
                );
            }
            if tick % 7 == 0 {
                // Slightly stale delivery: an event timestamped before the
                // tick, exercising the prefix-max (not last-time) invariant.
                events.push(TraceEvent::new(
                    (t - 2.5).max(0.0),
                    EventKind::Info,
                    "probe",
                    "late delivery",
                ));
            }
        }
        events
    }

    #[test]
    fn window_seek_is_equivalent_to_a_full_scan() {
        let dir = tmpdir("window-seek");
        let events = long_run();
        let mut store = TraceStore::open(&dir).unwrap();
        store.append_run("run-a", &events).unwrap();
        let full = store.read_run("run-a").unwrap();
        assert_eq!(full, events);
        for from in [-1.0, 0.0, 2.5, 123.0, 500.0, 997.5, 5000.0] {
            let suffix = store.read_run_from("run-a", from).unwrap();
            // The seek returns a suffix of the full scan…
            assert_eq!(suffix, full[full.len() - suffix.len()..], "from={from}");
            // …whose skipped prefix lies entirely before the window…
            assert!(
                full[..full.len() - suffix.len()]
                    .iter()
                    .all(|e| e.time_secs < from),
                "from={from}"
            );
            // …so window-filtering both yields identical results.
            let filter = |evs: &[TraceEvent]| -> Vec<TraceEvent> {
                evs.iter()
                    .filter(|e| e.time_secs >= from)
                    .cloned()
                    .collect()
            };
            assert_eq!(filter(&suffix), filter(&full), "from={from}");
        }
        // A late window actually skips records (the index is doing work).
        assert!(store.read_run_from("run-a", 900.0).unwrap().len() < full.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stores_without_a_checkpoint_section_fall_back_to_full_scans() {
        let dir = tmpdir("legacy-idx");
        let events = long_run();
        let mut store = TraceStore::open(&dir).unwrap();
        store.append_run("run-a", &events).unwrap();
        // Truncate the index to the kind section alone, reproducing a store
        // written before time checkpoints existed.
        let idx_path = dir.join("000000.idx");
        let bytes = std::fs::read(&idx_path).unwrap();
        let mut pos = 4usize;
        let kinds = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
        for _ in 0..kinds {
            let n = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap());
            pos += 1 + 8 + n as usize * 8;
        }
        assert!(pos < bytes.len(), "the checkpoint section exists");
        std::fs::write(&idx_path, &bytes[..pos]).unwrap();
        // Kind reads are untouched and window reads degrade to full scans.
        let store = TraceStore::open(&dir).unwrap();
        assert_eq!(
            store.read_run_kind("run-a", EventKind::Info).unwrap().len(),
            events.iter().filter(|e| e.kind == EventKind::Info).count()
        );
        assert_eq!(store.read_run_from("run-a", 900.0).unwrap(), events);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Structural damage is `Corrupt` on every read path: never a short
    /// answer, a slice panic, or an allocation sized by the damaged field.
    #[test]
    fn structural_damage_is_corrupt_on_every_read_path() {
        let dir = tmpdir("damage");
        let events = long_run();
        TraceStore::open(&dir)
            .unwrap()
            .append_run("run-a", &events)
            .unwrap();
        let store = TraceStore::open(&dir).unwrap();
        let (seg_path, idx_path) = (dir.join("000000.seg"), dir.join("000000.idx"));
        let seg = std::fs::read(&seg_path).unwrap();
        let idx = std::fs::read(&idx_path).unwrap();
        let corrupt = |result: Result<Vec<TraceEvent>, StoreError>, what: &str| {
            assert!(
                matches!(result, Err(StoreError::Corrupt(_))),
                "{what}: {result:?}"
            );
        };
        let gauges = || store.read_run_kind("run-a", EventKind::Gauge);

        std::fs::write(&seg_path, [&seg[..], &[0]].concat()).unwrap();
        corrupt(store.read_run("run-a"), "trailing byte, full scan");
        corrupt(store.read_run_from("run-a", 900.0), "trailing byte, window");
        std::fs::write(&seg_path, &seg[..seg.len() - 1]).unwrap();
        corrupt(store.read_run("run-a"), "truncated, full scan");
        corrupt(store.read_run_from("run-a", 900.0), "truncated, window");
        corrupt(gauges(), "truncated, kind");
        std::fs::write(&seg_path, &seg).unwrap();

        // The index opens with the kind count (u32) and the first entry:
        // code 0 (gauge) at byte 4, its offset count at 5, its offsets from 13.
        assert_eq!(idx[4], EventKind::Gauge.code());
        let patched = |at: usize, bytes: &[u8]| {
            let mut idx = idx.clone();
            idx[at..at + bytes.len()].copy_from_slice(bytes);
            std::fs::write(&idx_path, idx).unwrap();
        };
        patched(5, &(1u64 << 63).to_le_bytes());
        corrupt(gauges(), "offset count with a flipped high bit");
        corrupt(store.read_run_from("run-a", 900.0), "the same, window");
        patched(13, &(seg.len() as u64 + 1).to_le_bytes());
        corrupt(gauges(), "offset past the segment end");
        patched(21, &0u64.to_le_bytes());
        corrupt(gauges(), "offset inside the previous record");
        patched(4, &[EventKind::Transfer.code()]);
        corrupt(
            store.read_run_kind("run-a", EventKind::Transfer),
            "offsets of another kind",
        );
        let checkpoints = events.len() / TIME_CHECKPOINT_STRIDE as usize;
        patched(idx.len() - 24 * checkpoints - 4, &u32::MAX.to_le_bytes());
        corrupt(store.read_run_from("run-a", 900.0), "checkpoint count");
        // One offset fewer than the manifest counts, the section still whole.
        let n = u64::from_le_bytes(idx[5..13].try_into().unwrap());
        let mut short = idx.clone();
        short[5..13].copy_from_slice(&(n - 1).to_le_bytes());
        short.drain(13..21);
        std::fs::write(&idx_path, short).unwrap();
        corrupt(gauges(), "fewer offsets than records");
        std::fs::write(&idx_path, &idx).unwrap();
        assert_eq!(gauges().unwrap().len(), n as usize);

        // A manifest count no segment could hold sizes nothing.
        let line = format!("000000.seg\t{}\trun-a\n", u64::MAX);
        std::fs::write(dir.join(MANIFEST), line).unwrap();
        let store = TraceStore::open(&dir).unwrap();
        corrupt(store.read_run("run-a"), "manifest count");
        corrupt(
            store.read_run_kind("run-a", EventKind::Gauge),
            "manifest count",
        );

        // A manifest naming a file outside the store (or any segment but
        // its line's own), or holding one run id twice, does not open.
        for (manifest, what) in [
            ("../x.seg\t0\trun-a\n", "a segment outside the store"),
            ("000001.seg\t0\trun-a\n", "another line's segment"),
            (
                "000000.seg\t0\trun-a\n000001.seg\t0\trun-a\n",
                "a repeated run id",
            ),
        ] {
            std::fs::write(dir.join(MANIFEST), manifest).unwrap();
            let opened = TraceStore::open(&dir);
            assert!(
                matches!(opened, Err(StoreError::Corrupt(_))),
                "{what}: {opened:?}"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn identical_appends_produce_byte_identical_stores() {
        let dir1 = tmpdir("bytes1");
        let dir2 = tmpdir("bytes2");
        let events = sample_events();
        for dir in [&dir1, &dir2] {
            let mut store = TraceStore::open(dir).unwrap();
            store.append_run("run-a", &events).unwrap();
            store.append_run("run-b", &events[1..3]).unwrap();
        }
        for name in [
            MANIFEST,
            "000000.seg",
            "000000.idx",
            "000001.seg",
            "000001.idx",
        ] {
            let a = std::fs::read(dir1.join(name)).unwrap();
            let b = std::fs::read(dir2.join(name)).unwrap();
            assert_eq!(a, b, "{name} differs");
        }
        std::fs::remove_dir_all(&dir1).unwrap();
        std::fs::remove_dir_all(&dir2).unwrap();
    }
}
