//! Corpus directories: many named, tagged traces in one directory.
//!
//! The layout the batch tools share — `kastio generate` writes it,
//! `kastio cluster` reads it, and the corpus index imports it: one
//! `<name>.trace` file per entry (the [`crate::text`] format) plus a
//! `MANIFEST` of `<name> <tag>` lines. The *meaning* of the tag belongs to
//! the caller (the dataset importer maps it to a category, the index
//! stores it as a free-form label); this module only walks the layout.

use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::text::{parse_trace, write_trace, ParseTraceError};
use crate::trace::Trace;

/// One corpus-directory entry: a named trace with an uninterpreted tag.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusEntry {
    /// File stem of the trace (`<name>.trace`).
    pub name: String,
    /// The manifest tag (a category letter, a label — caller's business).
    pub tag: String,
    /// 1-based manifest line the entry came from (0 when writing).
    pub line: usize,
    /// The parsed trace.
    pub trace: Trace,
}

/// Errors arising while reading or writing a corpus directory.
#[derive(Debug)]
pub enum CorpusIoError {
    /// Filesystem failure.
    Io(io::Error),
    /// A trace file failed to parse.
    Parse {
        /// The file that failed.
        file: String,
        /// The underlying parse error.
        source: ParseTraceError,
    },
    /// The manifest was malformed at the given line.
    BadManifest {
        /// 1-based manifest line number.
        line: usize,
    },
    /// The manifest references a trace file that does not exist.
    MissingTrace {
        /// The missing entry name.
        name: String,
    },
    /// An entry name or tag cannot be represented in the layout (empty,
    /// contains whitespace or a path separator, or starts with a dot) —
    /// writing it would produce an unloadable manifest or a file outside
    /// the corpus directory.
    BadEntry {
        /// The offending name or tag.
        field: String,
    },
}

impl fmt::Display for CorpusIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusIoError::Io(e) => write!(f, "corpus io: {e}"),
            CorpusIoError::Parse { file, source } => {
                write!(f, "trace file {file} failed to parse: {source}")
            }
            CorpusIoError::BadManifest { line } => {
                write!(f, "manifest line {line} is malformed (expected `<name> <tag>`)")
            }
            CorpusIoError::MissingTrace { name } => {
                write!(f, "manifest references missing trace `{name}`")
            }
            CorpusIoError::BadEntry { field } => {
                write!(
                    f,
                    "entry name/tag `{field}` cannot be written \
                     (empty, whitespace, path separator or leading dot)"
                )
            }
        }
    }
}

impl Error for CorpusIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CorpusIoError::Io(e) => Some(e),
            CorpusIoError::Parse { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for CorpusIoError {
    fn from(e: io::Error) -> Self {
        CorpusIoError::Io(e)
    }
}

/// Whether a string can serve as a corpus entry *name*: non-empty, no
/// whitespace (the manifest is whitespace-delimited), no path separators
/// and no leading dot (names become file names inside the corpus
/// directory).
///
/// # Examples
///
/// ```
/// use kastio_trace::valid_entry_name;
///
/// assert!(valid_entry_name("checkpoint-03"));
/// assert!(!valid_entry_name("has space"));
/// assert!(!valid_entry_name("../escape"));
/// assert!(!valid_entry_name(".hidden"));
/// assert!(!valid_entry_name(""));
/// ```
pub fn valid_entry_name(name: &str) -> bool {
    !name.is_empty()
        && !name.contains(char::is_whitespace)
        && !name.contains(['/', '\\'])
        && !name.starts_with('.')
}

/// Whether a string can serve as a corpus entry *tag* (label): non-empty
/// and whitespace-free, so the `<name> <tag>` manifest line round-trips.
///
/// # Examples
///
/// ```
/// use kastio_trace::valid_entry_tag;
///
/// assert!(valid_entry_tag("flash-io"));
/// assert!(valid_entry_tag("a/b.c")); // tags never become file names
/// assert!(!valid_entry_tag("two words"));
/// assert!(!valid_entry_tag("line\nbreak"));
/// assert!(!valid_entry_tag(""));
/// ```
pub fn valid_entry_tag(tag: &str) -> bool {
    !tag.is_empty() && !tag.contains(char::is_whitespace)
}

/// Writes `bytes` to `path` atomically with respect to process crashes:
/// the content goes to a `.tmp` sibling first and is renamed into place,
/// so a reader (or a reload after a crash mid-write) sees either the old
/// complete file or the new complete file, never a torn prefix.
fn write_file_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    if let Err(e) = fs::write(&tmp, bytes) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(())
}

/// Writes `(name, tag, trace)` entries into `dir` as `<name>.trace` files
/// plus a `MANIFEST`, creating the directory if missing and overwriting
/// existing files.
///
/// Every file is written via a temp-file-plus-rename (a `.tmp` sibling
/// renamed into place), and the `MANIFEST` is written **last**: a crash mid-write
/// can therefore never leave a torn trace file or a manifest that
/// references files which were not fully written. When overwriting an
/// existing corpus the old `MANIFEST` stays in place (and loadable) until
/// every trace file of the new corpus is on disk. Note this is *per-file*
/// atomicity against process crashes only: nothing is fsync'd, so this
/// is a dataset export format, not a durable one. The index's snapshots
/// are a single fsync'd file of [`crate::wal`] records instead.
///
/// Returns the total bytes written (trace files plus the manifest).
///
/// # Errors
///
/// * [`CorpusIoError::BadEntry`] for a name or tag the layout cannot
///   represent (checked *before* anything is written, so a save never
///   half-succeeds into an unloadable corpus);
/// * [`CorpusIoError::Io`] on any filesystem failure.
pub fn write_corpus<'a, I>(dir: &Path, entries: I) -> Result<u64, CorpusIoError>
where
    I: IntoIterator<Item = (&'a str, &'a str, &'a Trace)>,
{
    let entries: Vec<_> = entries.into_iter().collect();
    for &(name, tag, _) in &entries {
        if !valid_entry_name(name) {
            return Err(CorpusIoError::BadEntry { field: name.to_string() });
        }
        if !valid_entry_tag(tag) {
            return Err(CorpusIoError::BadEntry { field: tag.to_string() });
        }
    }
    fs::create_dir_all(dir)?;
    let mut bytes = 0u64;
    let mut manifest = String::new();
    for (name, tag, trace) in entries {
        let body = write_trace(trace);
        write_file_atomic(&dir.join(format!("{name}.trace")), body.as_bytes())?;
        bytes += body.len() as u64;
        manifest.push_str(&format!("{name} {tag}\n"));
    }
    write_file_atomic(&dir.join("MANIFEST"), manifest.as_bytes())?;
    Ok(bytes + manifest.len() as u64)
}

/// One `MANIFEST` line, before its trace file is touched.
///
/// Callers that interpret tags (the dataset importer maps them to
/// categories) validate on these first, so a tag error is reported
/// without reading or parsing any trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// File stem of the trace (`<name>.trace`).
    pub name: String,
    /// The manifest tag.
    pub tag: String,
    /// 1-based manifest line number.
    pub line: usize,
}

/// Reads and parses just the `MANIFEST` of a corpus directory, in order.
/// Blank lines and `#` comments are skipped.
///
/// # Errors
///
/// * [`CorpusIoError::Io`] on filesystem failures;
/// * [`CorpusIoError::BadManifest`] for malformed manifest lines.
pub fn read_manifest(dir: &Path) -> Result<Vec<ManifestEntry>, CorpusIoError> {
    let manifest = fs::read_to_string(dir.join("MANIFEST"))?;
    let mut entries = Vec::new();
    for (idx, raw) in manifest.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (name, tag) = match (parts.next(), parts.next(), parts.next()) {
            (Some(name), Some(tag), None) => (name, tag),
            _ => return Err(CorpusIoError::BadManifest { line: idx + 1 }),
        };
        entries.push(ManifestEntry { name: name.to_string(), tag: tag.to_string(), line: idx + 1 });
    }
    Ok(entries)
}

/// Loads the trace file behind one manifest entry.
///
/// # Errors
///
/// * [`CorpusIoError::MissingTrace`] if the entry has no file;
/// * [`CorpusIoError::Parse`] if the trace file is malformed;
/// * [`CorpusIoError::Io`] on other filesystem failures.
pub fn load_manifest_trace(dir: &Path, name: &str) -> Result<Trace, CorpusIoError> {
    let file = dir.join(format!("{name}.trace"));
    let text = fs::read_to_string(&file).map_err(|e| {
        if e.kind() == io::ErrorKind::NotFound {
            CorpusIoError::MissingTrace { name: name.to_string() }
        } else {
            CorpusIoError::Io(e)
        }
    })?;
    parse_trace(&text)
        .map_err(|source| CorpusIoError::Parse { file: file.display().to_string(), source })
}

/// Reads a corpus directory back, in manifest order:
/// [`read_manifest`] plus [`load_manifest_trace`] per entry.
///
/// # Errors
///
/// Everything [`read_manifest`] and [`load_manifest_trace`] report.
pub fn read_corpus(dir: &Path) -> Result<Vec<CorpusEntry>, CorpusIoError> {
    read_manifest(dir)?
        .into_iter()
        .map(|entry| {
            let trace = load_manifest_trace(dir, &entry.name)?;
            Ok(CorpusEntry { name: entry.name, tag: entry.tag, line: entry.line, trace })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("kastio-corpus-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip_preserves_entries_in_order() {
        let dir = tmpdir("roundtrip");
        let a = parse_trace("h0 write 64\n").unwrap();
        let b = parse_trace("h0 read 8\nh0 read 8\n").unwrap();
        let bytes = write_corpus(&dir, [("one", "X", &a), ("two", "label-y", &b)]).unwrap();
        let on_disk: u64 =
            fs::read_dir(&dir).unwrap().map(|e| e.unwrap().metadata().unwrap().len()).sum();
        assert_eq!(bytes, on_disk, "reported bytes match what landed on disk");
        let back = read_corpus(&dir).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!((back[0].name.as_str(), back[0].tag.as_str()), ("one", "X"));
        assert_eq!(back[0].trace, a);
        assert_eq!((back[1].name.as_str(), back[1].tag.as_str()), ("two", "label-y"));
        assert_eq!(back[1].line, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let dir = tmpdir("comments");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("MANIFEST"), "# header\n\nx A\n").unwrap();
        fs::write(dir.join("x.trace"), "h0 write 1\n").unwrap();
        let back = read_corpus(&dir).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].line, 3, "line numbers count skipped lines");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unwritable_names_and_tags_are_rejected_before_writing() {
        let dir = tmpdir("badentry");
        let t = parse_trace("h0 write 1\n").unwrap();
        for (name, tag) in
            [("has space", "A"), ("../escape", "A"), (".hidden", "A"), ("", "A"), ("ok", "b ad")]
        {
            let err = write_corpus(&dir, [(name, tag, &t)]).unwrap_err();
            assert!(matches!(err, CorpusIoError::BadEntry { .. }), "{name}/{tag}: {err}");
        }
        assert!(!dir.exists(), "nothing was written for rejected entries");
        // A plain valid entry still writes fine.
        write_corpus(&dir, [("ok", "label-1", &t)]).unwrap();
        assert_eq!(read_corpus(&dir).unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writes_leave_no_temp_files_behind() {
        let dir = tmpdir("notmp");
        let t = parse_trace("h0 write 1\n").unwrap();
        write_corpus(&dir, [("a", "X", &t), ("b", "Y", &t)]).unwrap();
        let stray: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".tmp"))
            .collect();
        assert!(stray.is_empty(), "temp files were left behind: {stray:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_overwrite_keeps_the_old_manifest_loadable() {
        let dir = tmpdir("failed-overwrite");
        let t = parse_trace("h0 write 1\n").unwrap();
        write_corpus(&dir, [("a", "X", &t), ("b", "Y", &t)]).unwrap();

        // A 300-byte name passes manifest validation but exceeds the
        // filesystem's name limit, so the second save fails with an IO
        // error *after* validation — mid-write, like a crash would.
        let long = "x".repeat(300);
        let err = write_corpus(&dir, [("a", "X", &t), (long.as_str(), "Y", &t)]).unwrap_err();
        assert!(matches!(err, CorpusIoError::Io(_)), "{err}");

        // MANIFEST is written last, so the old corpus is still loadable.
        let back = read_corpus(&dir).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].name, "b");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn validators_are_exported_and_consistent_with_write_corpus() {
        assert!(valid_entry_name("ok-1"));
        for bad in ["has space", "../up", "a\\b", ".dot", "", "nl\n"] {
            assert!(!valid_entry_name(bad), "{bad:?}");
        }
        assert!(valid_entry_tag("label.with/odd-chars"));
        for bad in ["two words", "", "tab\there", "nl\nhere"] {
            assert!(!valid_entry_tag(bad), "{bad:?}");
        }
    }

    #[test]
    fn bad_manifest_missing_trace_and_parse_errors() {
        let dir = tmpdir("errors");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("MANIFEST"), "too many fields here\n").unwrap();
        assert!(matches!(read_corpus(&dir), Err(CorpusIoError::BadManifest { line: 1 })));

        fs::write(dir.join("MANIFEST"), "ghost A\n").unwrap();
        let err = read_corpus(&dir).unwrap_err();
        assert!(matches!(&err, CorpusIoError::MissingTrace { name } if name == "ghost"));

        fs::write(dir.join("MANIFEST"), "bad A\n").unwrap();
        fs::write(dir.join("bad.trace"), "not a trace\n").unwrap();
        let err = read_corpus(&dir).unwrap_err();
        assert!(matches!(&err, CorpusIoError::Parse { file, .. } if file.contains("bad.trace")));
        assert!(err.source().is_some());
        fs::remove_dir_all(&dir).unwrap();
    }
}
