//! Durable writes: every artifact replace and line append goes through
//! here, safe against `kill -9` and power loss. [`replace`] swaps a whole
//! file; [`open_append`] opens a line log, in which a line is committed
//! once its `\n` is on disk.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};

/// Replaces `path` with what `write` produces: it fills `<file name>.tmp`
/// beside `path`, which is fsynced and renamed over it; then the parent
/// directory (`.` for a bare file name) is fsynced. Readers, and a
/// reboot, see the old content or the new, never a torn mix.
///
/// # Errors
///
/// Propagates I/O errors (`InvalidInput` for a path without a file name).
pub fn replace(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut tmp = path.file_name().ok_or(std::io::ErrorKind::InvalidInput)?.to_os_string();
    tmp.push(".tmp");
    let tmp = path.with_file_name(tmp);
    // aal-lint: allow(raw-artifact-write, reason = "temp side of durable::replace")
    let mut w = BufWriter::new(File::create(&tmp)?);
    write(&mut w)?;
    w.into_inner().map_err(std::io::IntoInnerError::into_error)?.sync_all()?;
    std::fs::rename(&tmp, path)?;
    sync_parent(path)
}

/// Opens the line log at `path` for appends, after truncating anything
/// past its last `\n` (a line torn mid-append).
///
/// # Errors
///
/// Propagates I/O errors.
pub fn open_append(path: &Path) -> std::io::Result<Appender> {
    let file = OpenOptions::new().read(true).append(true).create(true).open(path)?;
    let mut log = Appender { file, new_file: None };
    let mut body = Vec::new();
    log.file.read_to_end(&mut body)?;
    // Possibly just created: the first sync must make its directory
    // entry durable too.
    log.new_file = body.is_empty().then(|| path.to_path_buf());
    log.truncate(body.iter().rposition(|&b| b == b'\n').map_or(0, |nl| nl as u64 + 1))?;
    Ok(log)
}

/// Creates the directory `path` (and any missing parents), then fsyncs
/// its parent so the new entry survives power loss. An existing
/// directory is left as it is.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn create_dir(path: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(path)?;
    sync_parent(path)
}

/// Fsyncs the directory holding `path` (`.` for a bare file name), so a
/// rename or create in it survives power loss. Directories cannot be
/// opened for syncing off Unix, where this is a no-op.
fn sync_parent(path: &Path) -> std::io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty()).unwrap_or(Path::new("."));
    if cfg!(unix) {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// A line log opened by [`open_append`]; its methods propagate I/O errors.
#[derive(Debug)]
pub struct Appender {
    file: File,
    /// The path of a file opened empty, until a sync has fsynced its
    /// directory.
    new_file: Option<PathBuf>,
}

impl Appender {
    /// Appends `line` (holding no `\n`) and its newline in one `write_all`.
    pub fn append_line(&mut self, line: &[u8]) -> std::io::Result<()> {
        self.file.write_all(&[line, b"\n"].concat())
    }

    /// Cuts the log to `len` bytes and fsyncs the cut (a no-op when it is
    /// not longer), for callers whose parser rejects committed lines too.
    pub fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        if self.file.metadata()?.len() > len {
            self.file.set_len(len)?;
            self.file.sync_all()?;
        }
        Ok(())
    }

    /// `fdatasync` (and, for a new file, a directory fsync): every line
    /// appended so far survives power loss.
    pub fn sync_data(&mut self) -> std::io::Result<()> {
        self.file.sync_data()?;
        if let Some(path) = &self.new_file {
            sync_parent(path)?;
            self.new_file = None;
        }
        Ok(())
    }
}

/// Raw buffered writes, for a caller that frames its own lines (the
/// trace sink); unlike [`Appender::append_line`], a line may span writes.
impl std::io::Write for Appender {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.file.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("aaltune-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn put(path: &Path, body: &[u8]) -> std::io::Result<()> {
        replace(path, |w| w.write_all(body))
    }

    #[test]
    fn a_stale_temp_of_any_length_never_touches_the_target() {
        let dir = tmp_dir("stale");
        let path = dir.join("checkpoint.json");
        let old = b"{\"completed\": [\"a\"]}\n";
        let new = b"{\"completed\": [\"a\", \"b\"]}\n";
        put(&path, old).unwrap();
        for cut in 0..=new.len() {
            // A crash mid-replace leaves a prefix of the new body in the
            // temp file and the old target in place.
            std::fs::write(dir.join("checkpoint.json.tmp"), &new[..cut]).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), old, "cut at {cut}");
            put(&path, new).unwrap();
            assert_eq!(std::fs::read(&path).unwrap(), new, "cut at {cut}");
            assert!(!dir.join("checkpoint.json.tmp").exists());
            put(&path, old).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn targets_differing_only_in_extension_get_distinct_temps() {
        let dir = tmp_dir("ext");
        // A stale temp of each target: both must survive the other's
        // replace, which they only do if the temp names differ.
        std::fs::write(dir.join("a.json.tmp"), "stale").unwrap();
        std::fs::write(dir.join("a.prom.tmp"), "stale").unwrap();
        put(&dir.join("a.json"), b"{}").unwrap();
        assert_eq!(std::fs::read(dir.join("a.prom.tmp")).unwrap(), b"stale");
        put(&dir.join("a.prom"), b"x 1\n").unwrap();
        assert_eq!(std::fs::read(dir.join("a.json")).unwrap(), b"{}");
        assert_eq!(std::fs::read(dir.join("a.prom")).unwrap(), b"x 1\n");
        assert!(!dir.join("a.json.tmp").exists() && !dir.join("a.prom.tmp").exists());
        assert!(put(Path::new("/"), b"").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replace_accepts_a_bare_file_name() {
        // Every other test in this crate uses absolute paths, so moving
        // the process's working directory cannot disturb them.
        let dir = tmp_dir("bare");
        let before = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let r = put(Path::new("serve.addr"), b"127.0.0.1:1");
        std::env::set_current_dir(before).unwrap();
        r.unwrap();
        assert_eq!(std::fs::read(dir.join("serve.addr")).unwrap(), b"127.0.0.1:1");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_append_drops_exactly_the_torn_tail() {
        let dir = tmp_dir("append");
        let path = dir.join("journal.jsonl");
        let committed = b"{\"id\":\"j1\"}\n{\"id\":\"j2\"}\n";
        let last = b"{\"id\":\"j3\"}\n";
        // Every prefix of the final line, from none of it to all of it
        // (the full line is committed and must survive).
        for cut in 0..=last.len() {
            let mut body = committed.to_vec();
            body.extend_from_slice(&last[..cut]);
            std::fs::write(&path, &body).unwrap();
            let mut log = open_append(&path).unwrap();
            let kept = if cut == last.len() { body.clone() } else { committed.to_vec() };
            assert_eq!(std::fs::read(&path).unwrap(), kept, "cut at {cut}");
            log.append_line(b"{\"id\":\"j4\"}").unwrap();
            log.sync_data().unwrap();
            let mut want = kept;
            want.extend_from_slice(b"{\"id\":\"j4\"}\n");
            assert_eq!(std::fs::read(&path).unwrap(), want, "cut at {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_append_leaves_new_and_clean_files_alone() {
        let dir = tmp_dir("clean");
        let path = dir.join("index.jsonl");
        open_append(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"");
        // A long clean line is kept, and appended after.
        let mut long = vec![b'x'; 10_000];
        long.push(b'\n');
        std::fs::write(&path, &long).unwrap();
        open_append(&path).unwrap().append_line(b"y").unwrap();
        long.extend_from_slice(b"y\n");
        assert_eq!(std::fs::read(&path).unwrap(), long);
        // A long torn line is dropped whole.
        std::fs::write(&path, [b"a\n".as_slice(), &[b'z'; 9_000]].concat()).unwrap();
        open_append(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"a\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
