//! Content-addressed, append-only result store with hash-chained
//! records and atomic publish.
//!
//! Sweeps address their per-cell observation streams by a stable text
//! **key** (in practice a [`tg_core` scenario] label plus the epoch
//! count — anything that uniquely determines the bytes that will be
//! stored). Each key maps to one stream file under the store
//! directory, named by the SHA-256 of the key, holding one **record**
//! per line. Records are hash-chained in the style of an epoch log:
//! record *i* commits to the hash of record *i−1* (and record 0 to the
//! header, which commits to the key), and a final seal line commits to
//! the record count and the last hash. A reader re-derives the whole
//! chain, so a flipped byte, a dropped record, or a truncated tail is
//! detected — not silently replayed as valid-but-short data.
//!
//! Stream file layout (text, one record per line):
//!
//! ```text
//! tgstore1;<key>                 header: format version + key
//! r;0;<hash0>;<payload0>         hash0 = H(H(header) ";" 0 ";" payload0)
//! r;1;<hash1>;<payload1>         hash1 = H(hash0 ";" 1 ";" payload1)
//! ...
//! s;<count>;<last-hash>          seal: record count + final chain hash
//! ```
//!
//! Writes are **atomic**: a stream is always written in full to a
//! unique temp file in the same directory, fsynced, then renamed over
//! the destination ([`write_atomic`]). `append` is read-verify-extend-
//! republish, so the chain stays valid under crash at any point — a
//! reader sees either the old sealed stream or the new one, never a
//! torn middle.
//!
//! [`tg_core` scenario]: https://docs.rs/tg-core

use std::fmt;
use std::fs;
use std::io::{self, BufRead as _, BufReader, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use tg_crypto::Sha256;

/// Format version tag, first field of every stream header.
pub const STORE_VERSION: &str = "tgstore1";

/// Extension of stream files inside the store directory.
const STREAM_EXT: &str = "tgs";

/// Name of the derived, human-readable index file.
pub const INDEX_FILE: &str = "index.tsv";

/// The largest stream file a reader accepts, 64 MiB. A sweep cell's
/// stream is a few kilobytes; anything past the cap is damage, and is
/// refused before a byte of it is read.
pub const MAX_STREAM_BYTES: u64 = 64 << 20;

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error while touching the stream for `key`.
    Io {
        /// The stream key involved.
        key: String,
        /// The operation that failed ("read", "publish", …).
        op: &'static str,
        /// The originating I/O error.
        source: io::Error,
    },
    /// The stream bytes for `key` fail chain verification.
    Corrupt {
        /// The stream key (cell label) whose stream is damaged.
        key: String,
        /// Index of the first record that fails verification (the
        /// record count for a damaged or missing seal).
        record: usize,
        /// What exactly went wrong.
        detail: String,
    },
    /// A record handed to `put`/`append` cannot be stored faithfully.
    BadPayload {
        /// The stream key involved.
        key: String,
        /// What is wrong with the payload.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { key, op, source } => {
                write!(f, "store {op} failed for key `{key}`: {source}")
            }
            StoreError::Corrupt { key, record, detail } => {
                write!(f, "store stream for key `{key}` is corrupt at record {record}: {detail}")
            }
            StoreError::BadPayload { key, detail } => {
                write!(f, "record rejected for key `{key}`: {detail}")
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

/// A content-addressed result store rooted at one directory.
///
/// Cloning is cheap and clones address the same directory, so a store
/// handle can be captured by parallel sweep closures.
#[derive(Clone, Debug)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<ResultStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(ResultStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The stream file path for `key` (content address: SHA-256 of the
    /// key, truncated to 128 bits of hex — collision-safe for any
    /// realistic sweep census and short enough for every filesystem).
    pub fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{}.{STREAM_EXT}", stream_stem(key)))
    }

    /// Fetch the record payloads stored under `key`, verifying the
    /// whole hash chain. `Ok(None)` means the key has no stream yet;
    /// any existing-but-damaged stream is an error, never silently
    /// treated as absent. A stream file over [`MAX_STREAM_BYTES`] is
    /// [`StoreError::Corrupt`] at record 0, and is not read.
    pub fn get(&self, key: &str) -> Result<Option<Vec<String>>, StoreError> {
        let io_err = |source| StoreError::Io { key: key.to_string(), op: "read", source };
        let too_large = |len: u64| StoreError::Corrupt {
            key: key.to_string(),
            record: 0,
            detail: format!("stream of {len} bytes exceeds the {MAX_STREAM_BYTES}-byte cap"),
        };
        let file = match fs::File::open(self.path_for(key)) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(io_err(e)),
        };
        let len = file.metadata().map_err(io_err)?.len();
        if len > MAX_STREAM_BYTES {
            return Err(too_large(len));
        }
        // The file may grow after the length check: read at most one
        // byte past the cap, enough to tell.
        let mut bytes = Vec::with_capacity(len as usize);
        file.take(MAX_STREAM_BYTES + 1).read_to_end(&mut bytes).map_err(io_err)?;
        if bytes.len() as u64 > MAX_STREAM_BYTES {
            return Err(too_large(bytes.len() as u64));
        }
        let text = String::from_utf8(bytes).map_err(|e| StoreError::Corrupt {
            key: key.to_string(),
            record: 0,
            detail: format!("stream is not UTF-8: {e}"),
        })?;
        decode_stream(key, &text).map(Some)
    }

    /// Publish `records` as the complete stream for `key`, atomically
    /// replacing any previous stream.
    pub fn put(&self, key: &str, records: &[String]) -> Result<(), StoreError> {
        let text = encode_stream(key, records)?;
        write_atomic(&self.path_for(key), text.as_bytes()).map_err(|e| StoreError::Io {
            key: key.to_string(),
            op: "publish",
            source: e,
        })
    }

    /// Extend the stream for `key` with `records`, verifying the
    /// existing chain first and republishing atomically. Equivalent to
    /// `put` when the key has no stream yet.
    pub fn append(&self, key: &str, records: &[String]) -> Result<(), StoreError> {
        let mut all = self.get(key)?.unwrap_or_default();
        all.extend(records.iter().cloned());
        self.put(key, &all)
    }

    /// All keys currently stored, sorted. Only a stream's header line is
    /// read (at most [`MAX_STREAM_BYTES`] of it), and it is interpreted
    /// lossily: a damaged stream must not fail the listing for the whole
    /// store — [`get`](Self::get) is what reports it as
    /// [`StoreError::Corrupt`].
    pub fn keys(&self) -> io::Result<Vec<String>> {
        let mut keys = Vec::new();
        let mut header = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some(STREAM_EXT) {
                continue;
            }
            header.clear();
            BufReader::new(fs::File::open(&path)?.take(MAX_STREAM_BYTES))
                .read_until(b'\n', &mut header)?;
            if let Some(line) = String::from_utf8_lossy(&header).lines().next() {
                if let Some(key) = line.strip_prefix(&format!("{STORE_VERSION};")) {
                    keys.push(key.to_string());
                }
            }
        }
        keys.sort();
        Ok(keys)
    }

    /// Rebuild the human-readable `index.tsv` (one `stem<TAB>records
    /// <TAB>key` line per verified stream, sorted by key) and return
    /// its path. The index is derived data — it is regenerated rather
    /// than incrementally maintained, so concurrent writers never race
    /// on it.
    pub fn write_index(&self) -> io::Result<PathBuf> {
        let mut rows = Vec::new();
        for key in self.keys()? {
            let records = match self.get(&key) {
                Ok(Some(r)) => r.len().to_string(),
                Ok(None) => "0".to_string(),
                Err(e) => format!("CORRUPT ({e})"),
            };
            rows.push(format!("{}\t{}\t{}\n", stream_stem(&key), records, key));
        }
        let path = self.dir.join(INDEX_FILE);
        write_atomic(&path, rows.concat().as_bytes())?;
        Ok(path)
    }
}

/// 128-bit hex content address of a key.
fn stream_stem(key: &str) -> String {
    hex(&tg_crypto::sha256(key.as_bytes())[..16])
}

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Chain step: the hash committing to record `seq` with `payload`,
/// given the previous link's hash (the header hash for record 0).
fn chain_hash(prev: &str, seq: usize, payload: &str) -> String {
    let mut h = Sha256::new();
    h.update(prev.as_bytes());
    h.update(b";");
    h.update(seq.to_string().as_bytes());
    h.update(b";");
    h.update(payload.as_bytes());
    hex(&h.finalize())
}

/// Render the full sealed stream text for `key` + `records`.
fn encode_stream(key: &str, records: &[String]) -> Result<String, StoreError> {
    if key.contains('\n') || key.contains('\r') {
        return Err(StoreError::BadPayload {
            key: key.to_string(),
            detail: "key must be a single line".to_string(),
        });
    }
    let header = format!("{STORE_VERSION};{key}");
    let mut prev = hex(&tg_crypto::sha256(header.as_bytes()));
    let mut out = String::new();
    out.push_str(&header);
    out.push('\n');
    for (seq, payload) in records.iter().enumerate() {
        if payload.contains('\n') || payload.contains('\r') {
            return Err(StoreError::BadPayload {
                key: key.to_string(),
                detail: format!("record {seq} contains a line break"),
            });
        }
        prev = chain_hash(&prev, seq, payload);
        out.push_str(&format!("r;{seq};{prev};{payload}\n"));
    }
    out.push_str(&format!("s;{};{prev}\n", records.len()));
    Ok(out)
}

/// Verify and decode a sealed stream, returning the record payloads.
fn decode_stream(key: &str, text: &str) -> Result<Vec<String>, StoreError> {
    let corrupt = |record: usize, detail: String| StoreError::Corrupt {
        key: key.to_string(),
        record,
        detail,
    };
    let mut lines = text.lines();
    let header =
        lines.next().ok_or_else(|| corrupt(0, "empty stream (missing header)".to_string()))?;
    let stored_key = header.strip_prefix(&format!("{STORE_VERSION};")).ok_or_else(|| {
        corrupt(0, format!("bad header `{header}` (want `{STORE_VERSION};<key>`)"))
    })?;
    if stored_key != key {
        return Err(corrupt(
            0,
            format!("stream belongs to key `{stored_key}` (content-address collision?)"),
        ));
    }
    let mut prev = hex(&tg_crypto::sha256(header.as_bytes()));
    let mut records = Vec::new();
    let mut sealed = false;
    for line in lines {
        if sealed {
            return Err(corrupt(records.len(), "data after the seal line".to_string()));
        }
        if let Some(rest) = line.strip_prefix("r;") {
            let seq = records.len();
            let (seq_s, rest) = rest
                .split_once(';')
                .ok_or_else(|| corrupt(seq, format!("malformed record line `{line}`")))?;
            let (hash, payload) = rest
                .split_once(';')
                .ok_or_else(|| corrupt(seq, format!("malformed record line `{line}`")))?;
            if seq_s != seq.to_string() {
                return Err(corrupt(
                    seq,
                    format!("record sequence gap: found {seq_s}, expected {seq}"),
                ));
            }
            let want = chain_hash(&prev, seq, payload);
            if hash != want {
                return Err(corrupt(
                    seq,
                    format!("chain hash mismatch (stored {hash}, derived {want})"),
                ));
            }
            prev = want;
            records.push(payload.to_string());
        } else if let Some(rest) = line.strip_prefix("s;") {
            let (count_s, hash) = rest
                .split_once(';')
                .ok_or_else(|| corrupt(records.len(), format!("malformed seal line `{line}`")))?;
            if count_s != records.len().to_string() {
                return Err(corrupt(
                    records.len(),
                    format!("seal count {count_s} != {} records present", records.len()),
                ));
            }
            if hash != prev {
                return Err(corrupt(
                    records.len(),
                    format!("seal hash mismatch (stored {hash}, derived {prev})"),
                ));
            }
            sealed = true;
        } else {
            return Err(corrupt(records.len(), format!("unrecognized line `{line}`")));
        }
    }
    if !sealed {
        return Err(corrupt(records.len(), "stream is truncated (missing seal)".to_string()));
    }
    Ok(records)
}

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Write `bytes` to `path` atomically: the bytes land in a unique temp
/// file in the same directory, are fsynced, and are renamed over the
/// destination, so readers see either the old file or the new one —
/// never a torn, half-written middle. Shared by the store and every
/// CSV/JSON artifact writer in the workspace.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    let stem = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, format!("bad target path {path:?}"))
    })?;
    let tmp = dir.join(format!(
        ".{stem}.tmp.{}.{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> ResultStore {
        let dir = std::env::temp_dir().join(format!(
            "tg-store-unit-{tag}-{}-{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        ResultStore::open(&dir).expect("open temp store")
    }

    fn recs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn put_get_round_trip() {
        let store = temp_store("roundtrip");
        let key = "tg1;n=10;demo=1;epochs=3";
        assert_eq!(store.get(key).unwrap(), None);
        let records = recs(&["o1,0,1,2", "o1,1,3,4", ""]);
        store.put(key, &records).unwrap();
        assert_eq!(store.get(key).unwrap(), Some(records));
    }

    #[test]
    fn append_extends_a_sealed_stream() {
        let store = temp_store("append");
        store.append("k", &recs(&["a"])).unwrap();
        store.append("k", &recs(&["b", "c"])).unwrap();
        assert_eq!(store.get("k").unwrap(), Some(recs(&["a", "b", "c"])));
    }

    #[test]
    fn empty_stream_is_valid() {
        let store = temp_store("empty");
        store.put("k", &[]).unwrap();
        assert_eq!(store.get("k").unwrap(), Some(vec![]));
    }

    #[test]
    fn put_replaces_previous_stream() {
        let store = temp_store("replace");
        store.put("k", &recs(&["old"])).unwrap();
        store.put("k", &recs(&["new"])).unwrap();
        assert_eq!(store.get("k").unwrap(), Some(recs(&["new"])));
    }

    #[test]
    fn rejects_multiline_payloads() {
        let store = temp_store("multiline");
        let err = store.put("k", &recs(&["a\nb"])).unwrap_err();
        assert!(matches!(err, StoreError::BadPayload { .. }), "{err}");
    }

    #[test]
    fn distinct_keys_get_distinct_streams() {
        let store = temp_store("distinct");
        store.put("k1", &recs(&["one"])).unwrap();
        store.put("k2", &recs(&["two"])).unwrap();
        assert_eq!(store.get("k1").unwrap(), Some(recs(&["one"])));
        assert_eq!(store.get("k2").unwrap(), Some(recs(&["two"])));
        assert_eq!(store.keys().unwrap(), vec!["k1".to_string(), "k2".to_string()]);
    }

    #[test]
    fn index_lists_every_stream() {
        let store = temp_store("index");
        store.put("beta", &recs(&["1", "2"])).unwrap();
        store.put("alpha", &recs(&["1"])).unwrap();
        let path = store.write_index().unwrap();
        let index = fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = index.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].ends_with("\t1\talpha"), "{index}");
        assert!(lines[1].ends_with("\t2\tbeta"), "{index}");
    }

    #[test]
    fn write_atomic_replaces_contents() {
        let store = temp_store("atomic");
        let path = store.dir().join("x.csv");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        // No temp droppings left behind.
        let stray = fs::read_dir(store.dir())
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().contains(".tmp."))
            .count();
        assert_eq!(stray, 0);
    }
}
