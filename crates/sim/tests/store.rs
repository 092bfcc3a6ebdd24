//! Corruption suite for the hash-chained result store: every class of
//! on-disk damage — a flipped byte, a truncated record, a dropped
//! seal, a re-addressed stream — must be rejected on read with an
//! error naming the cell key and the failing record index, never
//! replayed as valid-but-short data.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use tg_sim::store::{ResultStore, StoreError, MAX_STREAM_BYTES};

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

const KEY: &str = "tg1;n=380;d2=4;beta=0.12;churn=0.1;strategy=gap-filling;epochs=2";

fn temp_store(tag: &str) -> (ResultStore, PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "tg-store-corrupt-{tag}-{}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    (ResultStore::open(&dir).expect("open temp store"), dir)
}

/// A populated stream to damage: five observation-ish records.
fn seeded_store(tag: &str) -> (ResultStore, PathBuf) {
    let (store, _dir) = temp_store(tag);
    let records: Vec<String> =
        (0..5).map(|e| format!("o1,{e},0.5,0.25,0.1,{e},12,3,0.2,1.5,NaN,NaN")).collect();
    store.put(KEY, &records).unwrap();
    let stream = store.path_for(KEY);
    (store, stream)
}

fn expect_corrupt(err: StoreError, want_record: usize) {
    match &err {
        StoreError::Corrupt { key, record, .. } => {
            assert_eq!(key, KEY, "error must name the cell key: {err}");
            assert_eq!(*record, want_record, "error must name the failing record: {err}");
            let msg = err.to_string();
            assert!(msg.contains(KEY), "message must include the key: {msg}");
            assert!(
                msg.contains(&format!("record {want_record}")),
                "message must include the record index: {msg}"
            );
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn intact_stream_reads_back() {
    let (store, _) = seeded_store("intact");
    assert_eq!(store.get(KEY).unwrap().unwrap().len(), 5);
}

#[test]
fn flipped_payload_byte_is_rejected_at_that_record() {
    let (store, stream) = seeded_store("flip");
    let text = fs::read_to_string(&stream).unwrap();
    // Flip one digit inside record 2's payload (epoch column "2" → "7").
    let damaged = text.replacen("o1,2,", "o1,7,", 1);
    assert_ne!(text, damaged, "the edit must land");
    fs::write(&stream, damaged).unwrap();
    expect_corrupt(store.get(KEY).unwrap_err(), 2);
}

#[test]
fn flipped_hash_byte_is_rejected_at_that_record() {
    let (store, stream) = seeded_store("fliphash");
    let text = fs::read_to_string(&stream).unwrap();
    let lines: Vec<String> = text.lines().map(str::to_string).collect();
    // Record 3 is line 4 (after the header): r;3;<hash>;<payload>.
    let mut fields: Vec<String> = lines[4].splitn(4, ';').map(str::to_string).collect();
    let hash = fields[2].clone();
    let tail = &hash[1..];
    fields[2] = if hash.starts_with('0') { format!("1{tail}") } else { format!("0{tail}") };
    let mut damaged = lines.clone();
    damaged[4] = fields.join(";");
    fs::write(&stream, damaged.join("\n") + "\n").unwrap();
    expect_corrupt(store.get(KEY).unwrap_err(), 3);
}

#[test]
fn truncating_the_tail_is_rejected() {
    let (store, stream) = seeded_store("truncate");
    let text = fs::read_to_string(&stream).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // Drop the last record and the seal — a crash mid-rewrite.
    let truncated = lines[..lines.len() - 2].join("\n") + "\n";
    fs::write(&stream, truncated).unwrap();
    expect_corrupt(store.get(KEY).unwrap_err(), 4);
}

#[test]
fn deleting_a_middle_record_is_rejected() {
    let (store, stream) = seeded_store("drop-middle");
    let text = fs::read_to_string(&stream).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // Remove record 1 (line 2); the chain breaks where record 2's
    // sequence number no longer matches its position.
    let mut damaged: Vec<&str> = lines.clone();
    damaged.remove(2);
    fs::write(&stream, damaged.join("\n") + "\n").unwrap();
    expect_corrupt(store.get(KEY).unwrap_err(), 1);
}

#[test]
fn missing_seal_is_rejected() {
    let (store, stream) = seeded_store("no-seal");
    let text = fs::read_to_string(&stream).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let sealless = lines[..lines.len() - 1].join("\n") + "\n";
    fs::write(&stream, sealless).unwrap();
    expect_corrupt(store.get(KEY).unwrap_err(), 5);
}

#[test]
fn wrong_seal_count_is_rejected() {
    let (store, stream) = seeded_store("seal-count");
    let text = fs::read_to_string(&stream).unwrap();
    let damaged = text.replace("s;5;", "s;6;");
    assert_ne!(text, damaged);
    fs::write(&stream, damaged).unwrap();
    expect_corrupt(store.get(KEY).unwrap_err(), 5);
}

#[test]
fn stream_for_a_different_key_is_rejected() {
    let (store, stream) = seeded_store("rekey");
    // Simulate a mis-filed stream: the file at KEY's content address
    // holds a stream sealed under another key.
    let other = "tg1;n=9;other=1;epochs=1";
    let (donor, _) = temp_store("rekey-donor");
    donor.put(other, &["o1,0,1".to_string()]).unwrap();
    fs::copy(donor.path_for(other), &stream).unwrap();
    expect_corrupt(store.get(KEY).unwrap_err(), 0);
}

#[test]
fn garbage_file_is_rejected_not_treated_as_absent() {
    let (store, stream) = seeded_store("garbage");
    fs::write(&stream, b"\xff\xfe not a stream").unwrap();
    assert!(
        matches!(store.get(KEY), Err(StoreError::Corrupt { .. })),
        "binary garbage must surface as corruption"
    );
}

/// One non-UTF-8 stream must not fail the listing — or the index built
/// on it — for the whole store: a blob with no readable header is
/// passed over, a stream whose header survives is listed and shows up
/// in the index as `CORRUPT`, and the good key is untouched.
#[test]
fn non_utf8_streams_do_not_fail_keys_or_index() {
    let (store, stream) = seeded_store("listing");
    fs::write(stream.with_file_name("garbage.tgs"), b"\xff\xfe\x00\x9f").unwrap();
    let damaged = "tg1;n=9;other=1;epochs=1";
    store.put(damaged, &["o1,0,1".to_string()]).unwrap();
    let mut bytes = fs::read(store.path_for(damaged)).unwrap();
    bytes.extend_from_slice(b"\xff\xfe\n");
    fs::write(store.path_for(damaged), bytes).unwrap();

    assert_eq!(store.keys().expect("listing survives"), vec![KEY.to_string(), damaged.to_string()]);
    let index = fs::read_to_string(store.write_index().expect("index survives")).unwrap();
    let line = |key: &str| index.lines().find(|l| l.ends_with(key)).expect("key indexed");
    assert!(line(KEY).contains("\t5\t"), "good stream keeps its record count: {index}");
    assert!(line(damaged).contains("CORRUPT"), "damaged stream is named as such: {index}");
}

/// A stream file past the read cap is refused as corrupt at record 0
/// before it is read (the file here is sparse: one byte over the cap,
/// none of it on disk), and the listing, which reads only header
/// lines, still names every stream.
#[test]
fn oversized_stream_is_rejected_without_reading_it() {
    let (store, _) = seeded_store("oversized");
    let big = "tg1;n=9;big=1;epochs=1";
    store.put(big, &["o1,0,1".to_string()]).unwrap();
    let file = fs::OpenOptions::new().write(true).open(store.path_for(big)).unwrap();
    file.set_len(MAX_STREAM_BYTES + 1).unwrap();
    drop(file);

    match store.get(big) {
        Err(StoreError::Corrupt { key, record: 0, .. }) => assert_eq!(key, big),
        other => panic!("expected Corrupt at record 0, got {other:?}"),
    }
    assert_eq!(store.get(KEY).unwrap().unwrap().len(), 5, "the other stream still reads");
    assert_eq!(store.keys().expect("listing survives"), vec![KEY.to_string(), big.to_string()]);
}
