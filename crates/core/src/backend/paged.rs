//! The DXTS snapshot format (version 2) and its readers.
//!
//! Every store column is split into **fixed-size pages** behind a page
//! directory, so a reader can fault in exactly the pages it touches
//! through a [`BufferPool`] and keep at most a configured budget of
//! them resident:
//!
//! ```text
//! offset  field
//! 0       magic   b"DXTS"
//! 4       version u32 LE        = 2
//! 8       page_size u32 LE      multiple of 8, 64 ..= 2^26
//! 12      section_count u32 LE  = 19
//! 16      page_count u32 LE     total data pages
//! 20      header_len u32 LE     = 32 + 20·sections + 8·pages
//! 24      header_checksum u64   FNV-1a/mix64 over the header minus
//!                               this field
//! 32      directory             per section: id u32, first_page u32,
//!                               page_count u32, byte_len u64
//! …       page checksum table   u64 LE per data page
//! header_len                    data pages, page i at
//!                               header_len + i·page_size
//! ```
//!
//! Every section starts on a fresh page and its last page is
//! zero-padded, so page `p` of a section lives at block
//! `first_page + p` and fixed-width elements (4- and 8-byte) never
//! straddle a page boundary. Each data page carries its own checksum in
//! the header table, verified at fault-in time — a byte flip anywhere
//! in the file is caught either by the header checksum or by the
//! checksum of the page it lands in, before any decoded value is
//! trusted. All integers go through the crate's shared little-endian codec.
//!
//! The 19 sections are a 20-byte meta section (object count +
//! selection/document fingerprints), then the store columns (arena
//! bytes, term spans/types/char-lens/IDF bits, CSR posting starts +
//! postings, type/path name spans, per-type stats) and the OD columns
//! (od starts, tuple term/value/path, group starts/types/members).
//! Loading checks both fingerprints, then runs the full
//! [`StoreAuditor`] pass over the decoded columns.
//!
//! Version 1 — the retired flat format, one checksummed payload — is
//! rejected with a [`DogmatixError::Snapshot`] that says to re-save.
//!
//! Two readers are built on the pool:
//!
//! * [`SnapshotBackend`](super::SnapshotBackend) decodes whole
//!   snapshots. Under a budget it streams each section through the
//!   pool page by page (one pin at a time), so **peak pool residency
//!   stays under the budget regardless of snapshot size** (the
//!   `benches/paged.rs` gate holds [`PoolStats::peak_resident_bytes`]
//!   under a budget smaller than the file). WAL checkpoints embed the
//!   same image and decode it from memory.
//! * [`PagedReader`] — random point access (term text, posting lists)
//!   that pins only the directory-addressed pages a lookup touches;
//!   with a small budget the pool visibly evicts and refaults.

use super::{checked_u32, snap_err, SNAPSHOT_VERSION};
use crate::codec::{checksum, checksum_parts, put_u32, put_u64, Reader};
use crate::error::DogmatixError;
use crate::od::{OdSet, TermId};
use crate::store::audit::StoreAuditor;
use crate::store::pool::{BlockId, BufferPool, PageRef, PageSource, PoolStats};
use crate::store::{PathId, Span, TermStore, TypeStats};
use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"DXTS";
/// The retired flat format, named when rejecting such a file.
const FLAT_VERSION: u32 = 1;

/// Default page size for saved snapshots and WAL checkpoint images.
pub const DEFAULT_PAGE_SIZE: usize = 4096;

const MIN_PAGE_SIZE: usize = 64;
const MAX_PAGE_SIZE: usize = 1 << 26;
const HEADER_FIXED: usize = 32;
const DIR_ENTRY_BYTES: usize = 20;
/// Hard cap on any single column length (guards a forged section
/// length from driving an allocation before validation rejects it).
const MAX_ARRAY_LEN: u64 = 1 << 31;

// Section ids double as directory indices.
const SEC_META: usize = 0;
const SEC_ARENA: usize = 1;
const SEC_TERM_SPANS: usize = 2;
const SEC_TERM_TYPES: usize = 3;
const SEC_TERM_CHAR_LENS: usize = 4;
const SEC_TERM_IDFS: usize = 5;
const SEC_POSTING_STARTS: usize = 6;
const SEC_POSTINGS: usize = 7;
const SEC_TYPE_NAME_SPANS: usize = 8;
const SEC_PATH_NAME_SPANS: usize = 9;
const SEC_TYPE_STATS: usize = 10;
const SEC_OD_STARTS: usize = 11;
const SEC_TUPLE_TERM: usize = 12;
const SEC_TUPLE_VALUE_SPANS: usize = 13;
const SEC_TUPLE_PATH: usize = 14;
const SEC_OD_GROUP_STARTS: usize = 15;
const SEC_GROUP_TYPES: usize = 16;
const SEC_GROUP_STARTS: usize = 17;
const SEC_GROUP_TUPLES: usize = 18;
const SECTION_COUNT: usize = 19;

const META_BYTES: usize = 20;

// ---- writer -----------------------------------------------------------

fn u32s_payload(vs: &[u32]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(vs.len() * 4);
    for &v in vs {
        put_u32(&mut buf, v);
    }
    buf
}

fn spans_payload(vs: &[Span]) -> Result<Vec<u8>, DogmatixError> {
    let mut buf = Vec::with_capacity(vs.len() * 8);
    for &s in vs {
        put_u32(&mut buf, s.start_raw());
        put_u32(&mut buf, checked_u32(s.len(), "span length")?);
    }
    Ok(buf)
}

/// Serialises the 19 section payloads in directory order.
fn section_payloads(
    ods: &OdSet,
    selections: &HashMap<String, BTreeSet<String>>,
    doc_fingerprint: u64,
) -> Result<Vec<Vec<u8>>, DogmatixError> {
    let (
        store,
        od_starts,
        tuple_term,
        tuple_value,
        tuple_path,
        od_group_starts,
        group_types,
        group_starts,
        group_tuples,
    ) = ods.columns();

    let mut meta = Vec::with_capacity(META_BYTES);
    put_u32(&mut meta, checked_u32(ods.len(), "object count")?);
    put_u64(
        &mut meta,
        super::selection_fingerprint(ods.len(), selections),
    );
    put_u64(&mut meta, doc_fingerprint);

    let mut idfs = Vec::with_capacity(store.term_idfs().len() * 8);
    for &v in store.term_idfs() {
        put_u64(&mut idfs, v.to_bits());
    }
    let mut stats = Vec::with_capacity(store.type_stats().len() * 12);
    for s in store.type_stats() {
        put_u32(&mut stats, s.terms);
        put_u32(&mut stats, s.tuples);
        put_u32(&mut stats, s.postings);
    }
    let term_ids: Vec<u32> = tuple_term.iter().map(|t| t.0).collect();
    let path_ids: Vec<u32> = tuple_path.iter().map(|p| p.0).collect();

    Ok(vec![
        meta,
        store.arena_bytes().to_vec(),
        spans_payload(store.term_norm_spans())?,
        u32s_payload(store.term_types()),
        u32s_payload(store.term_char_lens()),
        idfs,
        u32s_payload(store.posting_starts()),
        u32s_payload(store.postings_raw()),
        spans_payload(store.type_name_spans())?,
        spans_payload(store.path_name_spans())?,
        stats,
        u32s_payload(od_starts),
        u32s_payload(&term_ids),
        spans_payload(tuple_value)?,
        u32s_payload(&path_ids),
        u32s_payload(od_group_starts),
        u32s_payload(group_types),
        u32s_payload(group_starts),
        u32s_payload(group_tuples),
    ])
}

fn validate_page_size(page_size: usize) -> Result<(), DogmatixError> {
    if !(MIN_PAGE_SIZE..=MAX_PAGE_SIZE).contains(&page_size) || !page_size.is_multiple_of(8) {
        return Err(snap_err(format!(
            "implausible page size {page_size} (must be a multiple of 8 in \
             {MIN_PAGE_SIZE}..={MAX_PAGE_SIZE})"
        )));
    }
    Ok(())
}

/// Serialises an [`OdSet`] (minus its document-state node ids) to a
/// complete snapshot image — header, directory, page checksum table,
/// and zero-padded data pages. [`crate::wal`] checkpoints embed this
/// image; [`SnapshotBackend`](super::SnapshotBackend) writes it to disk.
pub fn paged_snapshot_to_bytes(
    ods: &OdSet,
    selections: &HashMap<String, BTreeSet<String>>,
    doc_fingerprint: u64,
    page_size: usize,
) -> Result<Vec<u8>, DogmatixError> {
    validate_page_size(page_size)?;
    let sections = section_payloads(ods, selections, doc_fingerprint)?;

    // Directory: each section occupies whole pages, in file order.
    let mut directory = Vec::with_capacity(SECTION_COUNT * DIR_ENTRY_BYTES);
    let mut total_pages: u64 = 0;
    for (id, payload) in sections.iter().enumerate() {
        let pages = (payload.len() as u64).div_ceil(page_size as u64);
        put_u32(&mut directory, checked_u32(id, "section id")?);
        put_u32(
            &mut directory,
            checked_u32(total_pages as usize, "first page")?,
        );
        put_u32(
            &mut directory,
            checked_u32(pages as usize, "section page count")?,
        );
        put_u64(&mut directory, payload.len() as u64);
        total_pages += pages;
    }
    let page_count = checked_u32(total_pages as usize, "page count")?;
    let header_len = checked_u32(
        HEADER_FIXED + directory.len() + total_pages as usize * 8,
        "header length",
    )?;

    // Data region + per-page checksums over the padded pages.
    let mut data = Vec::with_capacity(total_pages as usize * page_size);
    let mut page_checksums = Vec::with_capacity(total_pages as usize * 8);
    for payload in &sections {
        for chunk in payload.chunks(page_size) {
            let start = data.len();
            data.extend_from_slice(chunk);
            data.resize(start + page_size, 0);
            put_u64(
                &mut page_checksums,
                checksum(&data[start..start + page_size]),
            );
        }
    }

    let mut header = Vec::with_capacity(header_len as usize);
    header.extend_from_slice(MAGIC);
    put_u32(&mut header, SNAPSHOT_VERSION);
    put_u32(&mut header, checked_u32(page_size, "page size")?);
    put_u32(&mut header, SECTION_COUNT as u32);
    put_u32(&mut header, page_count);
    put_u32(&mut header, header_len);
    put_u64(&mut header, 0); // checksum placeholder
    header.extend_from_slice(&directory);
    header.extend_from_slice(&page_checksums);
    let digest = header_digest(&header);
    header[24..32].copy_from_slice(&digest.to_le_bytes());

    let mut out = header;
    out.extend_from_slice(&data);
    Ok(out)
}

/// [`paged_snapshot_to_bytes`] + the atomic tmp/fsync/rename install.
/// Returns the size of the written image in bytes.
pub(crate) fn save_snapshot(
    ods: &OdSet,
    selections: &HashMap<String, BTreeSet<String>>,
    doc_fingerprint: u64,
    path: &Path,
    page_size: usize,
) -> Result<u64, DogmatixError> {
    let image = paged_snapshot_to_bytes(ods, selections, doc_fingerprint, page_size)?;
    super::atomic_write(path, &image)
        .map_err(|e| snap_err(format!("cannot write snapshot {}: {e}", path.display())))?;
    Ok(image.len() as u64)
}

/// FNV-1a/mix64 over the header bytes, skipping the checksum field
/// itself (offsets 24..32).
fn header_digest(header: &[u8]) -> u64 {
    checksum_parts(&[&header[..24], &header[32..]])
}

// ---- header parsing ---------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct SectionMeta {
    first_page: u32,
    byte_len: u64,
}

/// The parsed, checksum-verified header of a snapshot.
#[derive(Debug)]
struct PagedHeader {
    page_size: usize,
    page_count: u32,
    header_len: usize,
    sections: Vec<SectionMeta>,
    page_checksums: Vec<u64>,
}

struct FixedHeader {
    page_size: usize,
    page_count: u32,
    header_len: usize,
    checksum: u64,
}

/// Parses and sanity-checks the fixed 32-byte header prefix. Magic and
/// version are checked before the rest is required, so a short file
/// of the wrong kind or version is named as such; this is where a
/// version-1 file is rejected.
fn parse_fixed_header(b: &[u8]) -> Result<FixedHeader, DogmatixError> {
    let mut r = Reader::new(b, "snapshot header");
    if r.take(4).ok() != Some(MAGIC.as_slice()) {
        return Err(snap_err("not a DogmatiX term-index snapshot (bad magic)"));
    }
    let version = r.u32().map_err(snap_err)?;
    if version == FLAT_VERSION {
        return Err(snap_err(format!(
            "snapshot is DXTS version {FLAT_VERSION}, the retired flat format; this build \
             reads only version {SNAPSHOT_VERSION} — re-save it (e.g. with --index-save)"
        )));
    }
    if version != SNAPSHOT_VERSION {
        return Err(snap_err(format!(
            "unsupported snapshot version {version} (this build reads version \
             {SNAPSHOT_VERSION})"
        )));
    }
    let page_size = r.u32().map_err(snap_err)? as usize;
    validate_page_size(page_size)?;
    let section_count = r.u32().map_err(snap_err)? as usize;
    if section_count != SECTION_COUNT {
        return Err(snap_err(format!(
            "paged snapshot corrupted: {section_count} sections (this format has \
             {SECTION_COUNT})"
        )));
    }
    let page_count = r.u32().map_err(snap_err)?;
    let header_len = r.u32().map_err(snap_err)? as usize;
    let checksum = r.u64().map_err(snap_err)?;
    let expected_len =
        HEADER_FIXED as u64 + (SECTION_COUNT * DIR_ENTRY_BYTES) as u64 + page_count as u64 * 8;
    if header_len as u64 != expected_len {
        return Err(snap_err(
            "paged snapshot corrupted: header length disagrees with the \
             section and page counts",
        ));
    }
    Ok(FixedHeader {
        page_size,
        page_count,
        header_len,
        checksum,
    })
}

/// Parses the complete header (`header.len() == header_len`),
/// verifying the header checksum, the directory's internal consistency,
/// and that the data region matches `file_len` exactly.
fn parse_paged_header(header: &[u8], file_len: u64) -> Result<PagedHeader, DogmatixError> {
    let fixed = parse_fixed_header(header)?;
    if header.len() != fixed.header_len {
        return Err(snap_err("snapshot truncated: incomplete paged header"));
    }
    let expected_file_len =
        fixed.header_len as u64 + fixed.page_count as u64 * fixed.page_size as u64;
    if file_len != expected_file_len {
        return Err(snap_err(format!(
            "snapshot truncated or padded: file is {file_len} B but the header \
             describes {expected_file_len} B"
        )));
    }
    if header_digest(header) != fixed.checksum {
        return Err(snap_err(
            "paged snapshot corrupted: header checksum mismatch",
        ));
    }

    let mut r = Reader::new(&header[HEADER_FIXED..], "snapshot directory");
    let mut sections = Vec::with_capacity(SECTION_COUNT);
    let mut next_page: u64 = 0;
    for i in 0..SECTION_COUNT {
        let id = r.u32().map_err(snap_err)?;
        let first_page = r.u32().map_err(snap_err)?;
        let pages = r.u32().map_err(snap_err)?;
        let byte_len = r.u64().map_err(snap_err)?;
        if id as usize != i {
            return Err(snap_err(format!(
                "paged snapshot corrupted: directory entry {i} carries id {id}"
            )));
        }
        if first_page as u64 != next_page
            || pages as u64 != byte_len.div_ceil(fixed.page_size as u64)
        {
            return Err(snap_err(format!(
                "paged snapshot corrupted: directory entry {i} disagrees with \
                 the page layout"
            )));
        }
        next_page += pages as u64;
        sections.push(SectionMeta {
            first_page,
            byte_len,
        });
    }
    if next_page != fixed.page_count as u64 {
        return Err(snap_err(
            "paged snapshot corrupted: directory pages do not sum to the page count",
        ));
    }
    let page_checksums = (0..fixed.page_count)
        .map(|_| r.u64())
        .collect::<Result<_, _>>()
        .map_err(snap_err)?;

    Ok(PagedHeader {
        page_size: fixed.page_size,
        page_count: fixed.page_count,
        header_len: fixed.header_len,
        sections,
        page_checksums,
    })
}

// ---- page source ------------------------------------------------------

#[derive(Debug)]
enum Backing {
    File(std::fs::File),
    Bytes(Vec<u8>),
}

/// [`PageSource`] over a snapshot: serves `page_count` fixed-size pages
/// from the data region and verifies each page's checksum against the
/// header table at fault-in time.
#[derive(Debug)]
struct PagedSource {
    header: Arc<PagedHeader>,
    backing: Backing,
    label: String,
}

impl PageSource for PagedSource {
    fn page_size(&self) -> usize {
        self.header.page_size
    }

    fn page_count(&self) -> u32 {
        self.header.page_count
    }

    fn read_page(&mut self, block: BlockId, buf: &mut [u8]) -> Result<(), DogmatixError> {
        let offset = self.header.header_len as u64 + block.0 as u64 * self.header.page_size as u64;
        match &mut self.backing {
            Backing::File(f) => {
                use std::io::{Read, Seek, SeekFrom};
                f.seek(SeekFrom::Start(offset))
                    .and_then(|_| f.read_exact(buf))
                    .map_err(|e| {
                        snap_err(format!(
                            "cannot read {block} of snapshot {}: {e}",
                            self.label
                        ))
                    })?;
            }
            Backing::Bytes(b) => {
                let start = offset as usize;
                let page = b
                    .get(start..start + self.header.page_size)
                    .ok_or_else(|| snap_err("snapshot truncated: page past end of image"))?;
                buf.copy_from_slice(page);
            }
        }
        let expected = self
            .header
            .page_checksums
            .get(block.0 as usize)
            .copied()
            .ok_or_else(|| snap_err(format!("{block} has no checksum table entry")))?;
        if checksum(buf) != expected {
            return Err(snap_err(format!(
                "paged snapshot corrupted: checksum mismatch on {block}"
            )));
        }
        Ok(())
    }
}

/// Opens a snapshot file: parses + verifies the header, then wraps the
/// data region in a budget-bounded [`BufferPool`].
fn pool_over_file(
    path: &Path,
    budget: usize,
) -> Result<(BufferPool, Arc<PagedHeader>), DogmatixError> {
    use std::io::Read;
    let read_err =
        |e: std::io::Error| snap_err(format!("cannot read snapshot {}: {e}", path.display()));
    let mut f = std::fs::File::open(path).map_err(read_err)?;
    let file_len = f.metadata().map_err(read_err)?.len();
    let mut header_bytes = Vec::with_capacity(HEADER_FIXED);
    Read::by_ref(&mut f)
        .take(HEADER_FIXED as u64)
        .read_to_end(&mut header_bytes)
        .map_err(read_err)?;
    let fixed = parse_fixed_header(&header_bytes)?;
    header_bytes.resize(fixed.header_len, 0);
    f.read_exact(&mut header_bytes[HEADER_FIXED..])
        .map_err(|_| snap_err("snapshot truncated: incomplete paged header"))?;
    let header = Arc::new(parse_paged_header(&header_bytes, file_len)?);
    let source = PagedSource {
        header: Arc::clone(&header),
        backing: Backing::File(f),
        label: path.display().to_string(),
    };
    let pool = BufferPool::new(Box::new(source), budget)?;
    Ok((pool, header))
}

/// A pool over an in-memory image, taking ownership of it (no copy).
fn pool_over_bytes(
    data: Vec<u8>,
    budget: usize,
) -> Result<(BufferPool, Arc<PagedHeader>), DogmatixError> {
    let fixed = parse_fixed_header(&data)?;
    let header_bytes = data
        .get(..fixed.header_len)
        .ok_or_else(|| snap_err("snapshot truncated: incomplete paged header"))?;
    let header = Arc::new(parse_paged_header(header_bytes, data.len() as u64)?);
    let source = PagedSource {
        header: Arc::clone(&header),
        backing: Backing::Bytes(data),
        label: "<bytes>".to_string(),
    };
    let pool = BufferPool::new(Box::new(source), budget)?;
    Ok((pool, header))
}

// ---- streaming section decoder ----------------------------------------

/// Sequential (or seeked) reads over one section, pinning one page at
/// a time — the pool, not the cursor, bounds residency.
struct SectionCursor<'p> {
    pool: &'p mut BufferPool,
    first_page: u32,
    byte_len: u64,
    pos: u64,
    current: Option<(PageRef, u32)>,
}

impl<'p> SectionCursor<'p> {
    fn new(pool: &'p mut BufferPool, meta: SectionMeta, pos: u64) -> SectionCursor<'p> {
        SectionCursor {
            pool,
            first_page: meta.first_page,
            byte_len: meta.byte_len,
            pos,
            current: None,
        }
    }

    fn read_exact(&mut self, out: &mut [u8]) -> Result<(), DogmatixError> {
        let mut written = 0usize;
        while written < out.len() {
            if self.pos >= self.byte_len {
                return Err(snap_err(
                    "paged snapshot corrupted: read past the end of a section",
                ));
            }
            let ps = self.pool.page_size() as u64;
            let page_ix = (self.pos / ps) as u32;
            let off = (self.pos % ps) as usize;
            match &self.current {
                Some((_, ix)) if *ix == page_ix => {}
                _ => {
                    if let Some((p, _)) = self.current.take() {
                        self.pool.unpin(p);
                    }
                    let block = BlockId(self.first_page.wrapping_add(page_ix));
                    let page = self.pool.pin(block)?;
                    self.current = Some((page, page_ix));
                }
            }
            let Some((page, _)) = &self.current else {
                return Err(snap_err("paged snapshot reader lost its pinned page"));
            };
            let avail = (ps as usize - off)
                .min(out.len() - written)
                .min((self.byte_len - self.pos) as usize);
            out[written..written + avail].copy_from_slice(&self.pool.data(page)[off..off + avail]);
            written += avail;
            self.pos += avail as u64;
        }
        Ok(())
    }

    /// Unpins the held page. Dropping the cursor without `finish`
    /// leaks a pin for the rest of the pool's (short) life, so every
    /// read path ends here.
    fn finish(mut self) {
        if let Some((p, _)) = self.current.take() {
            self.pool.unpin(p);
        }
    }
}

/// Reads `len` bytes at `offset` within a section through the pool.
fn read_section(
    pool: &mut BufferPool,
    meta: SectionMeta,
    offset: u64,
    out: &mut [u8],
) -> Result<(), DogmatixError> {
    let mut cur = SectionCursor::new(pool, meta, offset);
    let r = cur.read_exact(out);
    cur.finish();
    r
}

/// Decodes a whole section of fixed-width `elem`-byte elements, one
/// page-sized chunk at a time (the chunk buffer is the only scratch).
fn read_column<T>(
    pool: &mut BufferPool,
    meta: SectionMeta,
    elem: u64,
    what: &'static str,
    decode: fn(&mut Reader<'_>) -> Result<T, String>,
) -> Result<Vec<T>, DogmatixError> {
    if !meta.byte_len.is_multiple_of(elem) {
        return Err(snap_err(format!(
            "paged snapshot corrupted: section {what} is {} B, not a multiple \
             of its {elem} B element",
            meta.byte_len
        )));
    }
    let n = meta.byte_len / elem;
    if n > MAX_ARRAY_LEN {
        return Err(snap_err(format!("implausible array length {n}")));
    }
    let mut out = Vec::with_capacity(n as usize);
    let per_chunk = (pool.page_size() as u64 / elem).max(1);
    let mut chunk = vec![0u8; (per_chunk * elem) as usize];
    let mut offset = 0;
    while offset < meta.byte_len {
        let k = ((meta.byte_len - offset) / elem).min(per_chunk);
        let bytes = &mut chunk[..(k * elem) as usize];
        read_section(pool, meta, offset, bytes)?;
        let mut r = Reader::new(bytes, what);
        for _ in 0..k {
            out.push(decode(&mut r).map_err(snap_err)?);
        }
        offset += k * elem;
    }
    Ok(out)
}

fn span(r: &mut Reader<'_>) -> Result<Span, String> {
    Ok(Span::new(r.u32()?, r.u32()?))
}

/// Streams every section through the pool, checks the fingerprints,
/// assembles the set, and audits it. Peak pool residency during this
/// call is bounded by the pool's budget, not the snapshot size.
fn decode(
    pool: &mut BufferPool,
    header: &PagedHeader,
    selections: &HashMap<String, BTreeSet<String>>,
    doc_fingerprint: u64,
) -> Result<OdSet, DogmatixError> {
    let sec = |i: usize| header.sections[i];
    if sec(SEC_META).byte_len != META_BYTES as u64 {
        return Err(snap_err(format!(
            "paged snapshot corrupted: meta section is {} B (expected {META_BYTES})",
            sec(SEC_META).byte_len
        )));
    }
    let mut meta = [0u8; META_BYTES];
    read_section(pool, sec(SEC_META), 0, &mut meta)?;
    let mut r = Reader::new(&meta, "meta section");
    let object_count = r.u32().map_err(snap_err)? as usize;
    let selection_fp = r.u64().map_err(snap_err)?;
    let doc_fp = r.u64().map_err(snap_err)?;
    if selection_fp != super::selection_fingerprint(object_count, selections) {
        return Err(snap_err(
            "snapshot was built under a different description selection \
             (or candidate count) — rebuild it with --index-save",
        ));
    }
    if doc_fp != doc_fingerprint {
        return Err(snap_err(
            "snapshot was built from different document content — \
             rebuild it with --index-save",
        ));
    }

    let arena_len = sec(SEC_ARENA).byte_len;
    if arena_len > MAX_ARRAY_LEN {
        return Err(snap_err(format!("implausible array length {arena_len}")));
    }
    let mut arena = vec![0u8; arena_len as usize];
    read_section(pool, sec(SEC_ARENA), 0, &mut arena)?;
    let arena = String::from_utf8(arena)
        .map_err(|_| snap_err("snapshot corrupted: arena is not valid UTF-8"))?;

    let u32s =
        |pool: &mut BufferPool, i: usize, what| read_column(pool, sec(i), 4, what, |r| r.u32());
    let spans = |pool: &mut BufferPool, i: usize, what| read_column(pool, sec(i), 8, what, span);
    let store = TermStore::from_parts(
        arena,
        spans(pool, SEC_TERM_SPANS, "term spans")?,
        u32s(pool, SEC_TERM_TYPES, "term types")?,
        u32s(pool, SEC_TERM_CHAR_LENS, "term char lens")?,
        read_column(pool, sec(SEC_TERM_IDFS), 8, "term idfs", |r| {
            r.u64().map(f64::from_bits)
        })?,
        u32s(pool, SEC_POSTING_STARTS, "posting starts")?,
        u32s(pool, SEC_POSTINGS, "postings")?,
        spans(pool, SEC_TYPE_NAME_SPANS, "type names")?,
        spans(pool, SEC_PATH_NAME_SPANS, "path names")?,
        read_column(pool, sec(SEC_TYPE_STATS), 12, "type stats", |r| {
            Ok(TypeStats {
                terms: r.u32()?,
                tuples: r.u32()?,
                postings: r.u32()?,
            })
        })?,
        checked_u32(object_count, "object count")?,
    );
    let ods = OdSet::from_columns(
        Vec::new(),
        store,
        u32s(pool, SEC_OD_STARTS, "od starts")?,
        read_column(pool, sec(SEC_TUPLE_TERM), 4, "tuple terms", |r| {
            r.u32().map(TermId)
        })?,
        spans(pool, SEC_TUPLE_VALUE_SPANS, "tuple values")?,
        read_column(pool, sec(SEC_TUPLE_PATH), 4, "tuple paths", |r| {
            r.u32().map(PathId)
        })?,
        u32s(pool, SEC_OD_GROUP_STARTS, "od group starts")?,
        u32s(pool, SEC_GROUP_TYPES, "group types")?,
        u32s(pool, SEC_GROUP_STARTS, "group starts")?,
        u32s(pool, SEC_GROUP_TUPLES, "group tuples")?,
    );

    // Structural + semantic validation: the live-store auditor checks
    // everything detection will index (span bounds, CSR monotonicity,
    // id ranges, posting order) plus the invariants only a full audit
    // sees (interner consistency, IDF↔posting agreement, group/tuple
    // cross-consistency) — one shared implementation with the
    // stage-boundary gates, so a malformed file can never panic the
    // pipeline later. Construction above is pure moves; nothing indexes
    // the columns before the audit accepts them.
    let report = StoreAuditor::audit(&ods);
    if let Some(v) = report.violations().first() {
        return Err(snap_err(format!("snapshot fails the store audit: {v}")));
    }
    Ok(ods)
}

/// Reads, verifies, and reassembles the snapshot at `path`. With a
/// budget the file streams through a pool of at most that many bytes;
/// without one the whole file is read into memory first. Returns the
/// set — carrying **no candidate nodes**, the caller re-attaches them —
/// and the pool counters of the load.
pub(crate) fn load_snapshot(
    path: &Path,
    budget: Option<usize>,
    selections: &HashMap<String, BTreeSet<String>>,
    doc_fingerprint: u64,
) -> Result<(OdSet, PoolStats), DogmatixError> {
    let (mut pool, header) = match budget {
        Some(budget) => pool_over_file(path, budget)?,
        None => {
            let data = std::fs::read(path)
                .map_err(|e| snap_err(format!("cannot read snapshot {}: {e}", path.display())))?;
            pool_over_bytes(data, usize::MAX)?
        }
    };
    let ods = decode(&mut pool, &header, selections, doc_fingerprint)?;
    Ok((ods, pool.stats()))
}

/// Verifies and reassembles a snapshot from its in-memory image (the
/// byte sequence [`paged_snapshot_to_bytes`] produced) — the
/// [`crate::wal`] checkpoint recovery path.
pub(crate) fn decode_image(
    data: Vec<u8>,
    selections: &HashMap<String, BTreeSet<String>>,
    doc_fingerprint: u64,
) -> Result<OdSet, DogmatixError> {
    let (mut pool, header) = pool_over_bytes(data, usize::MAX)?;
    decode(&mut pool, &header, selections, doc_fingerprint)
}

// ---- point access -----------------------------------------------------

/// Random point access over a snapshot: term text and posting lists
/// resolved by pinning exactly the pages a lookup touches. This is the
/// genuinely out-of-core access path — nothing is decoded up front, and
/// with a small budget the pool visibly evicts and refaults under a
/// scattered access pattern ([`PagedReader::stats`]).
#[derive(Debug)]
pub struct PagedReader {
    pool: BufferPool,
    header: Arc<PagedHeader>,
}

impl PagedReader {
    /// Opens the snapshot at `path` under a pool budget.
    pub fn open(path: impl AsRef<Path>, budget: usize) -> Result<PagedReader, DogmatixError> {
        let (pool, header) = pool_over_file(path.as_ref(), budget)?;
        Ok(PagedReader { pool, header })
    }

    /// Number of interned terms in the snapshot.
    pub fn term_count(&self) -> usize {
        (self.header.sections[SEC_TERM_SPANS].byte_len / 8) as usize
    }

    /// Reads `out.len()` bytes at `offset` within section `sec`.
    fn read_at(&mut self, sec: usize, offset: u64, out: &mut [u8]) -> Result<(), DogmatixError> {
        let meta = self.header.sections[sec];
        offset
            .checked_add(out.len() as u64)
            .filter(|&end| end <= meta.byte_len)
            .ok_or_else(|| {
                snap_err("paged snapshot corrupted: point read out of section bounds")
            })?;
        read_section(&mut self.pool, meta, offset, out)
    }

    /// Reads `len` bytes at `offset` within section `sec` into a fresh
    /// buffer. Both values come from the file, so the range is checked
    /// against the section before the buffer is sized from it.
    fn read_vec(&mut self, sec: usize, offset: u64, len: u64) -> Result<Vec<u8>, DogmatixError> {
        let len = offset
            .checked_add(len)
            .filter(|&end| end <= self.header.sections[sec].byte_len)
            .and_then(|_| usize::try_from(len).ok())
            .ok_or_else(|| {
                snap_err("paged snapshot corrupted: point read out of section bounds")
            })?;
        let mut out = vec![0u8; len];
        self.read_at(sec, offset, &mut out)?;
        Ok(out)
    }

    /// The normalised text of term `term`, resolved through the span
    /// and arena pages only.
    pub fn term_text(&mut self, term: u32) -> Result<String, DogmatixError> {
        let mut raw = [0u8; 8];
        self.read_at(SEC_TERM_SPANS, term as u64 * 8, &mut raw)?;
        let s = span(&mut Reader::new(&raw, "term span")).map_err(snap_err)?;
        let bytes = self.read_vec(SEC_ARENA, s.start_raw() as u64, s.len() as u64)?;
        String::from_utf8(bytes)
            .map_err(|_| snap_err("snapshot corrupted: arena is not valid UTF-8"))
    }

    /// The posting list (object ids) of term `term`, resolved through
    /// the CSR start and posting pages only.
    pub fn postings(&mut self, term: u32) -> Result<Vec<u32>, DogmatixError> {
        let mut raw = [0u8; 8];
        self.read_at(SEC_POSTING_STARTS, term as u64 * 4, &mut raw)?;
        let mut r = Reader::new(&raw, "posting starts");
        let start = r.u32().map_err(snap_err)?;
        let end = r.u32().map_err(snap_err)?;
        let corrupt = || snap_err("paged snapshot corrupted: non-monotonic posting starts");
        let n = end.checked_sub(start).ok_or_else(corrupt)?;
        let offset = (start as u64).checked_mul(4).ok_or_else(corrupt)?;
        let len = (n as u64).checked_mul(4).ok_or_else(corrupt)?;
        let bytes = self.read_vec(SEC_POSTINGS, offset, len)?;
        let mut r = Reader::new(&bytes, "postings");
        (0..n)
            .map(|_| r.u32())
            .collect::<Result<_, _>>()
            .map_err(snap_err)
    }

    /// Pool counters so far (hits, misses, evictions, peak residency).
    pub fn stats(&self) -> PoolStats {
        self.pool.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{InMemoryBackend, SnapshotBackend, TermIndexBackend};
    use crate::pipeline::Dogmatix;
    use dogmatix_xml::{Document, Schema};
    use std::path::PathBuf;

    fn corpus() -> (Document, Schema) {
        let mut xml = String::from("<db>");
        for i in 0..40 {
            let t = if i % 7 == 0 { "Common Song" } else { "Track" };
            xml.push_str(&format!(
                "<m><t>{t} {}</t><y>{}</y></m>",
                i / 2,
                1990 + i % 9
            ));
        }
        xml.push_str("</db>");
        let doc = Document::parse(&xml).unwrap();
        let schema = Schema::infer(&doc).unwrap();
        (doc, schema)
    }

    fn detector(backend: impl TermIndexBackend + 'static) -> Dogmatix {
        Dogmatix::builder()
            .add_type("M", ["/db/m"])
            .index_backend(backend)
            .build()
    }

    fn temp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("dx_paged_unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.{}.v2", std::process::id()))
    }

    #[test]
    fn paged_roundtrip_matches_in_memory_under_a_tight_budget() {
        let path = temp("roundtrip");
        let (doc, schema) = corpus();
        let cold = detector(SnapshotBackend::save(&path).with_page_size(256))
            .run(&doc, &schema, "M")
            .unwrap();
        let backend = Arc::new(SnapshotBackend::load(&path).with_budget(1024));
        let warm = detector(Arc::clone(&backend))
            .run(&doc, &schema, "M")
            .unwrap();
        let in_memory = detector(InMemoryBackend).run(&doc, &schema, "M").unwrap();
        assert_eq!(cold, warm);
        assert_eq!(warm, in_memory);
        // A 1 KiB budget over 256 B pages = 4 frames; the snapshot is
        // far larger, so the load must have evicted and stayed bounded.
        let stats = backend.last_stats().unwrap();
        assert!(stats.peak_resident_bytes <= 1024, "{stats:?}");
        assert!(stats.evictions > 0, "{stats:?}");
        assert!(
            std::fs::metadata(&path).unwrap().len() > 1024,
            "snapshot must exceed the budget for this test to mean anything"
        );
    }

    #[test]
    fn snapshot_backend_reads_v2_files() {
        // The unbounded default reads the whole file and keeps every
        // page resident; the result matches the budgeted load.
        let path = temp("compat");
        let (doc, schema) = corpus();
        let cold = detector(SnapshotBackend::save(&path))
            .run(&doc, &schema, "M")
            .unwrap();
        let unbounded = Arc::new(SnapshotBackend::load(&path));
        let warm = detector(Arc::clone(&unbounded))
            .run(&doc, &schema, "M")
            .unwrap();
        assert_eq!(cold, warm);
        let stats = unbounded.last_stats().unwrap();
        assert_eq!(stats.evictions, 0, "{stats:?}");
        assert_eq!(
            stats.peak_resident_bytes as u64 + header_len(&std::fs::read(&path).unwrap()),
            std::fs::metadata(&path).unwrap().len(),
            "every data page resident once"
        );
    }

    fn header_len(image: &[u8]) -> u64 {
        parse_fixed_header(image).unwrap().header_len as u64
    }

    #[test]
    fn paged_reader_point_reads_match_the_decoded_store() {
        let path = temp("points");
        let (doc, schema) = corpus();
        let dx = detector(SnapshotBackend::save(&path).with_page_size(256));
        dx.run(&doc, &schema, "M").unwrap();

        // Ground truth from a full in-memory build.
        let reference = detector(InMemoryBackend);
        let session = reference.session(&doc, &schema, "M").unwrap();
        let selections = session
            .selections_for(reference.selector_stage().as_ref())
            .unwrap();
        let ods = session.object_descriptions(&selections);
        let store = ods.store();

        let mut reader = PagedReader::open(&path, 1024).unwrap();
        assert_eq!(reader.term_count(), store.term_count());
        let step = (store.term_count() / 13).max(1);
        for t in (0..store.term_count()).step_by(step) {
            assert_eq!(reader.term_text(t as u32).unwrap(), store.norm(t));
            assert_eq!(reader.postings(t as u32).unwrap(), store.postings(t));
        }
        let stats = reader.stats();
        assert!(stats.peak_resident_bytes <= 1024, "{stats:?}");
    }

    /// Overwrites the u32 at `offset` of section `sec` and re-seals the
    /// page and header checksums, as a forger would.
    fn forge_u32(image: &mut [u8], sec: usize, offset: u64, value: u32) {
        let fixed = parse_fixed_header(image).unwrap();
        let header = parse_paged_header(&image[..fixed.header_len], image.len() as u64).unwrap();
        let ps = header.page_size as u64;
        let page = header.sections[sec].first_page as u64 + offset / ps;
        let at = (header.header_len as u64 + page * ps + offset % ps) as usize;
        image[at..at + 4].copy_from_slice(&value.to_le_bytes());
        let page_at = header.header_len + page as usize * header.page_size;
        let sum = checksum(&image[page_at..page_at + header.page_size]);
        let table_at = HEADER_FIXED + SECTION_COUNT * DIR_ENTRY_BYTES + page as usize * 8;
        image[table_at..table_at + 8].copy_from_slice(&sum.to_le_bytes());
        let digest = header_digest(&image[..header.header_len]);
        image[24..32].copy_from_slice(&digest.to_le_bytes());
    }

    #[test]
    fn forged_point_read_lengths_fail_before_allocating() {
        let path = temp("forged");
        let (doc, schema) = corpus();
        detector(SnapshotBackend::save(&path).with_page_size(256))
            .run(&doc, &schema, "M")
            .unwrap();
        let good = std::fs::read(&path).unwrap();

        // Term 0's span claims a ~4 GiB length; term 1's CSR end claims
        // ~16 GiB of postings. Checksums are re-sealed, so only the
        // section bounds check stands between the file and the
        // allocation.
        let mut span = good.clone();
        forge_u32(&mut span, SEC_TERM_SPANS, 4, u32::MAX - 1);
        let mut starts = good.clone();
        forge_u32(&mut starts, SEC_POSTING_STARTS, 8, u32::MAX);
        for (tag, image) in [("span", span), ("starts", starts)] {
            std::fs::write(&path, &image).unwrap();
            let mut reader = PagedReader::open(&path, 1 << 16).unwrap();
            let err = match tag {
                "span" => reader.term_text(0).unwrap_err(),
                _ => reader.postings(1).unwrap_err(),
            };
            assert!(
                matches!(err, DogmatixError::Snapshot { .. }),
                "{tag}: {err}"
            );
            assert!(err.to_string().contains("out of section bounds"), "{err}");
        }
    }

    #[test]
    fn version_cross_errors_name_both_versions() {
        // A version-1 image — the retired flat format — is refused by
        // every reader with a message naming both versions and the fix.
        let path = temp("v1file");
        let (doc, schema) = corpus();
        detector(SnapshotBackend::save(&path))
            .run(&doc, &schema, "M")
            .unwrap();
        let mut image = std::fs::read(&path).unwrap();
        image[4..8].copy_from_slice(&FLAT_VERSION.to_le_bytes());
        std::fs::write(&path, &image).unwrap();
        let errs = [
            PagedReader::open(&path, 1 << 16).unwrap_err(),
            decode_image(image, &HashMap::new(), 0).unwrap_err(),
            detector(SnapshotBackend::load(&path))
                .run(&doc, &schema, "M")
                .unwrap_err(),
        ];
        for err in errs {
            let msg = err.to_string();
            assert!(matches!(err, DogmatixError::Snapshot { .. }), "{msg}");
            assert!(msg.contains("version 1"), "{msg}");
            assert!(msg.contains("version 2"), "{msg}");
            assert!(msg.contains("re-save"), "{msg}");
        }
    }
}
