//! The `MCSSTOR1` container: a single file holding named, checksummed,
//! page-aligned byte sections. Field-by-field layout in `docs/STORE.md`.
//!
//! The format is deliberately dumb: a 4096-byte header page (magic,
//! version, section table) followed by each section's raw payload at a
//! 4096-byte-aligned offset. Payloads are the in-memory arenas written
//! little-endian, so loading a section is one fused CRC-and-widen pass
//! over its bytes — no parsing, no per-row work.

use std::fmt;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

/// File magic: the first eight bytes of every store.
pub const MAGIC: &[u8; 8] = b"MCSSTOR1";

/// Current (and only) container version.
pub const VERSION: u32 = 1;

/// Section payloads start at offsets aligned to this many bytes; the
/// header occupies exactly one such page.
pub const PAGE: usize = 4096;

/// Bytes of the header page reserved before the section table.
const TABLE_START: usize = 32;

/// Bytes per section-table entry.
const ENTRY_BYTES: usize = 32;

/// Maximum sections a store can hold (the table must fit the header
/// page): `(4096 - 32) / 32 = 127`.
pub const MAX_SECTIONS: usize = (PAGE - TABLE_START) / ENTRY_BYTES;

/// Well-known section ids. Unknown ids are preserved and readable, so
/// future writers can add sections without breaking old readers.
pub mod section {
    /// Workload shape: `[num_topics, num_subscribers]` as u64s.
    pub const WORKLOAD_META: u32 = 0x01;
    /// Per-topic event rates `ev_t` (u64 each).
    pub const RATES: u32 = 0x02;
    /// Interest CSR offsets, `|V| + 1` u32s (shared with the ranked arena).
    pub const INTEREST_OFFSETS: u32 = 0x03;
    /// Flat interest arena `T_v` (u32 topic ids).
    pub const INTEREST_TOPICS: u32 = 0x04;
    /// Flat rate-ranked interest arena (u32 topic ids).
    pub const RANKED_TOPICS: u32 = 0x05;
    /// Follower CSR offsets, `|T| + 1` u32s.
    pub const FOLLOWER_OFFSETS: u32 = 0x06;
    /// Flat derived follower arena `V_t` (u32 subscriber ids).
    pub const FOLLOWER_IDS: u32 = 0x07;
    /// Stage-1 selection CSR offsets, `|V| + 1` u32s.
    pub const SELECTION_OFFSETS: u32 = 0x10;
    /// Flat selection arena (u32 topic ids).
    pub const SELECTION_TOPICS: u32 = 0x11;
    /// Fleet ledger slot table: `[cap, used, state, row_count]` per slot.
    pub const LEDGER_SLOTS: u32 = 0x20;
    /// One u32 topic id per ledger row, slots concatenated in order.
    pub const LEDGER_ROW_TOPICS: u32 = 0x21;
    /// Row offsets into the ledger subscriber arena, `rows + 1` u32s.
    pub const LEDGER_ROW_OFFSETS: u32 = 0x22;
    /// Flat ledger subscriber arena (u32 subscriber ids).
    pub const LEDGER_SUBSCRIBERS: u32 = 0x23;
    /// Serve-daemon snapshot metadata: `[last_seq, epochs_applied, tau,
    /// capacity]` as u64s.
    pub const SERVE_META: u32 = 0x30;
}

/// Human-readable name for a section id, used in diagnostics and the
/// `mcss analyze --store` breakdown. Unknown ids report as `"unknown"`.
pub fn section_name(id: u32) -> &'static str {
    match id {
        section::WORKLOAD_META => "workload-meta",
        section::RATES => "rates",
        section::INTEREST_OFFSETS => "interest-offsets",
        section::INTEREST_TOPICS => "interest-topics",
        section::RANKED_TOPICS => "ranked-topics",
        section::FOLLOWER_OFFSETS => "follower-offsets",
        section::FOLLOWER_IDS => "follower-ids",
        section::SELECTION_OFFSETS => "selection-offsets",
        section::SELECTION_TOPICS => "selection-topics",
        section::LEDGER_SLOTS => "ledger-slots",
        section::LEDGER_ROW_TOPICS => "ledger-row-topics",
        section::LEDGER_ROW_OFFSETS => "ledger-row-offsets",
        section::LEDGER_SUBSCRIBERS => "ledger-subscribers",
        section::SERVE_META => "serve-meta",
        _ => "unknown",
    }
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, polynomial 0xEDB88320)
// ---------------------------------------------------------------------

/// Sixteen derived tables for slicing-by-16: `CRC_TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, so sixteen independent
/// lookups fold sixteen input bytes per iteration. `CRC_TABLES[0]` is
/// the classic byte-at-a-time table.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut c = tables[0][i];
        let mut k = 1;
        while k < 16 {
            c = tables[0][(c & 0xFF) as usize] ^ (c >> 8);
            tables[k][i] = c;
            k += 1;
        }
        i += 1;
    }
    tables
};

/// One slicing-by-16 step: folds sixteen bytes of `chunk` into `c`.
#[inline(always)]
fn crc_step16(c: u32, chunk: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let a = u64::from_le_bytes(chunk[0..8].try_into().unwrap()) ^ u64::from(c);
    let b = u64::from_le_bytes(chunk[8..16].try_into().unwrap());
    t[15][(a & 0xFF) as usize]
        ^ t[14][((a >> 8) & 0xFF) as usize]
        ^ t[13][((a >> 16) & 0xFF) as usize]
        ^ t[12][((a >> 24) & 0xFF) as usize]
        ^ t[11][((a >> 32) & 0xFF) as usize]
        ^ t[10][((a >> 40) & 0xFF) as usize]
        ^ t[9][((a >> 48) & 0xFF) as usize]
        ^ t[8][(a >> 56) as usize]
        ^ t[7][(b & 0xFF) as usize]
        ^ t[6][((b >> 8) & 0xFF) as usize]
        ^ t[5][((b >> 16) & 0xFF) as usize]
        ^ t[4][((b >> 24) & 0xFF) as usize]
        ^ t[3][((b >> 32) & 0xFF) as usize]
        ^ t[2][((b >> 40) & 0xFF) as usize]
        ^ t[1][((b >> 48) & 0xFF) as usize]
        ^ t[0][(b >> 56) as usize]
}

/// Raw (no pre/post inversion) single-chain CRC update over `bytes`.
fn crc32_update(mut c: u32, bytes: &[u8]) -> u32 {
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        c = crc_step16(c, chunk);
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

// CRC32 is a linear code over GF(2): the CRC of `A || B` equals the CRC
// of `A` advanced over `len(B)` zero bytes, XOR the raw CRC of `B`.
// Advancing is multiplication by a 32×32 GF(2) matrix, so independent
// chunk CRCs can be stitched together exactly — which lets the hot loop
// run four independent lookup chains (the table walk is latency-bound,
// not bandwidth-bound) and lets the streaming section loader checksum
// bounded chunks without holding a whole section in memory.

/// Matrix advancing a CRC over one zero *byte*, built by squaring the
/// one-zero-bit operator three times (1 → 2 → 4 → 8 bits).
const CRC_BYTE_OP: [u32; 32] = {
    const fn times(mat: &[u32; 32], mut vec: u32) -> u32 {
        let mut sum = 0u32;
        let mut i = 0;
        while vec != 0 {
            if vec & 1 != 0 {
                sum ^= mat[i];
            }
            vec >>= 1;
            i += 1;
        }
        sum
    }
    let mut odd = [0u32; 32];
    odd[0] = 0xEDB8_8320;
    let mut i = 1;
    while i < 32 {
        odd[i] = 1 << (i - 1);
        i += 1;
    }
    let mut k = 0;
    while k < 3 {
        let mut sq = [0u32; 32];
        let mut j = 0;
        while j < 32 {
            sq[j] = times(&odd, odd[j]);
            j += 1;
        }
        odd = sq;
        k += 1;
    }
    odd
};

fn gf2_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0u32;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

/// The GF(2) matrix advancing a CRC over `len` zero bytes
/// ([`CRC_BYTE_OP`] raised to the `len`-th power by square-and-multiply).
fn crc32_shift_op(len: u64) -> [u32; 32] {
    let mut result = [0u32; 32];
    for (i, r) in result.iter_mut().enumerate() {
        *r = 1 << i; // identity
    }
    let mut base = CRC_BYTE_OP;
    let mut n = len;
    while n != 0 {
        if n & 1 != 0 {
            let mut next = [0u32; 32];
            for (i, x) in next.iter_mut().enumerate() {
                *x = gf2_times(&base, result[i]);
            }
            result = next;
        }
        n >>= 1;
        if n != 0 {
            let mut sq = [0u32; 32];
            for (i, x) in sq.iter_mut().enumerate() {
                *x = gf2_times(&base, base[i]);
            }
            base = sq;
        }
    }
    result
}

/// Raw CRC update running four independent slicing-by-16 chains over
/// quarters of `bytes`, stitched with the GF(2) shift operator. The
/// single-chain loop is latency-bound on its table lookups; four chains
/// overlap those latencies for ~2x throughput on the same tables.
fn crc32_update_wide(init: u32, bytes: &[u8]) -> u32 {
    let q = (bytes.len() / 4) & !15;
    if q < 256 {
        return crc32_update(init, bytes);
    }
    let (p0, rest) = bytes.split_at(q);
    let (p1, rest) = rest.split_at(q);
    let (p2, rest) = rest.split_at(q);
    let (p3, tail) = rest.split_at(q);
    let (mut c0, mut c1, mut c2, mut c3) = (init, 0u32, 0u32, 0u32);
    for i in 0..q / 16 {
        let o = i * 16;
        c0 = crc_step16(c0, &p0[o..o + 16]);
        c1 = crc_step16(c1, &p1[o..o + 16]);
        c2 = crc_step16(c2, &p2[o..o + 16]);
        c3 = crc_step16(c3, &p3[o..o + 16]);
    }
    let shift_q = crc32_shift_op(q as u64);
    let mut c = gf2_times(&shift_q, c0) ^ c1;
    c = gf2_times(&shift_q, c) ^ c2;
    c = gf2_times(&shift_q, c) ^ c3;
    crc32_update(c, tail)
}

/// CRC32 (IEEE 802.3, the zlib/PNG polynomial) over `bytes`. Runs four
/// interleaved lookup chains (`crc32_update_wide`), sustaining
/// multiple GB/s — the load-path CRC sweep over a store stays a small
/// fraction of the cold start even at a million subscribers.
/// Identical values to the classic one-lookup-per-byte loop.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update_wide(!0, bytes)
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Errors raised while writing or reading a store. Every corruption
/// variant that concerns a specific section *names* that section — the
/// fail-closed contract the corruption sweeps assert.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// The file does not start with [`MAGIC`] — not a store at all.
    BadMagic,
    /// The header declares a version this build cannot read.
    UnsupportedVersion(u32),
    /// The header page or section table is inconsistent (bad checksum,
    /// out-of-bounds entry, truncated file).
    HeaderCorrupt(String),
    /// A section the caller requires is absent from the table.
    MissingSection {
        /// Name of the absent section.
        section: String,
    },
    /// A section's payload failed its CRC32 check.
    SectionCrc {
        /// Name of the corrupted section.
        section: String,
    },
    /// A section passed its checksum but its contents are inconsistent
    /// (wrong element width, impossible lengths, out-of-range ids).
    SectionMalformed {
        /// Name of the inconsistent section.
        section: String,
        /// What exactly is wrong.
        detail: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not an MCSSTOR1 store (bad magic)"),
            StoreError::UnsupportedVersion(v) => write!(
                f,
                "unsupported store version {v} (this build reads up to {VERSION})"
            ),
            StoreError::HeaderCorrupt(detail) => write!(f, "corrupted store header: {detail}"),
            StoreError::MissingSection { section } => {
                write!(f, "store is missing required section `{section}`")
            }
            StoreError::SectionCrc { section } => {
                write!(f, "store section `{section}` failed its CRC32 check")
            }
            StoreError::SectionMalformed { section, detail } => {
                write!(f, "store section `{section}` is malformed: {detail}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Assembles a store: accumulate sections, then serialize with
/// [`StoreBuilder::to_bytes`] or write atomically with
/// [`StoreBuilder::write`]. Sections land in the file in insertion
/// order, each at the next 4096-byte boundary.
#[derive(Debug, Default)]
pub struct StoreBuilder {
    sections: Vec<(u32, Vec<u8>)>,
}

impl StoreBuilder {
    /// An empty store.
    pub fn new() -> StoreBuilder {
        StoreBuilder::default()
    }

    /// Adds a raw byte section.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate section id or when the table would exceed
    /// [`MAX_SECTIONS`] — both are writer bugs, not runtime conditions.
    pub fn section(&mut self, id: u32, bytes: Vec<u8>) -> &mut StoreBuilder {
        assert!(
            self.sections.iter().all(|&(other, _)| other != id),
            "duplicate store section id {id:#x} ({})",
            section_name(id)
        );
        assert!(
            self.sections.len() < MAX_SECTIONS,
            "store exceeds {MAX_SECTIONS} sections"
        );
        self.sections.push((id, bytes));
        self
    }

    /// Adds a section of little-endian u32s.
    pub fn u32s(&mut self, id: u32, values: &[u32]) -> &mut StoreBuilder {
        let mut bytes = Vec::with_capacity(values.len() * 4);
        for &v in values {
            put_u32(&mut bytes, v);
        }
        self.section(id, bytes)
    }

    /// Adds a section of little-endian u64s.
    pub fn u64s(&mut self, id: u32, values: &[u64]) -> &mut StoreBuilder {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for &v in values {
            put_u64(&mut bytes, v);
        }
        self.section(id, bytes)
    }

    /// Serializes the container: header page, then each payload at the
    /// next page boundary. Inter-section gaps are zero padding (not
    /// covered by any checksum — never read back); the file ends exactly
    /// at the last payload byte, and the header records that length.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload_at = Vec::with_capacity(self.sections.len());
        let mut cursor = PAGE;
        for (_, bytes) in &self.sections {
            cursor = cursor.next_multiple_of(PAGE);
            payload_at.push(cursor);
            cursor += bytes.len();
        }
        let file_len = cursor;

        let mut out = vec![0u8; PAGE];
        out.reserve(file_len - PAGE);
        out[..8].copy_from_slice(MAGIC);
        out[8..12].copy_from_slice(&VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&(self.sections.len() as u32).to_le_bytes());
        out[16..24].copy_from_slice(&(file_len as u64).to_le_bytes());
        // out[24..28] is the header CRC, patched below; out[28..32] reserved.
        for (i, ((id, bytes), &offset)) in self.sections.iter().zip(&payload_at).enumerate() {
            let e = TABLE_START + i * ENTRY_BYTES;
            out[e..e + 4].copy_from_slice(&id.to_le_bytes());
            out[e + 8..e + 16].copy_from_slice(&(offset as u64).to_le_bytes());
            out[e + 16..e + 24].copy_from_slice(&(bytes.len() as u64).to_le_bytes());
            out[e + 24..e + 28].copy_from_slice(&crc32(bytes).to_le_bytes());
        }
        let header_crc = crc32(&out[..PAGE]);
        out[24..28].copy_from_slice(&header_crc.to_le_bytes());

        for ((_, bytes), &offset) in self.sections.iter().zip(&payload_at) {
            out.resize(offset, 0);
            out.extend_from_slice(bytes);
        }
        debug_assert_eq!(out.len(), file_len);
        out
    }

    /// Writes the store atomically: bytes go to `<path>.tmp`, which is
    /// fsynced and renamed over `path`, so a crash mid-write leaves any
    /// previous store intact.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] from writing, syncing, or renaming.
    pub fn write(&self, path: &Path) -> Result<(), StoreError> {
        let bytes = self.to_bytes();
        let tmp = path.with_extension("mcss.tmp");
        let mut file = File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_data()?;
        drop(file);
        fs::rename(&tmp, path)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------

/// One validated entry of a store's section table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section id (see [`section`]).
    pub id: u32,
    /// Human-readable name ([`section_name`]).
    pub name: &'static str,
    /// Absolute payload offset; always a multiple of [`PAGE`].
    pub offset: u64,
    /// Exact payload length in bytes.
    pub len: u64,
    /// Expected CRC32 of the payload.
    pub crc: u32,
}

/// Validates a store header page against the file's actual byte count
/// and returns the section table: magic, version, header checksum, and
/// every table entry's bounds and alignment. `bytes` is the file's first
/// `min(PAGE, actual_len)` bytes.
fn validate_header(bytes: &[u8], actual_len: u64) -> Result<Vec<SectionInfo>, StoreError> {
    if bytes.len() < 8 || &bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    if bytes.len() < PAGE {
        return Err(StoreError::HeaderCorrupt(
            "file shorter than the header page".into(),
        ));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version == 0 || version > VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let mut header = bytes[..PAGE].to_vec();
    let stored_crc = u32::from_le_bytes(header[24..28].try_into().unwrap());
    header[24..28].copy_from_slice(&[0; 4]);
    if crc32(&header) != stored_crc {
        return Err(StoreError::HeaderCorrupt("header checksum mismatch".into()));
    }
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    if count > MAX_SECTIONS {
        return Err(StoreError::HeaderCorrupt(format!(
            "section count {count} exceeds the table capacity {MAX_SECTIONS}"
        )));
    }
    let file_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    if file_len != actual_len {
        return Err(StoreError::HeaderCorrupt(format!(
            "header records {file_len} bytes but the file holds {actual_len} (truncated?)"
        )));
    }
    let mut sections: Vec<SectionInfo> = Vec::with_capacity(count);
    for i in 0..count {
        let e = TABLE_START + i * ENTRY_BYTES;
        let id = u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap());
        let offset = u64::from_le_bytes(bytes[e + 8..e + 16].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[e + 16..e + 24].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[e + 24..e + 28].try_into().unwrap());
        let name = section_name(id);
        if offset % PAGE as u64 != 0 || offset < PAGE as u64 {
            return Err(StoreError::HeaderCorrupt(format!(
                "section `{name}` offset {offset} is not page-aligned past the header"
            )));
        }
        if offset.checked_add(len).is_none_or(|end| end > file_len) {
            return Err(StoreError::HeaderCorrupt(format!(
                "section `{name}` ({offset}+{len} bytes) overruns the {file_len}-byte file"
            )));
        }
        if sections.iter().any(|s| s.id == id) {
            return Err(StoreError::HeaderCorrupt(format!(
                "section `{name}` (id {id:#x}) appears twice in the table"
            )));
        }
        sections.push(SectionInfo {
            id,
            name,
            offset,
            len,
            crc,
        });
    }
    Ok(sections)
}

/// Bytes streamed per `read` by [`StoreReader`] — large enough to
/// amortize syscalls, small enough to stay cache-resident so the fused
/// checksum-and-widen pass reads the kernel's copy out of L2 instead of
/// sweeping the whole section through DRAM a second time.
const STREAM_CHUNK: usize = 512 * 1024;

/// An open store. Opening reads and validates the header page only;
/// each requested section is then pulled through a fixed cache-sized
/// scratch buffer, fusing the CRC sweep and the little-endian widening
/// into one pass over warm bytes. On a memory-bandwidth-bound cold start
/// this skips a whole-file DRAM round trip; per-chunk CRCs are stitched
/// with the GF(2) shift operator so the verified value is identical to a
/// single sweep. Sections fail closed: a payload whose checksum
/// mismatches is reported by name and its data is never returned.
#[derive(Debug)]
pub struct StoreReader {
    file: File,
    file_len: u64,
    sections: Vec<SectionInfo>,
    scratch: Vec<u8>,
    /// [`CRC_BYTE_OP`]^`STREAM_CHUNK`, precomputed once: every full
    /// chunk advances the running CRC by the same operator.
    chunk_op: [u32; 32],
}

impl StoreReader {
    /// Opens a store and validates its header page against the file's
    /// on-disk length: magic, version, header checksum, and every table
    /// entry's bounds and alignment. No section payload is read yet.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures, otherwise
    /// [`StoreError::BadMagic`], [`StoreError::UnsupportedVersion`], or
    /// [`StoreError::HeaderCorrupt`] naming what is inconsistent.
    pub fn open(path: &Path) -> Result<StoreReader, StoreError> {
        let mut file = File::open(path)?;
        let file_len = file.metadata()?.len();
        let mut header = vec![0u8; PAGE.min(file_len as usize)];
        io::Read::read_exact(&mut file, &mut header)?;
        let sections = validate_header(&header, file_len)?;
        Ok(StoreReader {
            file,
            file_len,
            sections,
            scratch: vec![0u8; STREAM_CHUNK],
            chunk_op: crc32_shift_op(STREAM_CHUNK as u64),
        })
    }

    /// Total file length in bytes, as recorded in the validated header.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// The validated section table, in file order.
    pub fn sections(&self) -> &[SectionInfo] {
        &self.sections
    }

    /// Whether the table lists section `id`.
    pub fn has(&self, id: u32) -> bool {
        self.sections.iter().any(|s| s.id == id)
    }

    /// Streams section `id` through the scratch buffer, feeding each
    /// chunk to `sink` while accumulating the payload CRC. `sink` output
    /// must be discarded by the caller if this returns an error — the
    /// checksum verdict only lands after the final chunk.
    fn stream_section(
        &mut self,
        info: SectionInfo,
        mut sink: impl FnMut(&[u8]),
    ) -> Result<(), StoreError> {
        io::Seek::seek(&mut self.file, io::SeekFrom::Start(info.offset))?;
        let mut remaining = info.len as usize;
        let mut acc = !0u32;
        while remaining > 0 {
            let n = remaining.min(STREAM_CHUNK);
            let chunk = &mut self.scratch[..n];
            io::Read::read_exact(&mut self.file, chunk)?;
            acc = if n == STREAM_CHUNK {
                gf2_times(&self.chunk_op, acc)
            } else {
                gf2_times(&crc32_shift_op(n as u64), acc)
            } ^ crc32_update_wide(0, chunk);
            sink(chunk);
            remaining -= n;
        }
        if !acc != info.crc {
            return Err(StoreError::SectionCrc {
                section: info.name.to_string(),
            });
        }
        Ok(())
    }

    /// A section decoded as little-endian u32s, checksum-verified.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingSection`] when the table lacks `id`;
    /// [`StoreError::SectionMalformed`] when the payload length is not a
    /// multiple of 4; [`StoreError::SectionCrc`] naming the section when
    /// its payload fails the checksum.
    pub fn read_u32s(&mut self, id: u32) -> Result<Vec<u32>, StoreError> {
        let info = self.section_checked(id, 4)?;
        let mut out = Vec::with_capacity(info.len as usize / 4);
        // STREAM_CHUNK is a multiple of 4, so no u32 straddles chunks.
        self.stream_section(info, |chunk| {
            out.extend(
                chunk
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap())),
            );
        })?;
        Ok(out)
    }

    /// A section decoded as little-endian u64s, checksum-verified.
    ///
    /// # Errors
    ///
    /// As [`StoreReader::read_u32s`], with a payload length that must be
    /// a multiple of 8.
    pub fn read_u64s(&mut self, id: u32) -> Result<Vec<u64>, StoreError> {
        let info = self.section_checked(id, 8)?;
        let mut out = Vec::with_capacity(info.len as usize / 8);
        self.stream_section(info, |chunk| {
            out.extend(
                chunk
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap())),
            );
        })?;
        Ok(out)
    }

    /// The table entry for `id`, provided its payload is a whole number
    /// of `width`-byte elements.
    fn section_checked(&self, id: u32, width: u64) -> Result<SectionInfo, StoreError> {
        let info = *self.sections.iter().find(|s| s.id == id).ok_or_else(|| {
            StoreError::MissingSection {
                section: section_name(id).to_string(),
            }
        })?;
        if !info.len.is_multiple_of(width) {
            return Err(StoreError::SectionMalformed {
                section: info.name.to_string(),
                detail: format!(
                    "{} bytes is not a whole number of u{}s",
                    info.len,
                    width * 8
                ),
            });
        }
        Ok(info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The classic one-lookup-per-byte loop, kept as the reference the
    /// sliced implementation must agree with.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The standard CRC-32/ISO-HDLC check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc32_matches_byte_at_a_time_at_every_length() {
        let data: Vec<u8> = (0..1024u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8)
            .collect();
        for len in 0..=data.len() {
            assert_eq!(
                crc32(&data[..len]),
                crc32_reference(&data[..len]),
                "sliced CRC diverged at length {len}"
            );
        }
    }
}
