//! Load `.sxvpkg` packages back into live artifacts — zero-copy.
//!
//! Loading memory-maps the file (raw `mmap` syscall on Linux; a single
//! aligned read elsewhere), validates structure in O(sections) (magic,
//! version, table geometry, per-section checksums), and then *borrows*
//! every per-node column straight out of the buffer: the format stores
//! all derived structures fat (child CSR, text-node ids, the whole
//! structural index, per-role view-children CSR) as 8-aligned
//! little-endian words, which [`sxv_xml::U32s`]/[`sxv_xml::Str`] view
//! in place. No XML parsing, no σ expansion, no per-node allocation,
//! no per-node decoding — cold-start cost is the checksum pass plus
//! O(1)-per-section bookkeeping.
//!
//! Trust model: the checksum pass rejects accidental corruption, and
//! every structural way the bytes can be wrong (truncation, bad magic,
//! version skew, overlapping sections, arity mismatches) maps to a
//! typed [`Error`], never a panic or UB. A file that
//! *checksums correctly* but encodes inconsistent column contents
//! (e.g. a child id pointing at the wrong parent) is trusted the way
//! any database trusts its own pages: answers may be wrong, slice
//! bounds checks still hold.

use crate::error::{Error, Result};
use crate::format::{
    checksum, decode_string_table, decode_u64s, section_name, Reader, FORMAT_VERSION, HEADER_BYTES,
    MAGIC, SEC_ATTR_NAMES, SEC_ATTR_NODES, SEC_ATTR_VALUES, SEC_CHILD_IDS, SEC_CHILD_OFFSETS,
    SEC_DTD_TEXT, SEC_IDX_DEPTH, SEC_IDX_ELEMENTS, SEC_IDX_LABEL_IDS, SEC_IDX_LABEL_OFFSETS,
    SEC_IDX_SUBTREE_END, SEC_LABELS, SEC_META, SEC_NODE_LABELS, SEC_NODE_PARENTS, SEC_ROLE,
    SEC_ROOT_NAME, SEC_TEXT_BLOB, SEC_TEXT_NODE_IDS, SEC_TEXT_OFFSETS, TABLE_ENTRY_BYTES,
};
use crate::writer::NONE64;
use std::collections::BTreeMap;
use std::io::Read as _;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use sxv_xml::{
    Bytes, DocIndex, Document, NodeBitmap, NodeId, PackedDocIndexParts, PackedDocumentParts, Str,
    U32s,
};
use sxv_xpath::{AccessView, PackedAccessViewParts};

/// One role rehydrated from a package: enough to re-derive the engine
/// (spec text + binds are DTD-sized) plus the doc-sized [`AccessView`]
/// artifact ready to preload into an engine's access cache.
#[derive(Debug, Clone)]
pub struct LoadedRole {
    /// Role name.
    pub name: String,
    /// Access-spec source text, verbatim as packed.
    pub spec_text: String,
    /// `$var=value` bindings for spec instantiation.
    pub binds: Vec<(String, String)>,
    /// The accessibility artifact, shared-ready for engine preloading.
    pub access: Arc<AccessView>,
}

/// A fully-loaded package: the document, its structural index, the DTD
/// it conforms to, and per-role access artifacts. Columns borrow the
/// package buffer, which stays alive (mapped or in memory) as long as
/// any of them does.
#[derive(Debug)]
pub struct Package {
    /// DTD source text (parse it to rebuild specs/views — cheap).
    pub dtd_text: String,
    /// DTD root element-type name.
    pub root_name: String,
    /// The document (columns borrowed from the package buffer).
    pub doc: Document,
    /// The structural index (columns borrowed from the package buffer).
    pub index: DocIndex,
    /// Per-role artifacts in packed order.
    pub roles: Vec<LoadedRole>,
}

// --- buffer acquisition -------------------------------------------------

/// A heap buffer whose bytes start 8-aligned (backing storage is
/// `Vec<u64>`), so packed word columns can be viewed in place even when
/// the file was read rather than mapped. (`Vec<u8>` only guarantees
/// byte alignment.)
struct AlignedBuf {
    words: Vec<u64>,
    len: usize,
}

impl AlignedBuf {
    fn from_bytes(bytes: &[u8]) -> AlignedBuf {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        // SAFETY: the destination holds >= bytes.len() initialized bytes.
        unsafe {
            std::ptr::copy_nonoverlapping(
                bytes.as_ptr(),
                words.as_mut_ptr().cast::<u8>(),
                bytes.len(),
            );
        }
        AlignedBuf { words, len: bytes.len() }
    }

    fn read_file(path: &Path) -> std::io::Result<AlignedBuf> {
        let mut f = std::fs::File::open(path)?;
        let len = f.metadata()?.len() as usize;
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: viewing the zero-initialized word buffer byte-wise.
        let dst = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), len) };
        f.read_exact(dst)?;
        Ok(AlignedBuf { words, len })
    }
}

impl AsRef<[u8]> for AlignedBuf {
    fn as_ref(&self) -> &[u8] {
        // SAFETY: `words` holds at least `len` initialized bytes.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

/// Read-only file mapping via raw syscalls (the toolchain has no libc
/// crate). `MAP_POPULATE` pre-faults the pages so the checksum pass
/// doesn't take one page fault per 4 KiB.
#[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
mod mapped {
    use std::fs::File;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: usize = 1;
    const MAP_PRIVATE: usize = 2;
    const MAP_POPULATE: usize = 0x8000;

    /// An mmap'd read-only region, unmapped on drop.
    pub struct Mapped {
        ptr: *const u8,
        len: usize,
    }

    // SAFETY: the mapping is immutable (PROT_READ, private) for its
    // whole lifetime, so shared reads across threads are sound.
    unsafe impl Send for Mapped {}
    unsafe impl Sync for Mapped {}

    impl AsRef<[u8]> for Mapped {
        fn as_ref(&self) -> &[u8] {
            // SAFETY: ptr/len describe a live mapping until drop.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for Mapped {
        fn drop(&mut self) {
            // SAFETY: exactly the region mmap returned; errors are
            // unreportable in drop and the region leaks at worst.
            unsafe { sys_munmap(self.ptr as usize, self.len) };
        }
    }

    /// Map `len` bytes of `file` read-only, or `None` if the kernel
    /// refuses (caller falls back to reading).
    pub fn map_file(file: &File, len: usize) -> Option<Mapped> {
        if len == 0 {
            return None;
        }
        let fd = file.as_raw_fd();
        // SAFETY: a fresh PROT_READ/MAP_PRIVATE mapping of a file we
        // hold open; the kernel validates all arguments.
        let ret =
            unsafe { sys_mmap(0, len, PROT_READ, MAP_PRIVATE | MAP_POPULATE, fd as usize, 0) };
        // Linux returns -errno in [-4095, -1] on failure.
        if ret > usize::MAX - 4095 {
            return None;
        }
        Some(Mapped { ptr: ret as *const u8, len })
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn sys_mmap(
        addr: usize,
        len: usize,
        prot: usize,
        flags: usize,
        fd: usize,
        off: usize,
    ) -> usize {
        let ret: usize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") 9usize => ret, // __NR_mmap
            in("rdi") addr, in("rsi") len, in("rdx") prot,
            in("r10") flags, in("r8") fd, in("r9") off,
            lateout("rcx") _, lateout("r11") _,
            options(nostack)
        );
        ret
    }

    #[cfg(target_arch = "x86_64")]
    unsafe fn sys_munmap(addr: usize, len: usize) -> usize {
        let ret: usize;
        std::arch::asm!(
            "syscall",
            inlateout("rax") 11usize => ret, // __NR_munmap
            in("rdi") addr, in("rsi") len,
            lateout("rcx") _, lateout("r11") _,
            options(nostack)
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn sys_mmap(
        addr: usize,
        len: usize,
        prot: usize,
        flags: usize,
        fd: usize,
        off: usize,
    ) -> usize {
        let ret: usize;
        std::arch::asm!(
            "svc #0",
            inlateout("x0") addr => ret,
            in("x1") len, in("x2") prot, in("x3") flags,
            in("x4") fd, in("x5") off,
            in("x8") 222usize, // __NR_mmap
            options(nostack)
        );
        ret
    }

    #[cfg(target_arch = "aarch64")]
    unsafe fn sys_munmap(addr: usize, len: usize) -> usize {
        let ret: usize;
        std::arch::asm!(
            "svc #0",
            inlateout("x0") addr => ret,
            in("x1") len,
            in("x8") 215usize, // __NR_munmap
            options(nostack)
        );
        ret
    }
}

/// Read and validate a package file, memory-mapping it where possible.
pub fn load_package_file(path: &Path) -> Result<Package> {
    #[cfg(all(target_os = "linux", any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len() as usize;
        if let Some(m) = mapped::map_file(&file, len) {
            return load_package(Bytes::new(Arc::new(m)));
        }
    }
    let buf = AlignedBuf::read_file(path)?;
    load_package(Bytes::new(Arc::new(buf)))
}

/// Validate and decode a package from raw bytes (copies them once into
/// an aligned buffer; the file path maps instead).
pub fn load_package_bytes(bytes: &[u8]) -> Result<Package> {
    load_package(Bytes::new(Arc::new(AlignedBuf::from_bytes(bytes))))
}

struct Section {
    kind: u32,
    range: Range<usize>,
}

/// Parse and checksum the header + section table, returning payload
/// ranges. This is the O(sections) structural validation layer.
fn parse_sections(bytes: &[u8]) -> Result<Vec<Section>> {
    if bytes.len() < HEADER_BYTES {
        return Err(Error::Truncated {
            what: "header".into(),
            needed: HEADER_BYTES,
            available: bytes.len(),
        });
    }
    if bytes[..8] != MAGIC {
        return Err(Error::BadMagic { found: bytes[..8].try_into().unwrap() });
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(Error::VersionMismatch { found: version, supported: FORMAT_VERSION });
    }
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let table_end = HEADER_BYTES + count * TABLE_ENTRY_BYTES;
    if bytes.len() < table_end {
        return Err(Error::Truncated {
            what: format!("section table ({count} entries)"),
            needed: table_end,
            available: bytes.len(),
        });
    }
    let mut sections = Vec::with_capacity(count);
    let mut spans: Vec<(u64, u64, u32)> = Vec::with_capacity(count);
    for i in 0..count {
        let entry = &bytes[HEADER_BYTES + i * TABLE_ENTRY_BYTES..][..TABLE_ENTRY_BYTES];
        let kind = u32::from_le_bytes(entry[0..4].try_into().unwrap());
        let offset = u64::from_le_bytes(entry[8..16].try_into().unwrap());
        let len = u64::from_le_bytes(entry[16..24].try_into().unwrap());
        let sum = u64::from_le_bytes(entry[24..32].try_into().unwrap());
        let name = section_name(kind);
        if name == "unknown" {
            // The format has no ignorable sections: a kind this reader
            // does not know means the file was written by a different
            // format, whatever its version field claims.
            return Err(Error::Malformed(format!("unknown section kind {kind} (entry {i})")));
        }
        if offset % 8 != 0 {
            return Err(Error::BadLayout(format!(
                "section {name} (entry {i}) at misaligned offset {offset}"
            )));
        }
        if offset < table_end as u64 {
            return Err(Error::BadLayout(format!(
                "section {name} (entry {i}) at offset {offset} overlaps the section table"
            )));
        }
        let end = offset.checked_add(len).ok_or_else(|| {
            Error::BadLayout(format!("section {name} (entry {i}): offset + length overflows"))
        })?;
        if end > bytes.len() as u64 {
            return Err(Error::BadLayout(format!(
                "section {name} (entry {i}) ends at {end}, file has {} bytes",
                bytes.len()
            )));
        }
        let payload = &bytes[offset as usize..end as usize];
        if checksum(payload) != sum {
            return Err(Error::ChecksumMismatch { section: format!("{name} (entry {i})") });
        }
        spans.push((offset, end, kind));
        sections.push(Section { kind, range: offset as usize..end as usize });
    }
    spans.sort_unstable();
    for w in spans.windows(2) {
        if w[1].0 < w[0].1 {
            return Err(Error::BadLayout(format!(
                "sections {} and {} overlap",
                section_name(w[0].2),
                section_name(w[1].2)
            )));
        }
    }
    Ok(sections)
}

/// Assemble live artifacts over a validated buffer. Every per-node
/// column is a view of `buf`; only DTD-sized data (label tables,
/// attribute strings, role metadata) is decoded into owned storage.
fn load_package(buf: Bytes) -> Result<Package> {
    let bytes = buf.as_slice();
    let sections = parse_sections(bytes)?;
    let find = |kind: u32| -> Result<Range<usize>> {
        let mut found = None;
        for s in &sections {
            if s.kind == kind {
                if found.is_some() {
                    return Err(Error::Malformed(format!(
                        "duplicate section {}",
                        section_name(kind)
                    )));
                }
                found = Some(s.range.clone());
            }
        }
        found.ok_or_else(|| Error::Malformed(format!("missing section {}", section_name(kind))))
    };
    let word_col = |kind: u32| -> Result<U32s> {
        let range = find(kind)?;
        U32s::packed(buf.slice(range)).ok_or_else(|| {
            Error::Malformed(format!(
                "section {}: payload is not whole aligned words",
                section_name(kind)
            ))
        })
    };
    let text_col = |kind: u32| -> Result<Str> {
        let range = find(kind)?;
        Str::packed(buf.slice(range))
            .map_err(|_| Error::Malformed(format!("section {}: invalid UTF-8", section_name(kind))))
    };

    let meta = decode_u64s(&bytes[find(SEC_META)?], "meta")?;
    let [n, root, role_count] = meta[..] else {
        return Err(Error::Malformed(format!("meta: expected 3 fields, got {}", meta.len())));
    };
    let n = usize::try_from(n).map_err(|_| Error::Malformed("meta: node count".into()))?;
    let root = (root != NONE64).then(|| NodeId::from_index(root as usize));

    let dtd_text = decode_str_owned(&bytes[find(SEC_DTD_TEXT)?], "dtd text")?;
    let root_name = decode_str_owned(&bytes[find(SEC_ROOT_NAME)?], "root name")?;
    let labels = decode_string_table(&bytes[find(SEC_LABELS)?], "labels")?;

    // --- document columns, viewed in place ---
    let node_labels = expect_words(word_col(SEC_NODE_LABELS)?, n, "node labels")?;
    let parents = expect_words(word_col(SEC_NODE_PARENTS)?, n, "node parents")?;
    let child_offsets = word_col(SEC_CHILD_OFFSETS)?;
    let child_ids = word_col(SEC_CHILD_IDS)?;
    let text_ids = word_col(SEC_TEXT_NODE_IDS)?;
    let text_offsets = word_col(SEC_TEXT_OFFSETS)?;
    let text_blob = text_col(SEC_TEXT_BLOB)?;

    // Sparse attributes: owner ids plus one flat `(name, value)` list.
    let attr_nodes = word_col(SEC_ATTR_NODES)?;
    let attr_names = decode_string_table(&bytes[find(SEC_ATTR_NAMES)?], "attr names")?;
    let attr_values = decode_string_table(&bytes[find(SEC_ATTR_VALUES)?], "attr values")?;
    if attr_nodes.len() != attr_names.len() || attr_nodes.len() != attr_values.len() {
        return Err(Error::Malformed(format!(
            "attribute tables disagree: {} nodes, {} names, {} values",
            attr_nodes.len(),
            attr_names.len(),
            attr_values.len()
        )));
    }
    let attr_entries = attr_names.into_iter().zip(attr_values).collect();

    // The viewed columns ARE the document's storage: `from_packed`
    // checks arities in O(1) and trusts the (checksummed) contents.
    let doc = Document::from_packed(PackedDocumentParts {
        labels: labels.clone(),
        node_labels,
        parents,
        child_offsets,
        child_ids,
        text_ids: text_ids.clone(),
        text_offsets: text_offsets.clone(),
        text_blob: text_blob.clone(),
        attr_nodes,
        attr_entries,
        root,
    })?;

    // --- index columns, viewed in place; text storage is shared with
    // the document (same buffer views), so it exists once in memory.
    let index = DocIndex::from_packed(PackedDocIndexParts {
        subtree_end: expect_words(word_col(SEC_IDX_SUBTREE_END)?, n, "subtree ends")?,
        depth: expect_words(word_col(SEC_IDX_DEPTH)?, n, "depths")?,
        label_offsets: word_col(SEC_IDX_LABEL_OFFSETS)?,
        label_ids: word_col(SEC_IDX_LABEL_IDS)?,
        label_names: labels,
        elements: word_col(SEC_IDX_ELEMENTS)?,
        text_nodes: text_ids,
        text_buf: text_blob,
        text_offsets,
    })?;

    // --- roles ---
    let mut roles = Vec::new();
    for s in &sections {
        if s.kind == SEC_ROLE {
            roles.push(decode_role(&buf, s.range.clone(), n)?);
        }
    }
    if roles.len() as u64 != role_count {
        return Err(Error::Malformed(format!(
            "meta promises {role_count} roles, found {}",
            roles.len()
        )));
    }

    Ok(Package { dtd_text, root_name, doc, index, roles })
}

/// Decode one role section. Role metadata (name, spec, binds, dummy
/// labels, visible attributes) is DTD-sized and decoded owned; the
/// doc-sized arrays (view parents, view-children CSR) are viewed in
/// place, and the bitmaps are copied (they are n/64 words — two orders
/// of magnitude smaller than the columns).
fn decode_role(buf: &Bytes, range: Range<usize>, n: usize) -> Result<LoadedRole> {
    let section = buf.slice(range);
    let payload = section.as_slice();
    let mut r = Reader::new(payload, "role section");
    let name = r.str_field("role name")?.to_string();
    let spec_text = r.str_field("spec text")?.to_string();
    let bind_count = r.u64()? as usize;
    let mut binds = Vec::with_capacity(bind_count.min(1024));
    for _ in 0..bind_count {
        let key = r.str_field("bind key")?.to_string();
        let value = r.str_field("bind value")?.to_string();
        binds.push((key, value));
    }
    let len = r.u64()? as usize;
    if len != n {
        return Err(Error::Malformed(format!(
            "role {name:?}: access view covers {len} nodes, document has {n}"
        )));
    }
    let accessible_count = r.u64()? as usize;
    let root = r.u64()?;
    let root = (root != NONE64).then(|| NodeId::from_index(root as usize));
    let bitmap = |words: Vec<u64>, what: &str| -> Result<NodeBitmap> {
        NodeBitmap::from_words(len, words).ok_or_else(|| {
            Error::Malformed(format!("role {name:?}: {what} bitmap has wrong word count"))
        })
    };
    let members = bitmap(r.u64_list("members words")?, "members")?;
    let dummies = bitmap(r.u64_list("dummies words")?, "dummies")?;
    let view_elements = bitmap(r.u64_list("view element words")?, "view elements")?;
    let word_field = |r: &mut Reader<'_>, field: &'static str| -> Result<U32s> {
        let range = r.u32_list_range(field)?;
        U32s::packed(section.slice(range)).ok_or_else(|| {
            Error::Malformed(format!("role section: {field} is not whole aligned words"))
        })
    };
    let view_parent = word_field(&mut r, "view parents")?;
    let child_offsets = word_field(&mut r, "view child offsets")?;
    let child_ids = word_field(&mut r, "view child ids")?;
    let dummy_count = r.u64()? as usize;
    let mut dummy_labels = Vec::with_capacity(dummy_count.min(1 << 20));
    for _ in 0..dummy_count {
        let id = r.u64()? as usize;
        let label = r.str_field("dummy label")?.to_string();
        dummy_labels.push((NodeId::from_index(id), label));
    }
    let visible_count = r.u64()? as usize;
    let mut visible_attrs = BTreeMap::new();
    for _ in 0..visible_count {
        let label = r.str_field("visible-attr label")?.to_string();
        let attr_count = r.u64()? as usize;
        let mut attrs = Vec::with_capacity(attr_count.min(1024));
        for _ in 0..attr_count {
            attrs.push(r.str_field("visible attr")?.to_string());
        }
        visible_attrs.insert(label, attrs);
    }
    let access = AccessView::from_packed(PackedAccessViewParts {
        len,
        members,
        dummies,
        view_elements,
        view_parent,
        child_offsets,
        child_ids,
        dummy_labels,
        visible_attrs,
        accessible_count,
        root,
    })?;
    Ok(LoadedRole { name, spec_text, binds, access: Arc::new(access) })
}

fn decode_str_owned(bytes: &[u8], what: &str) -> Result<String> {
    crate::format::decode_str(bytes, what).map(str::to_string)
}

fn expect_words(col: U32s, want: usize, what: &str) -> Result<U32s> {
    if col.len() != want {
        return Err(Error::Malformed(format!(
            "{what}: expected {want} entries, got {}",
            col.len()
        )));
    }
    Ok(col)
}
