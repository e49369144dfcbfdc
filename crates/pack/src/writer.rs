//! Assemble and emit `.sxvpkg` packages.
//!
//! The writer flattens the in-memory artifacts — the [`Document`]'s
//! columns, [`DocIndex`], and one [`AccessView`] per role — into the section
//! layout of [`crate::format`], checksums each section, and streams the
//! file out section by section. Every derived column ships *fat*
//! (child CSR, text-node ids, the whole structural index, per-role
//! view-children CSR): packages trade a few extra megabytes for a load
//! path with zero per-node work, because each `u32` section is laid out
//! exactly as the in-memory column and can be borrowed from the buffer
//! in place (see `crate::loader`).
//!
//! Sections borrow the source artifacts' columns wherever the in-memory
//! representation already matches the on-disk bytes (every document and
//! index column), so writing never materializes a second full copy of the
//! package — checksums are computed over the borrowed slices and the
//! bytes stream straight to the file. That keeps peak memory at pack
//! time bounded by the artifacts themselves even for 10⁷-node
//! documents.

use crate::error::{Error, Result};
use crate::format::{
    align8, checksum, encode_string_table, encode_u64s, Record, FORMAT_VERSION, HEADER_BYTES,
    MAGIC, SEC_ATTR_NAMES, SEC_ATTR_NODES, SEC_ATTR_VALUES, SEC_CHILD_IDS, SEC_CHILD_OFFSETS,
    SEC_DTD_TEXT, SEC_IDX_DEPTH, SEC_IDX_ELEMENTS, SEC_IDX_LABEL_IDS, SEC_IDX_LABEL_OFFSETS,
    SEC_IDX_SUBTREE_END, SEC_LABELS, SEC_META, SEC_NODE_LABELS, SEC_NODE_PARENTS, SEC_ROLE,
    SEC_ROOT_NAME, SEC_TEXT_BLOB, SEC_TEXT_NODE_IDS, SEC_TEXT_OFFSETS, TABLE_ENTRY_BYTES,
};
use std::io::Write;
use std::path::Path;
use sxv_xml::{DocIndex, Document, NodeId};
use sxv_xpath::AccessView;

/// Sentinel for "no node" in `u64` meta fields.
pub(crate) const NONE64: u64 = u64::MAX;

/// One role's artifacts, borrowed from the builder for packing.
pub struct RoleArtifacts<'a> {
    /// Role name (`--role NAME=...` / serve tenant key).
    pub name: &'a str,
    /// The access-spec source text, stored verbatim so loading needs no
    /// side files (spec parsing is DTD-sized, not document-sized).
    pub spec_text: &'a str,
    /// `$var=value` bindings the spec was instantiated with.
    pub binds: &'a [(String, String)],
    /// The built accessibility artifact for (spec, doc).
    pub access: &'a AccessView,
}

/// A section payload: either bytes the writer assembled, or a borrowed
/// view of a source artifact's column. `Words` only exists on
/// little-endian targets, where the in-memory `u32` layout *is* the
/// on-disk layout; big-endian builds encode at construction instead.
enum Payload<'a> {
    Bytes(Vec<u8>),
    Text(&'a str),
    #[cfg_attr(target_endian = "big", allow(dead_code))]
    Words(&'a [u32]),
}

/// Wrap a `u32` column as a payload without copying (LE) or by
/// encoding it once (BE, where the byte order must be swapped).
fn words(w: &[u32]) -> Payload<'_> {
    #[cfg(target_endian = "little")]
    {
        Payload::Words(w)
    }
    #[cfg(target_endian = "big")]
    {
        Payload::Bytes(crate::format::encode_u32s(w))
    }
}

/// View a sorted id list as its raw words (`NodeId` is a transparent
/// `u32` wrapper).
fn ids_as_words(ids: &[NodeId]) -> &[u32] {
    // SAFETY: `NodeId` is `#[repr(transparent)]` over `u32`.
    unsafe { std::slice::from_raw_parts(ids.as_ptr().cast::<u32>(), ids.len()) }
}

/// View initialized u32s as raw bytes. Only meaningful for the format
/// on little-endian targets, which is the only place callers exist.
fn words_as_bytes(w: &[u32]) -> &[u8] {
    // SAFETY: any initialized `[u32]` is valid to view byte-wise.
    unsafe { std::slice::from_raw_parts(w.as_ptr().cast::<u8>(), w.len() * 4) }
}

impl Payload<'_> {
    fn as_bytes(&self) -> &[u8] {
        match self {
            Payload::Bytes(b) => b,
            Payload::Text(s) => s.as_bytes(),
            Payload::Words(w) => words_as_bytes(w),
        }
    }

    fn len(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Text(s) => s.len(),
            Payload::Words(w) => w.len() * 4,
        }
    }
}

/// Serialize a package into bytes (tests and small packages; large
/// packages go through the streaming [`write_package_file`]).
pub fn package_to_bytes(
    dtd_text: &str,
    root_name: &str,
    doc: &Document,
    index: &DocIndex,
    roles: &[RoleArtifacts<'_>],
) -> Result<Vec<u8>> {
    let sections = build_sections(dtd_text, root_name, doc, index, roles)?;
    let mut out = Vec::new();
    stream_package(&mut out, &sections)?;
    Ok(out)
}

/// Write a package to `path` (atomically: temp file + rename, so a
/// crash mid-write never leaves a half-package behind), streaming
/// section by section.
pub fn write_package_file(
    path: &Path,
    dtd_text: &str,
    root_name: &str,
    doc: &Document,
    index: &DocIndex,
    roles: &[RoleArtifacts<'_>],
) -> Result<()> {
    let sections = build_sections(dtd_text, root_name, doc, index, roles)?;
    let tmp = path.with_extension("sxvpkg.tmp");
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        stream_package(&mut f, &sections)?;
        f.flush()?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Emit header, section table, and payloads to `w`. Checksums are
/// computed over the payload views right before the table is written;
/// payload bytes then stream out without further buffering.
fn stream_package<W: Write>(w: &mut W, sections: &[(u32, Payload<'_>)]) -> Result<()> {
    let table_end = HEADER_BYTES + sections.len() * TABLE_ENTRY_BYTES;
    w.write_all(&MAGIC)?;
    w.write_all(&FORMAT_VERSION.to_le_bytes())?;
    w.write_all(&(sections.len() as u32).to_le_bytes())?;
    w.write_all(&0u64.to_le_bytes())?;
    // Section table: payloads start 8-aligned after the table.
    let mut offset = align8(table_end);
    for (kind, payload) in sections {
        w.write_all(&kind.to_le_bytes())?;
        w.write_all(&0u32.to_le_bytes())?;
        w.write_all(&(offset as u64).to_le_bytes())?;
        w.write_all(&(payload.len() as u64).to_le_bytes())?;
        w.write_all(&checksum(payload.as_bytes()).to_le_bytes())?;
        offset = align8(offset + payload.len());
    }
    // Payloads, zero-padded to 8-byte alignment.
    let mut written = table_end;
    for (_, payload) in sections {
        let pad = align8(written) - written;
        w.write_all(&[0u8; 8][..pad])?;
        w.write_all(payload.as_bytes())?;
        written = align8(written) + payload.len();
    }
    Ok(())
}

fn build_sections<'a>(
    dtd_text: &'a str,
    root_name: &'a str,
    doc: &'a Document,
    index: &'a DocIndex,
    roles: &[RoleArtifacts<'a>],
) -> Result<Vec<(u32, Payload<'a>)>> {
    let n = doc.len();
    if index.node_count() != n {
        return Err(Error::Malformed(format!(
            "index covers {} nodes, document has {n}",
            index.node_count()
        )));
    }
    for role in roles {
        if role.access.len() != n {
            return Err(Error::Malformed(format!(
                "access view for role {:?} covers {} nodes, document has {n}",
                role.name,
                role.access.len()
            )));
        }
    }

    // The document's own columns are the sections the loader borrows.
    let cols = doc.columns();
    // Text offsets travel as u32: a >4 GiB text blob would need a format
    // revision anyway, so refuse instead of truncating.
    if cols.text_blob.len() > u32::MAX as usize {
        return Err(Error::Malformed(format!(
            "text blob has {} bytes, exceeding the u32 offset range",
            cols.text_blob.len()
        )));
    }
    let attr_names: Vec<&str> = cols.attr_entries.iter().map(|(name, _)| name.as_str()).collect();
    let attr_values: Vec<&str> = cols.attr_entries.iter().map(|(_, v)| v.as_str()).collect();

    let meta =
        vec![n as u64, doc.root_opt().map_or(NONE64, |r| r.index() as u64), roles.len() as u64];

    let mut sections: Vec<(u32, Payload<'a>)> = vec![
        (SEC_META, Payload::Bytes(encode_u64s(&meta))),
        (SEC_DTD_TEXT, Payload::Text(dtd_text)),
        (SEC_ROOT_NAME, Payload::Text(root_name)),
        (SEC_LABELS, Payload::Bytes(encode_string_table(&cols.labels))),
        (SEC_NODE_LABELS, words(cols.node_labels.as_slice())),
        (SEC_NODE_PARENTS, words(cols.parents.as_slice())),
        (SEC_CHILD_OFFSETS, words(cols.child_offsets.as_slice())),
        (SEC_CHILD_IDS, words(cols.child_ids.as_slice())),
        (SEC_TEXT_BLOB, Payload::Text(cols.text_blob.as_str())),
        (SEC_TEXT_OFFSETS, words(cols.text_offsets.as_slice())),
        (SEC_TEXT_NODE_IDS, words(cols.text_ids.as_slice())),
        (SEC_ATTR_NODES, words(cols.attr_nodes.as_slice())),
        (SEC_ATTR_NAMES, Payload::Bytes(encode_string_table(&attr_names))),
        (SEC_ATTR_VALUES, Payload::Bytes(encode_string_table(&attr_values))),
        (SEC_IDX_SUBTREE_END, words(index.subtree_end_table())),
        (SEC_IDX_DEPTH, words(index.depth_table())),
        (SEC_IDX_ELEMENTS, words(ids_as_words(index.element_nodes()))),
        (SEC_IDX_LABEL_OFFSETS, words(index.label_offset_table())),
        (SEC_IDX_LABEL_IDS, words(index.label_id_table())),
    ];
    for role in roles {
        sections.push((SEC_ROLE, Payload::Bytes(encode_role(role))));
    }
    Ok(sections)
}

fn encode_role(role: &RoleArtifacts<'_>) -> Vec<u8> {
    let av = role.access;
    let mut rec = Record::new();
    rec.str_field(role.name);
    rec.str_field(role.spec_text);
    rec.u64(role.binds.len() as u64);
    for (key, value) in role.binds {
        rec.str_field(key);
        rec.str_field(value);
    }
    rec.u64(av.len() as u64);
    rec.u64(av.accessible_count() as u64);
    rec.u64(av.root().map_or(NONE64, |r| r.index() as u64));
    rec.u64_list(av.members().words());
    rec.u64_list(av.dummies().words());
    rec.u64_list(av.elements().words());
    rec.u32_list(av.view_parent_table());
    rec.u32_list(av.child_offset_table());
    rec.u32_list(ids_as_words(av.child_id_table()));
    rec.u64(av.dummy_label_table().len() as u64);
    for (id, label) in av.dummy_label_table() {
        rec.u64(id.index() as u64);
        rec.str_field(label);
    }
    rec.u64(av.visible_attr_table().len() as u64);
    for (label, attrs) in av.visible_attr_table() {
        rec.str_field(label);
        rec.u64(attrs.len() as u64);
        for attr in attrs {
            rec.str_field(attr);
        }
    }
    rec.into_bytes()
}
