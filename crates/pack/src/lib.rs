//! `.sxvpkg` — on-disk packages for instant cold start.
//!
//! A package captures everything `sxv` derives from a DTD + document +
//! access specs before it can answer its first query: the columns of
//! the [`Document`](sxv_xml::Document), the structural
//! [`DocIndex`](sxv_xml::DocIndex) (pre/post ranks, depths, label
//! occurrence lists, text buffer), and one
//! [`AccessView`](sxv_xpath::AccessView) per role (accessibility /
//! dummy / view-element bitmaps laid out as dense `u64` words, the view
//! CSR, dummy labels, visible attributes). All doc-sized state is
//! stored as flat little-endian arrays in checksummed sections, so
//! loading is a single read + bulk word decode instead of an XML parse
//! and a σ-expansion pass — milliseconds instead of seconds on large
//! documents.
//!
//! See [`format`](mod@format) for the byte layout, [`writer`] for packing, and
//! [`loader`] for the validating load path and its error taxonomy
//! ([`Error`]).

pub mod error;
pub mod format;
pub mod loader;
pub mod writer;

pub use error::{Error, Result};
pub use format::{FORMAT_VERSION, MAGIC};
pub use loader::{load_package_bytes, load_package_file, LoadedRole, Package};
pub use writer::{package_to_bytes, write_package_file, RoleArtifacts};

#[cfg(test)]
mod tests {
    use super::*;
    use sxv_core::{build_access_view, derive_view, AccessSpec};
    use sxv_dtd::parse_dtd;
    use sxv_xml::{parse, to_string, DocIndex};
    use sxv_xpath::AccessView;

    const DTD: &str = concat!(
        "<!ELEMENT site (persons, items)>\n",
        "<!ELEMENT persons (person*)>\n",
        "<!ELEMENT person (name, secret)>\n",
        "<!ELEMENT name (#PCDATA)>\n",
        "<!ELEMENT secret (#PCDATA)>\n",
        "<!ELEMENT items (item*)>\n",
        "<!ELEMENT item (#PCDATA)>\n",
        "<!ATTLIST person id CDATA #REQUIRED>\n",
        "<!ATTLIST item cat CDATA #IMPLIED>\n",
    );

    const XML: &str = concat!(
        r#"<site><persons><person id="p1"><name>ann</name><secret>k1</secret></person>"#,
        r#"<person id="p2"><name>bob</name><secret>k2</secret></person></persons>"#,
        r#"<items><item cat="a">lamp</item><item>rug</item></items></site>"#
    );

    const SPEC: &str = concat!(
        "ann(person, secret) = N\n",
        "ann(items, item) = [@cat=\"a\"]\n",
        "ann(person, @id) = N\n",
    );

    fn build() -> (sxv_xml::Document, DocIndex, AccessView) {
        let dtd = parse_dtd(DTD, "site").expect("dtd");
        let doc = parse(XML).expect("doc");
        let index = DocIndex::new(&doc).expect("non-empty doc");
        let spec = AccessSpec::parse(&dtd, SPEC, &[]).expect("spec");
        let view = derive_view(&spec).expect("view");
        let access = build_access_view(&spec, &view, &doc, Some(&index));
        (doc, index, access)
    }

    fn packed() -> Vec<u8> {
        let (doc, index, access) = build();
        let roles = [RoleArtifacts { name: "staff", spec_text: SPEC, binds: &[], access: &access }];
        package_to_bytes(DTD, "site", &doc, &index, &roles).expect("pack")
    }

    #[test]
    fn roundtrip_preserves_document_index_and_views() {
        let (doc, index, access) = build();
        let binds = vec![("k".to_string(), "v".to_string())];
        let roles =
            [RoleArtifacts { name: "staff", spec_text: SPEC, binds: &binds, access: &access }];
        let bytes = package_to_bytes(DTD, "site", &doc, &index, &roles).expect("pack");
        let pkg = load_package_bytes(&bytes).expect("load");

        assert_eq!(pkg.dtd_text, DTD);
        assert_eq!(pkg.root_name, "site");
        assert_eq!(to_string(&pkg.doc), to_string(&doc));
        assert_eq!(pkg.doc.len(), doc.len());
        for id in doc.all_ids() {
            assert_eq!(pkg.doc.parent(id), doc.parent(id));
            assert_eq!(pkg.doc.children(id), doc.children(id));
            assert_eq!(pkg.doc.label_opt(id), doc.label_opt(id));
            assert_eq!(pkg.doc.attributes(id), doc.attributes(id));
            assert_eq!(pkg.index.subtree_end(id), index.subtree_end(id));
            assert_eq!(pkg.index.post_rank(id), index.post_rank(id));
            assert_eq!(pkg.index.depth(id), index.depth(id));
        }
        for label in doc.label_table() {
            assert_eq!(pkg.index.label_list(label), index.label_list(label));
        }
        assert_eq!(pkg.index.text_buffer(), index.text_buffer());

        assert_eq!(pkg.roles.len(), 1);
        let role = &pkg.roles[0];
        assert_eq!(role.name, "staff");
        assert_eq!(role.spec_text, SPEC);
        assert_eq!(role.binds, binds);
        let av = &role.access;
        assert_eq!(av.len(), access.len());
        assert_eq!(av.accessible_count(), access.accessible_count());
        assert_eq!(av.root(), access.root());
        for id in doc.all_ids() {
            assert_eq!(av.in_view(id), access.in_view(id));
            assert_eq!(av.is_member(id), access.is_member(id));
            assert_eq!(av.is_dummy(id), access.is_dummy(id));
            assert_eq!(av.view_parent(id), access.view_parent(id));
            assert_eq!(av.view_children(id), access.view_children(id));
            assert_eq!(av.dummy_label(id), access.dummy_label(id));
        }
        assert_eq!(av.visible_attr_table(), access.visible_attr_table());
        assert_eq!(av.dummy_label_table(), access.dummy_label_table());
    }

    #[test]
    fn file_roundtrip_is_atomic_and_loadable() {
        let (doc, index, access) = build();
        let roles = [RoleArtifacts { name: "staff", spec_text: SPEC, binds: &[], access: &access }];
        let dir = std::env::temp_dir().join(format!("sxvpkg-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sxvpkg");
        write_package_file(&path, DTD, "site", &doc, &index, &roles).expect("write");
        assert!(!path.with_extension("sxvpkg.tmp").exists(), "temp file must be renamed away");
        let pkg = load_package_file(&path).expect("load");
        assert_eq!(to_string(&pkg.doc), to_string(&doc));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_files_error_at_every_cut() {
        let bytes = packed();
        // Cutting the file anywhere must yield a typed error, not a
        // panic or a silently-wrong package. Sample densely at the
        // front (header/table) and sparsely through the payloads.
        let cuts = (0..256.min(bytes.len())).chain((256..bytes.len()).step_by(97));
        for cut in cuts {
            match load_package_bytes(&bytes[..cut]) {
                Err(
                    Error::Truncated { .. }
                    | Error::BadLayout(_)
                    | Error::ChecksumMismatch { .. }
                    | Error::Malformed(_),
                ) => {}
                Err(e) => panic!("cut at {cut}: unexpected error kind {e}"),
                Ok(_) => panic!("cut at {cut}: load succeeded on truncated bytes"),
            }
        }
    }

    #[test]
    fn bad_magic_is_refused() {
        let mut bytes = packed();
        bytes[0] = b'!';
        match load_package_bytes(&bytes) {
            Err(Error::BadMagic { found }) => assert_eq!(found[0], b'!'),
            other => panic!("expected BadMagic, got {other:?}", other = other.map(|_| ())),
        }
    }

    #[test]
    fn future_version_is_refused_cleanly() {
        let mut bytes = packed();
        bytes[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        match load_package_bytes(&bytes) {
            Err(Error::VersionMismatch { found, supported }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(supported, FORMAT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}", other = other.map(|_| ())),
        }
    }

    #[test]
    fn version_one_packages_are_refused() {
        // Version 1 stored each role's build time; the layout changed,
        // so old packages are re-packed, never read.
        let mut bytes = packed();
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        match load_package_bytes(&bytes) {
            Err(Error::VersionMismatch { found: 1, supported: FORMAT_VERSION }) => {}
            other => panic!("expected VersionMismatch, got {other:?}", other = other.map(|_| ())),
        }
    }

    #[test]
    fn packing_one_input_twice_gives_identical_bytes() {
        // Each pack below builds its own access view, so nothing that
        // varies between builds (such as how long one took) may reach
        // the bytes. The document is large enough for build times to
        // differ from run to run.
        let dtd = parse_dtd(DTD, "site").expect("dtd");
        let spec = AccessSpec::parse(&dtd, SPEC, &[]).expect("spec");
        let view = derive_view(&spec).expect("view");
        let persons: String = (0..2000)
            .map(|i| format!(r#"<person id="p{i}"><name>n{i}</name><secret>s</secret></person>"#))
            .collect();
        let xml = format!(
            r#"<site><persons>{persons}</persons><items><item cat="a">l</item></items></site>"#
        );
        let doc = parse(&xml).expect("doc");
        let index = DocIndex::new(&doc).expect("non-empty doc");
        let pack = || {
            let access = build_access_view(&spec, &view, &doc, Some(&index));
            let roles =
                [RoleArtifacts { name: "staff", spec_text: SPEC, binds: &[], access: &access }];
            package_to_bytes(DTD, "site", &doc, &index, &roles).expect("pack")
        };
        let first = pack();
        for run in 2..=4 {
            assert!(pack() == first, "pack run {run} differs from the first");
        }
    }

    #[test]
    fn unknown_section_kind_is_refused() {
        // The format has no ignorable sections: relabel entry 0 with a
        // kind this reader has never heard of and the load must refuse,
        // not skip it.
        use crate::format::HEADER_BYTES;
        let mut bytes = packed();
        bytes[HEADER_BYTES..HEADER_BYTES + 4].copy_from_slice(&999u32.to_le_bytes());
        match load_package_bytes(&bytes) {
            Err(Error::Malformed(msg)) => assert!(msg.contains("unknown section"), "msg: {msg}"),
            other => panic!("expected Malformed, got {other:?}", other = other.map(|_| ())),
        }
    }

    #[test]
    fn payload_bitflips_fail_the_checksum() {
        let bytes = packed();
        // Flip one bit in several payload positions (past the section
        // table, which is covered by the geometry checks instead); each
        // must be caught by the owning section's checksum.
        use crate::format::{HEADER_BYTES, TABLE_ENTRY_BYTES};
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let table_end = HEADER_BYTES + count * TABLE_ENTRY_BYTES;
        for pos in [table_end + 4, (table_end + bytes.len()) / 2, bytes.len() - 3] {
            let mut b = bytes.clone();
            b[pos] ^= 0x40;
            match load_package_bytes(&b) {
                Err(Error::ChecksumMismatch { .. }) => {}
                other => panic!(
                    "flip at {pos}: expected ChecksumMismatch, got {other:?}",
                    other = other.map(|_| ())
                ),
            }
        }
    }

    #[test]
    fn out_of_bounds_and_overlapping_sections_are_bad_layout() {
        use crate::format::{HEADER_BYTES, TABLE_ENTRY_BYTES};
        let bytes = packed();

        // Entry 0's offset pushed past EOF (kept 8-aligned so the
        // bounds check, not the alignment check, fires).
        let mut oob = bytes.clone();
        let off_at = HEADER_BYTES + 8;
        let huge = ((bytes.len() as u64 + 16) & !7).to_le_bytes();
        oob[off_at..off_at + 8].copy_from_slice(&huge);
        assert!(matches!(load_package_bytes(&oob), Err(Error::BadLayout(_))), "oob offset");

        // Misaligned offset.
        let mut mis = bytes.clone();
        let cur = u64::from_le_bytes(mis[off_at..off_at + 8].try_into().unwrap());
        mis[off_at..off_at + 8].copy_from_slice(&(cur + 1).to_le_bytes());
        assert!(matches!(load_package_bytes(&mis), Err(Error::BadLayout(_))), "misaligned");

        // Offset + length overflowing u64.
        let mut wrap = bytes.clone();
        wrap[off_at..off_at + 8].copy_from_slice(&(u64::MAX - 7).to_le_bytes());
        assert!(matches!(load_package_bytes(&wrap), Err(Error::BadLayout(_))), "u64 wrap");

        // Entry 1 redirected onto entry 0's extent → overlap. Copy
        // entry 0's offset/len/checksum into entry 1 (kinds differ, so
        // the checksum still matches the payload but the spans collide).
        let mut ovl = bytes.clone();
        let (e0, e1) = (HEADER_BYTES, HEADER_BYTES + TABLE_ENTRY_BYTES);
        let entry0_body: Vec<u8> = ovl[e0 + 8..e0 + 32].to_vec();
        ovl[e1 + 8..e1 + 32].copy_from_slice(&entry0_body);
        match load_package_bytes(&ovl) {
            // Both meta sections now alias the same bytes: either the
            // overlap detector or meta re-decode must object.
            Err(Error::BadLayout(_) | Error::Malformed(_) | Error::ChecksumMismatch { .. }) => {}
            other => panic!("overlap: got {other:?}", other = other.map(|_| ())),
        }
    }

    #[test]
    fn role_count_mismatch_is_malformed() {
        let (doc, index, access) = build();
        let roles = [RoleArtifacts { name: "staff", spec_text: SPEC, binds: &[], access: &access }];
        let bytes = package_to_bytes(DTD, "site", &doc, &index, &roles).expect("pack");
        // Find SEC_META's payload offset via the table and bump the
        // promised role count; refresh the checksum so only the
        // cross-check can catch it.
        use crate::format::{checksum, HEADER_BYTES, SEC_META, TABLE_ENTRY_BYTES};
        let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let mut b = bytes.clone();
        for i in 0..count {
            let e = HEADER_BYTES + i * TABLE_ENTRY_BYTES;
            if u32::from_le_bytes(b[e..e + 4].try_into().unwrap()) == SEC_META {
                let off = u64::from_le_bytes(b[e + 8..e + 16].try_into().unwrap()) as usize;
                let len = u64::from_le_bytes(b[e + 16..e + 24].try_into().unwrap()) as usize;
                b[off + 16..off + 24].copy_from_slice(&7u64.to_le_bytes());
                let sum = checksum(&b[off..off + len]);
                b[e + 24..e + 32].copy_from_slice(&sum.to_le_bytes());
            }
        }
        match load_package_bytes(&b) {
            Err(Error::Malformed(msg)) => assert!(msg.contains("roles"), "msg: {msg}"),
            other => panic!("expected Malformed, got {other:?}", other = other.map(|_| ())),
        }
    }

    #[test]
    fn empty_package_bytes_are_truncated_not_panic() {
        assert!(matches!(load_package_bytes(&[]), Err(Error::Truncated { .. })));
    }
}
