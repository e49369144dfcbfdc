//! Hand-written parser for the XML subset used by this workspace.
//!
//! Supported: a single root element, nested elements, attributes with
//! single- or double-quoted values, text content, the five predefined
//! entities (`&lt; &gt; &amp; &apos; &quot;`) plus decimal/hex character
//! references, comments, processing instructions, and a leading XML
//! declaration / DOCTYPE (both skipped). Not supported (not needed by the
//! paper): namespaces, CDATA sections, external entities.
//!
//! Whitespace-only text between elements is dropped — documents in this
//! workspace follow the paper's data model where an element has either
//! element children or one text child, so inter-element whitespace is
//! formatting noise (this mirrors DTD-validating parsers, which discard
//! ignorable whitespace in element content).

use crate::error::{Error, Result};
use crate::node::{Document, DocumentBuilder, NodeId};

/// Parse an XML string into a [`Document`]. Inputs over 4 GiB are
/// refused: node ids and text offsets are `u32` columns, and a
/// document's node count and decoded text are each bounded by its
/// length.
pub fn parse(input: &str) -> Result<Document> {
    if u32::try_from(input.len()).is_err() {
        return Err(Error::Parse {
            offset: 0,
            message: format!("document is {} bytes, over the 4 GiB limit", input.len()),
        });
    }
    Parser { input: input.as_bytes(), pos: 0 }.parse_document()
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> Error {
        Error::Parse { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn expect(&mut self, s: &str) -> Result<()> {
        if self.starts_with(s) {
            self.pos += s.len();
            Ok(())
        } else {
            Err(self.err(format!("expected {s:?}")))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skip comments, PIs, XML declaration, and DOCTYPE between nodes.
    fn skip_misc(&mut self) -> Result<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.pos += 4;
                match find(self.input, self.pos, b"-->") {
                    Some(end) => self.pos = end + 3,
                    None => return Err(self.err("unterminated comment")),
                }
            } else if self.starts_with("<?") {
                self.pos += 2;
                match find(self.input, self.pos, b"?>") {
                    Some(end) => self.pos = end + 2,
                    None => return Err(self.err("unterminated processing instruction")),
                }
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skip a DOCTYPE declaration, including an internal subset in `[...]`.
    fn skip_doctype(&mut self) -> Result<()> {
        self.expect("<!DOCTYPE")?;
        let mut depth = 0usize;
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated DOCTYPE")),
                Some(b'[') => depth += 1,
                Some(b']') => depth = depth.saturating_sub(1),
                Some(b'>') if depth == 0 => return Ok(()),
                Some(_) => {}
            }
        }
    }

    fn parse_document(mut self) -> Result<Document> {
        let mut doc = DocumentBuilder::new();
        self.skip_misc()?;
        if self.peek() != Some(b'<') {
            return Err(self.err("expected root element"));
        }
        self.parse_element(&mut doc, None)?;
        self.skip_misc()?;
        if self.pos != self.input.len() {
            return Err(self.err("trailing content after root element"));
        }
        Ok(doc.finish())
    }

    fn parse_name(&mut self) -> Result<String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok = b.is_ascii_alphanumeric()
                || matches!(b, b'_' | b'-' | b'.' | b':')
                || (self.pos == start && b == b'_')
                || b >= 0x80;
            if ok {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        let name = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.err("name is not valid UTF-8"))?;
        if name.as_bytes()[0].is_ascii_digit() {
            return Err(self.err(format!("name {name:?} may not start with a digit")));
        }
        Ok(name.to_string())
    }

    fn parse_element(&mut self, doc: &mut DocumentBuilder, parent: Option<NodeId>) -> Result<()> {
        self.expect("<")?;
        let label = self.parse_name()?;
        let id = match parent {
            None => doc.create_root(&label)?,
            Some(p) => doc.append_element(p, &label),
        };
        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') | Some(b'/') | None => break,
                _ => {
                    let name = self.parse_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let quote = match self.bump() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(self.err("expected quoted attribute value")),
                    };
                    let start = self.pos;
                    while self.peek() != Some(quote) {
                        if self.peek().is_none() {
                            return Err(self.err("unterminated attribute value"));
                        }
                        self.pos += 1;
                    }
                    let raw = std::str::from_utf8(&self.input[start..self.pos])
                        .map_err(|_| self.err("attribute value is not valid UTF-8"))?;
                    let value = decode_entities(raw, start)?;
                    self.pos += 1; // closing quote
                    doc.set_attribute(id, name, value)?;
                }
            }
        }
        if self.starts_with("/>") {
            self.pos += 2;
            return Ok(());
        }
        self.expect(">")?;
        self.parse_content(doc, id, &label)
    }

    fn parse_content(&mut self, doc: &mut DocumentBuilder, id: NodeId, label: &str) -> Result<()> {
        let mut text = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err(format!("unexpected EOF inside <{label}>"))),
                Some(b'<') => {
                    flush_text(doc, id, &mut text)?;
                    if self.starts_with("</") {
                        self.pos += 2;
                        let end = self.parse_name()?;
                        if end != label {
                            return Err(self.err(format!(
                                "mismatched end tag: expected </{label}>, found </{end}>"
                            )));
                        }
                        self.skip_ws();
                        self.expect(">")?;
                        return Ok(());
                    } else if self.starts_with("<!--") {
                        self.pos += 4;
                        match find(self.input, self.pos, b"-->") {
                            Some(end) => self.pos = end + 3,
                            None => return Err(self.err("unterminated comment")),
                        }
                    } else if self.starts_with("<?") {
                        self.pos += 2;
                        match find(self.input, self.pos, b"?>") {
                            Some(end) => self.pos = end + 2,
                            None => return Err(self.err("unterminated processing instruction")),
                        }
                    } else {
                        self.parse_element(doc, Some(id))?;
                    }
                }
                Some(b) if b < 0x80 => {
                    self.pos += 1;
                    text.push(b as char);
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequence: copy the whole scalar.
                    let start = self.pos;
                    let mut end = self.pos + 1;
                    while end < self.input.len() && (self.input[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let s = std::str::from_utf8(&self.input[start..end])
                        .map_err(|_| self.err("text is not valid UTF-8"))?;
                    text.push_str(s);
                    self.pos = end;
                }
            }
        }
    }
}

fn flush_text(doc: &mut DocumentBuilder, parent: NodeId, text: &mut String) -> Result<()> {
    if text.is_empty() {
        return Ok(());
    }
    let decoded = decode_entities(text, 0)?;
    if !decoded.trim().is_empty() {
        doc.append_text(parent, decoded);
    }
    text.clear();
    Ok(())
}

fn find(haystack: &[u8], from: usize, needle: &[u8]) -> Option<usize> {
    haystack[from..].windows(needle.len()).position(|w| w == needle).map(|i| i + from)
}

/// Decode the predefined entities and character references in `raw`.
fn decode_entities(raw: &str, base_offset: usize) -> Result<String> {
    if !raw.contains('&') {
        return Ok(raw.to_string());
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.char_indices();
    while let Some((i, c)) = chars.next() {
        if c != '&' {
            out.push(c);
            continue;
        }
        let rest = &raw[i + 1..];
        let semi = rest.find(';').ok_or(Error::Parse {
            offset: base_offset + i,
            message: "unterminated entity reference".into(),
        })?;
        let ent = &rest[..semi];
        let decoded = match ent {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "apos" => '\'',
            "quot" => '"',
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                u32::from_str_radix(&ent[2..], 16).ok().and_then(char::from_u32).ok_or(
                    Error::Parse {
                        offset: base_offset + i,
                        message: format!("bad character reference &{ent};"),
                    },
                )?
            }
            _ if ent.starts_with('#') => {
                ent[1..].parse::<u32>().ok().and_then(char::from_u32).ok_or(Error::Parse {
                    offset: base_offset + i,
                    message: format!("bad character reference &{ent};"),
                })?
            }
            _ => {
                return Err(Error::Parse {
                    offset: base_offset + i,
                    message: format!("unknown entity &{ent};"),
                })
            }
        };
        out.push(decoded);
        // Skip the entity body.
        for _ in 0..semi + 1 {
            chars.next();
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_document() {
        let d = parse("<a><b>hi</b><c/></a>").unwrap();
        let a = d.root().unwrap();
        assert_eq!(d.label(a).unwrap(), "a");
        let kids = d.children(a);
        assert_eq!(kids.len(), 2);
        assert_eq!(d.label(kids[0]).unwrap(), "b");
        assert_eq!(d.string_value(kids[0]), "hi");
        assert_eq!(d.label(kids[1]).unwrap(), "c");
    }

    #[test]
    fn attributes_parsed() {
        let d = parse(r#"<a x="1" y='two'/>"#).unwrap();
        let a = d.root().unwrap();
        assert_eq!(d.attribute(a, "x"), Some("1"));
        assert_eq!(d.attribute(a, "y"), Some("two"));
    }

    #[test]
    fn entity_decoding_in_text_and_attrs() {
        let d = parse(r#"<a k="&lt;&amp;&gt;">&quot;x&apos; &#65;&#x42;</a>"#).unwrap();
        let a = d.root().unwrap();
        assert_eq!(d.attribute(a, "k"), Some("<&>"));
        assert_eq!(d.string_value(a), "\"x' AB");
    }

    #[test]
    fn whitespace_only_text_dropped() {
        let d = parse("<a>\n  <b>x</b>\n  <c>y</c>\n</a>").unwrap();
        let a = d.root().unwrap();
        assert_eq!(d.children(a).len(), 2);
    }

    #[test]
    fn mixed_significant_text_kept() {
        let d = parse("<a>hello <b>x</b></a>").unwrap();
        let a = d.root().unwrap();
        assert_eq!(d.children(a).len(), 2);
        assert_eq!(d.text(d.children(a)[0]).unwrap(), "hello ");
    }

    #[test]
    fn declaration_doctype_comments_skipped() {
        let src = r#"<?xml version="1.0"?>
<!DOCTYPE a [ <!ELEMENT a (b)> ]>
<!-- top comment -->
<a><!-- inner --><b>x</b><?pi data?></a>
<!-- trailing -->"#;
        let d = parse(src).unwrap();
        assert_eq!(d.children(d.root().unwrap()).len(), 1);
    }

    #[test]
    fn mismatched_tags_rejected() {
        let e = parse("<a><b></a></b>").unwrap_err();
        assert!(e.to_string().contains("mismatched end tag"), "{e}");
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("<a/>junk").is_err());
    }

    #[test]
    fn unterminated_element_rejected() {
        assert!(parse("<a><b>").is_err());
    }

    #[test]
    fn unknown_entity_rejected() {
        assert!(parse("<a>&nope;</a>").is_err());
    }

    #[test]
    fn unicode_text_roundtrips() {
        let d = parse("<a>héllo — 世界</a>").unwrap();
        assert_eq!(d.string_value(d.root().unwrap()), "héllo — 世界");
    }

    #[test]
    fn digit_leading_name_rejected() {
        assert!(parse("<1a/>").is_err());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(parse("").is_err());
        assert!(parse("   ").is_err());
    }

    #[test]
    fn parse_builds_in_document_order() {
        let d = parse("<a><b><c/><d/></b><e><f/></e></a>").unwrap();
        assert!(d.in_document_order());
    }

    #[test]
    fn self_closing_with_attrs() {
        let d = parse(r#"<a><b k="v"/></a>"#).unwrap();
        let b = d.children(d.root().unwrap())[0];
        assert_eq!(d.attribute(b, "k"), Some("v"));
        assert!(d.children(b).is_empty());
    }

    #[test]
    fn names_with_dots_and_dashes() {
        // The Adex DTD uses names like `r-e.asking-price`.
        let d = parse("<r-e.asking-price>100</r-e.asking-price>").unwrap();
        assert_eq!(d.label(d.root().unwrap()).unwrap(), "r-e.asking-price");
    }
}
