//! Serialize a [`Document`] back to XML text.

use crate::node::{Document, NodeId};
use std::io;

/// Serialize compactly (no added whitespace). Round-trips through
/// [`crate::parse`] for documents without mixed whitespace content.
pub fn to_string(doc: &Document) -> String {
    render(doc, false)
}

/// Serialize with one element per line (no indentation). Elements whose
/// only child is a single text node are kept on one line so the output
/// re-parses to an identical tree (line breaks never introduce
/// significant text).
pub fn to_string_pretty(doc: &Document) -> String {
    render(doc, true)
}

fn render(doc: &Document, pretty: bool) -> String {
    let mut out = Vec::new();
    if let Some(root) = doc.root_opt() {
        write_node(doc, root, &mut out, pretty, false).expect("writing to a Vec cannot fail");
    }
    String::from_utf8(out).expect("the serializer writes only UTF-8")
}

/// Serialize compactly straight to an [`io::Write`] — the path for
/// documents too large to hold as one in-memory string (wrap the sink
/// in a `BufWriter`; this emits many small writes).
pub fn write_document<W: io::Write>(doc: &Document, w: &mut W) -> io::Result<()> {
    match doc.root_opt() {
        Some(root) => write_node(doc, root, w, false, false),
        None => Ok(()),
    }
}

/// Write the subtree of `id`. `pretty` starts each element below the
/// root (`nested`) on a new line, and closing tags of elements with
/// element content too.
fn write_node<W: io::Write>(
    doc: &Document,
    id: NodeId,
    w: &mut W,
    pretty: bool,
    nested: bool,
) -> io::Result<()> {
    if let Some(t) = doc.text_opt(id) {
        return write_escaped_text(t, w);
    }
    let label = doc.label_opt(id).expect("non-text node is an element");
    if pretty && nested {
        w.write_all(b"\n")?;
    }
    w.write_all(b"<")?;
    w.write_all(label.as_bytes())?;
    for (name, value) in doc.attributes(id) {
        w.write_all(b" ")?;
        w.write_all(name.as_bytes())?;
        w.write_all(b"=\"")?;
        write_escaped_attr(value, w)?;
        w.write_all(b"\"")?;
    }
    let children = doc.children(id);
    if children.is_empty() {
        return w.write_all(b"/>");
    }
    w.write_all(b">")?;
    let pretty = pretty && !(children.len() == 1 && doc.is_text(children[0]));
    for &c in children {
        write_node(doc, c, w, pretty, true)?;
    }
    if pretty {
        w.write_all(b"\n")?;
    }
    w.write_all(b"</")?;
    w.write_all(label.as_bytes())?;
    w.write_all(b">")
}

/// Stream `s` to `w` with `<`, `>`, `&` escaped (element text content).
/// Writes maximal clean runs, so typical text costs one write.
pub fn write_escaped_text<W: io::Write>(s: &str, w: &mut W) -> io::Result<()> {
    write_escaped(s, w, |c| match c {
        '<' => Some("&lt;"),
        '>' => Some("&gt;"),
        '&' => Some("&amp;"),
        _ => None,
    })
}

/// Stream `s` to `w` with `<`, `&`, `"` escaped (attribute values).
pub fn write_escaped_attr<W: io::Write>(s: &str, w: &mut W) -> io::Result<()> {
    write_escaped(s, w, |c| match c {
        '<' => Some("&lt;"),
        '&' => Some("&amp;"),
        '"' => Some("&quot;"),
        _ => None,
    })
}

fn write_escaped<W: io::Write>(
    s: &str,
    w: &mut W,
    escape: impl Fn(char) -> Option<&'static str>,
) -> io::Result<()> {
    let mut rest = s;
    while let Some((i, c, esc)) =
        rest.char_indices().find_map(|(i, c)| escape(c).map(|e| (i, c, e)))
    {
        w.write_all(&rest.as_bytes()[..i])?;
        w.write_all(esc.as_bytes())?;
        rest = &rest[i + c.len_utf8()..];
    }
    w.write_all(rest.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DocumentBuilder;
    use crate::parser::parse;

    #[test]
    fn compact_roundtrip() {
        let src = r#"<a x="1"><b>hi</b><c/></a>"#;
        let d = parse(src).unwrap();
        assert_eq!(to_string(&d), src);
    }

    #[test]
    fn escaping_roundtrip() {
        let mut d = DocumentBuilder::new();
        let a = d.create_root("a").unwrap();
        d.set_attribute(a, "k", "a\"<&").unwrap();
        d.append_text(a, "x<&>y");
        let s = to_string(&d.finish());
        let d2 = parse(&s).unwrap();
        assert_eq!(d2.attribute(d2.root().unwrap(), "k"), Some("a\"<&"));
        assert_eq!(d2.string_value(d2.root().unwrap()), "x<&>y");
    }

    #[test]
    fn pretty_reparses_to_same_tree() {
        let src = "<a><b>hi</b><c><d>1</d><e/></c></a>";
        let d = parse(src).unwrap();
        let pretty = to_string_pretty(&d);
        assert!(pretty.contains('\n'));
        let d2 = parse(&pretty).unwrap();
        assert_eq!(to_string(&d2), src);
    }

    #[test]
    fn empty_document_serializes_empty() {
        assert_eq!(to_string(&Document::new()), "");
    }

    #[test]
    fn streamed_output_matches_to_string() {
        let mut d = DocumentBuilder::new();
        let a = d.create_root("a").unwrap();
        d.set_attribute(a, "k", "a\"<&").unwrap();
        let b = d.append_element(a, "b");
        d.append_text(b, "x<&>y");
        d.append_element(a, "c");
        let d = d.finish();
        let mut buf = Vec::new();
        write_document(&d, &mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), to_string(&d));
        let mut empty = Vec::new();
        write_document(&Document::new(), &mut empty).unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn text_only_element_stays_inline_in_pretty() {
        let d = parse("<a><b>hi</b></a>").unwrap();
        let pretty = to_string_pretty(&d);
        assert!(pretty.contains("<b>hi</b>"), "{pretty}");
    }
}
