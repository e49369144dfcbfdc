//! Parser for `<!ELEMENT …>` DTD syntax.
//!
//! Supported declarations:
//!
//! ```text
//! <!ELEMENT name EMPTY>
//! <!ELEMENT name (#PCDATA)>
//! <!ELEMENT name (a, b?, (c | d)*, e+)>
//! ```
//!
//! `<!ATTLIST>` declarations parse into [`AttDef`]s attached to element
//! types; `<!ENTITY>`/`<!NOTATION>` declarations and comments are
//! skipped. Mixed content other than pure `(#PCDATA)` and the `ANY`
//! keyword are rejected ([`crate::Error::Unsupported`]) — the paper's
//! model has no mixed content. Groups nested deeper than [`MAX_DEPTH`]
//! are refused with [`crate::Error::TooDeep`].

use crate::attributes::AttDef;
use crate::content::Content;
use crate::error::{Error, Result};
use crate::model::GeneralDtd;
use crate::normal::Dtd;

/// Deepest nesting of parenthesized groups a content model may use. The
/// parser recurses once per group, so deeper input is refused instead of
/// overflowing the stack; hand-written DTDs nest a few levels.
pub const MAX_DEPTH: usize = 128;

/// Parse DTD text into a [`GeneralDtd`] with the given root type.
pub fn parse_general_dtd(input: &str, root: &str) -> Result<GeneralDtd> {
    let mut p = Parser { input: input.as_bytes(), pos: 0, depth: 0 };
    let mut declarations = Vec::new();
    let mut attlists: Vec<(String, Vec<AttDef>)> = Vec::new();
    loop {
        p.skip_trivia()?;
        if p.at_end() {
            break;
        }
        if p.starts_with("<!ELEMENT") {
            p.pos += "<!ELEMENT".len();
            p.skip_ws();
            let name = p.parse_name()?;
            p.skip_ws();
            let content = p.parse_content_spec()?;
            p.skip_ws();
            p.expect(">")?;
            declarations.push((name, content));
        } else if p.starts_with("<!ATTLIST") {
            attlists.push(p.parse_attlist()?);
        } else if p.starts_with("<!ENTITY") || p.starts_with("<!NOTATION") {
            p.skip_declaration()?;
        } else {
            return Err(p.err("expected a DTD declaration"));
        }
    }
    GeneralDtd::new(root, declarations)?.with_attributes(attlists)
}

/// Parse DTD text and normalize straight to the paper normal form.
pub fn parse_dtd(input: &str, root: &str) -> Result<Dtd> {
    parse_general_dtd(input, root)?.normalize()
}

/// Parse a standalone content-model expression, e.g. `(a, (b | c)*)`.
pub fn parse_content_model(input: &str) -> Result<Content> {
    let mut p = Parser { input: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let c = p.parse_content_spec()?;
    p.skip_ws();
    if !p.at_end() {
        return Err(p.err("trailing input after content model"));
    }
    Ok(c)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Groups currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> Error {
        Error::Parse { offset: self.pos, message: message.into() }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
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

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.pos += 4;
                loop {
                    if self.pos + 3 > self.input.len() {
                        return Err(self.err("unterminated comment"));
                    }
                    if self.starts_with("-->") {
                        self.pos += 3;
                        break;
                    }
                    self.pos += 1;
                }
            } else {
                return Ok(());
            }
        }
    }

    fn skip_declaration(&mut self) -> Result<()> {
        // Skip to the matching '>' (quoted strings may contain '>').
        let mut quote: Option<u8> = None;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated declaration")),
                Some(q @ (b'"' | b'\'')) => {
                    self.pos += 1;
                    match quote {
                        Some(open) if open == q => quote = None,
                        None => quote = Some(q),
                        Some(_) => {}
                    }
                }
                Some(b'>') if quote.is_none() => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn parse_name(&mut self) -> Result<String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(std::str::from_utf8(&self.input[start..self.pos]).unwrap().to_string())
    }

    /// Parse `<!ATTLIST elem (attr type default)*>`.
    fn parse_attlist(&mut self) -> Result<(String, Vec<AttDef>)> {
        self.expect("<!ATTLIST")?;
        self.skip_ws();
        let elem = self.parse_name()?;
        let mut defs = Vec::new();
        loop {
            self.skip_ws();
            if self.eat_char(b'>') {
                return Ok((elem, defs));
            }
            let attr = self.parse_name()?;
            self.skip_ws();
            // Attribute type: an enumerated list or a type keyword
            // (CDATA, ID, IDREF(S), NMTOKEN(S), ENTITY, ENTITIES,
            // NOTATION (…)). Only presence/enumeration is enforced.
            let mut allowed = Vec::new();
            if self.peek() == Some(b'(') {
                allowed = self.parse_enumeration()?;
            } else {
                let ty = self.parse_name()?;
                if ty == "NOTATION" {
                    self.skip_ws();
                    let _ = self.parse_enumeration()?; // notation names, unchecked
                }
            }
            self.skip_ws();
            let (required, default) = if self.starts_with("#REQUIRED") {
                self.pos += "#REQUIRED".len();
                (true, None)
            } else if self.starts_with("#IMPLIED") {
                self.pos += "#IMPLIED".len();
                (false, None)
            } else if self.starts_with("#FIXED") {
                self.pos += "#FIXED".len();
                self.skip_ws();
                (false, Some(self.parse_quoted()?))
            } else {
                (false, Some(self.parse_quoted()?))
            };
            defs.push(AttDef { name: attr, required, default, allowed });
        }
    }

    fn parse_enumeration(&mut self) -> Result<Vec<String>> {
        self.expect("(")?;
        let mut out = Vec::new();
        loop {
            self.skip_ws();
            out.push(self.parse_name()?);
            self.skip_ws();
            if self.eat_char(b')') {
                return Ok(out);
            }
            self.expect("|")?;
        }
    }

    fn parse_quoted(&mut self) -> Result<String> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected a quoted value")),
        };
        self.pos += 1;
        let start = self.pos;
        while self.peek() != Some(quote) {
            if self.peek().is_none() {
                return Err(self.err("unterminated quoted value"));
            }
            self.pos += 1;
        }
        let value = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.err("value is not valid UTF-8"))?
            .to_string();
        self.pos += 1;
        Ok(value)
    }

    fn eat_char(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn parse_content_spec(&mut self) -> Result<Content> {
        if self.starts_with("EMPTY") {
            self.pos += "EMPTY".len();
            return Ok(Content::Empty);
        }
        if self.starts_with("ANY") {
            return Err(Error::Unsupported("ANY content".into()));
        }
        if self.peek() != Some(b'(') {
            return Err(self.err("expected '(' or EMPTY"));
        }
        self.parse_group()
    }

    /// Parse a parenthesized group with an optional postfix operator,
    /// refusing nesting past [`MAX_DEPTH`].
    fn parse_group(&mut self) -> Result<Content> {
        if self.depth == MAX_DEPTH {
            return Err(Error::TooDeep { offset: self.pos });
        }
        self.depth += 1;
        let group = self.parse_group_body();
        self.depth -= 1;
        group
    }

    fn parse_group_body(&mut self) -> Result<Content> {
        self.expect("(")?;
        self.skip_ws();
        if self.starts_with("#PCDATA") {
            self.pos += "#PCDATA".len();
            self.skip_ws();
            if self.peek() == Some(b'|') {
                return Err(Error::Unsupported("mixed content (#PCDATA | …)".into()));
            }
            self.expect(")")?;
            // An optional trailing '*' on (#PCDATA) is legal XML; same model.
            if self.peek() == Some(b'*') {
                self.pos += 1;
            }
            return Ok(Content::PcData);
        }
        let first = self.parse_cp()?;
        self.skip_ws();
        let group = match self.peek() {
            Some(b',') => {
                let mut items = vec![first];
                while self.peek() == Some(b',') {
                    self.pos += 1;
                    self.skip_ws();
                    items.push(self.parse_cp()?);
                    self.skip_ws();
                }
                Content::Seq(items)
            }
            Some(b'|') => {
                let mut items = vec![first];
                while self.peek() == Some(b'|') {
                    self.pos += 1;
                    self.skip_ws();
                    items.push(self.parse_cp()?);
                    self.skip_ws();
                }
                Content::Choice(items)
            }
            _ => first,
        };
        self.expect(")")?;
        Ok(self.apply_postfix(group))
    }

    /// Parse a content particle: a name or nested group, with postfix op.
    fn parse_cp(&mut self) -> Result<Content> {
        self.skip_ws();
        if self.peek() == Some(b'(') {
            self.parse_group()
        } else {
            let name = self.parse_name()?;
            Ok(self.apply_postfix(Content::Name(name)))
        }
    }

    fn apply_postfix(&mut self, inner: Content) -> Content {
        match self.peek() {
            Some(b'*') => {
                self.pos += 1;
                Content::Star(Box::new(inner))
            }
            Some(b'+') => {
                self.pos += 1;
                Content::Plus(Box::new(inner))
            }
            Some(b'?') => {
                self.pos += 1;
                Content::Opt(Box::new(inner))
            }
            _ => inner,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_dtd() {
        let d = parse_general_dtd(
            "<!ELEMENT r (a, b)>\n<!ELEMENT a (#PCDATA)>\n<!ELEMENT b EMPTY>",
            "r",
        )
        .unwrap();
        assert_eq!(d.root(), "r");
        assert_eq!(d.content("a"), Some(&Content::PcData));
        assert_eq!(d.content("b"), Some(&Content::Empty));
        assert_eq!(
            d.content("r"),
            Some(&Content::Seq(vec![Content::Name("a".into()), Content::Name("b".into())]))
        );
    }

    #[test]
    fn postfix_operators() {
        let c = parse_content_model("(a?, b*, c+)").unwrap();
        assert_eq!(
            c,
            Content::Seq(vec![
                Content::Opt(Box::new(Content::Name("a".into()))),
                Content::Star(Box::new(Content::Name("b".into()))),
                Content::Plus(Box::new(Content::Name("c".into()))),
            ])
        );
    }

    #[test]
    fn nested_groups() {
        let c = parse_content_model("(a, (b | c)*, (d, e)?)").unwrap();
        assert!(c.matches(["a"]));
        assert!(c.matches(["a", "b", "c", "d", "e"]));
        assert!(!c.matches(["a", "d"]));
    }

    #[test]
    fn choice_group_with_star_on_group() {
        let c = parse_content_model("((a | b)*)").unwrap();
        assert!(c.matches([]));
        assert!(c.matches(["a", "b", "a"]));
    }

    #[test]
    fn pcdata_star_accepted() {
        let c = parse_content_model("(#PCDATA)*").unwrap();
        assert_eq!(c, Content::PcData);
    }

    #[test]
    fn group_nesting_is_bounded() {
        let nested = |n: usize| format!("{}b{}", "(".repeat(n), ")".repeat(n));
        assert_eq!(parse_content_model(&nested(MAX_DEPTH)).unwrap(), Content::Name("b".into()));
        let dtd = format!("<!ELEMENT a {}><!ELEMENT b EMPTY>", nested(MAX_DEPTH));
        assert!(parse_dtd(&dtd, "a").is_ok());
        // One past the bound, and far past it (100 000 levels used to
        // overflow the stack), are refused where the limit is crossed.
        for n in [MAX_DEPTH + 1, 100_000] {
            let dtd = format!("<!ELEMENT a {}><!ELEMENT b EMPTY>", nested(n));
            let offset = "<!ELEMENT a ".len() + MAX_DEPTH;
            assert_eq!(parse_general_dtd(&dtd, "a").unwrap_err(), Error::TooDeep { offset });
            assert_eq!(
                parse_content_model(&nested(n)).unwrap_err(),
                Error::TooDeep { offset: MAX_DEPTH }
            );
        }
    }

    #[test]
    fn mixed_content_rejected() {
        let e = parse_general_dtd("<!ELEMENT r (#PCDATA | a)><!ELEMENT a EMPTY>", "r").unwrap_err();
        assert!(matches!(e, Error::Unsupported(_)));
    }

    #[test]
    fn any_rejected() {
        let e = parse_general_dtd("<!ELEMENT r ANY>", "r").unwrap_err();
        assert!(matches!(e, Error::Unsupported(_)));
    }

    #[test]
    fn attlist_parsed_and_entities_skipped() {
        let d = parse_general_dtd(
            r#"<!-- a comment -->
<!ELEMENT r (a)>
<!ATTLIST r id CDATA #IMPLIED>
<!ELEMENT a (#PCDATA)>
<!ENTITY nbsp "&#160;">"#,
            "r",
        )
        .unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.attribute_defs("r").len(), 1);
        assert_eq!(d.attribute_defs("r")[0].name, "id");
        assert!(!d.attribute_defs("r")[0].required);
    }

    #[test]
    fn attlist_multiple_attrs_and_forms() {
        let d = parse_general_dtd(
            r#"<!ELEMENT r EMPTY>
<!ATTLIST r
  version CDATA #REQUIRED
  kind (big | small) "small"
  frozen CDATA #FIXED "yes"
  note NMTOKEN #IMPLIED>"#,
            "r",
        )
        .unwrap();
        let defs = d.attribute_defs("r");
        assert_eq!(defs.len(), 4);
        assert!(defs[0].required);
        assert_eq!(defs[1].allowed, ["big", "small"]);
        assert_eq!(defs[1].default.as_deref(), Some("small"));
        assert_eq!(defs[2].default.as_deref(), Some("yes"));
        assert!(!defs[3].required);
    }

    #[test]
    fn attlist_for_unknown_element_rejected() {
        let e = parse_general_dtd("<!ELEMENT r EMPTY><!ATTLIST ghost id CDATA #IMPLIED>", "r")
            .unwrap_err();
        assert!(matches!(e, Error::UndeclaredElement { .. }));
    }

    #[test]
    fn garbage_rejected() {
        assert!(parse_general_dtd("<!ELEMENT r (a)><bogus>", "r").is_err());
        assert!(parse_general_dtd("<!ELEMENT r (a", "r").is_err());
    }

    #[test]
    fn undeclared_child_rejected_at_assembly() {
        let e = parse_general_dtd("<!ELEMENT r (a)>", "r").unwrap_err();
        assert!(matches!(e, Error::UndeclaredElement { .. }));
    }

    #[test]
    fn parse_dtd_normalizes() {
        let d =
            parse_dtd("<!ELEMENT r ((a | b)+)><!ELEMENT a EMPTY><!ELEMENT b EMPTY>", "r").unwrap();
        // (a|b)+ => wrapper W -> a+b ; r -> W, W*
        assert!(d.len() >= 4);
        assert!(d.contains("r"));
    }

    #[test]
    fn hospital_dtd_parses() {
        let src = r#"
<!ELEMENT hospital (dept*)>
<!ELEMENT dept (clinicalTrial, patientInfo, staffInfo)>
<!ELEMENT clinicalTrial (patientInfo, test)>
<!ELEMENT patientInfo (patient*)>
<!ELEMENT patient (name, wardNo, treatment)>
<!ELEMENT treatment (trial | regular)>
<!ELEMENT trial (bill)>
<!ELEMENT regular (bill, medication)>
<!ELEMENT staffInfo (staff*)>
<!ELEMENT staff (doctor | nurse)>
<!ELEMENT doctor (name)>
<!ELEMENT nurse (name)>
<!ELEMENT name (#PCDATA)>
<!ELEMENT wardNo (#PCDATA)>
<!ELEMENT bill (#PCDATA)>
<!ELEMENT medication (#PCDATA)>
<!ELEMENT test (#PCDATA)>
"#;
        let d = parse_dtd(src, "hospital").unwrap();
        assert_eq!(d.root(), "hospital");
        assert_eq!(d.production("hospital"), Some(&crate::NormalContent::Star("dept".into())));
        assert_eq!(
            d.production("treatment"),
            Some(&crate::NormalContent::Choice(vec!["trial".into(), "regular".into()]))
        );
    }
}
