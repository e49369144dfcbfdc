//! Parser for the concrete text syntax of the fragment `C`.
//!
//! ```text
//! query     := path ('|' path)*                 // union (paper's ∪)
//! path      := ('/' | '//')? step (('/' | '//') step)*
//! step      := primary ('[' qual ']' | '*')*    // postfix '*': Kleene closure
//! primary   := '.' | '*' | name | '(' query ')'
//! qual      := qor
//! qor       := qand ('or' qand)*
//! qand      := qnot ('and' qnot)*
//! qnot      := 'not' '(' qual ')' | '(' qual ')' | atom
//! atom      := '@' name ('=' literal)?
//!            | query ('=' literal)?
//! literal   := '"…"' | "'…'" | '$' name        // $var: spec parameter
//! ```
//!
//! `.` is the paper's `ε`; a leading `/` is the absolute-path marker
//! ([`Path::Doc`]); `p1//p2` parses to `p1/(//p2)` as in the paper.
//!
//! Input nesting deeper than [`MAX_DEPTH`] is refused with
//! [`Error::TooDeep`].

use crate::ast::{Path, Qualifier};
use crate::error::{Error, Result};
use std::collections::HashMap;

/// Tallest `Path`/`Qualifier` tree the parser builds, and deepest `(`,
/// `[` and `not(` nesting it descends into. Every later pass — rewrite,
/// optimize, compile, certify, execute, even dropping the tree —
/// recurses over the tree, so this one bound caps their stack use too:
/// at this height every approach still answers on a daemon worker's
/// default 2 MiB stack, in debug builds as well. It admits 128 steps or
/// union arms, 127 postfix `*`, 126 stacked `[q]` filters or 63 nested
/// qualifiers; parenthesized groups build taller unions or chains out of
/// balanced halves. Input is refused while parsing, before the tree
/// outgrows the bound, since even dropping a deeper tree overflows.
pub const MAX_DEPTH: usize = 128;

/// Parse a query string.
pub fn parse(input: &str) -> Result<Path> {
    let mut p = Parser { input: input.as_bytes(), ..Parser::default() };
    p.skip_ws();
    let (path, _) = p.parse_union()?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing input after query"));
    }
    Ok(path)
}

/// A parsed node paired with the height of its tree (an upper bound:
/// the smart constructors only ever shrink a node).
type Parsed<T> = Result<(T, usize)>;

#[derive(Default)]
struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    /// Open `(`, `[` and `not(` groups around the cursor.
    nesting: usize,
    /// Qualifier readings of `(` groups in progress. `parse_qnot` reads
    /// such a group first as a qualifier and then, if that fails, again
    /// as a path.
    tentative: usize,
    /// Every `[q]` parsed during a tentative reading, by the offset after
    /// its `[`, with the offset after its `]`. Without this memo every
    /// bracket inside a group would parse once per reading, so nested
    /// `[(…)/p]` groups would cost time exponential in their depth.
    brackets: HashMap<usize, (Parsed<Qualifier>, usize)>,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> Error {
        Error::Parse { offset: self.pos, message: message.into() }
    }

    /// Height of a node over children of heights `children`, refused
    /// past [`MAX_DEPTH`].
    fn height(&self, children: &[usize]) -> Result<usize> {
        let height = 1 + children.iter().max().copied().unwrap_or(0);
        if height > MAX_DEPTH {
            return Err(Error::TooDeep { offset: self.pos });
        }
        Ok(height)
    }

    /// Parse the inside of a group one nesting level deeper, refusing
    /// nesting past [`MAX_DEPTH`].
    fn group<T>(&mut self, inside: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.nesting == MAX_DEPTH {
            return Err(Error::TooDeep { offset: self.pos });
        }
        self.nesting += 1;
        let parsed = inside(self);
        self.nesting -= 1;
        parsed
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// `kw` followed by a non-name character (so `and` ≠ `android`).
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.starts_with(kw) {
            let after = self.input.get(self.pos + kw.len()).copied();
            let boundary = !matches!(
                after,
                Some(b) if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.')
            );
            if boundary {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn parse_union(&mut self) -> Parsed<Path> {
        let (mut acc, mut height) = self.parse_path()?;
        loop {
            self.skip_ws();
            // Accept both `|` and the paper's `∪`.
            if self.eat("|") || self.eat("∪") {
                self.skip_ws();
                let (rhs, rhs_height) = self.parse_path()?;
                height = self.height(&[height, rhs_height])?;
                // Keep the raw node: the parser must be faithful to the
                // written query. `Path::union`'s idempotence law would
                // collapse `a | a | aa` to `a | aa` and break the
                // display/parse roundtrip; simplification is opt-in via
                // the smart constructors, not part of parsing.
                acc = Path::Union(Box::new(acc), Box::new(rhs));
            } else {
                return Ok((acc, height));
            }
        }
    }

    fn parse_path(&mut self) -> Parsed<Path> {
        self.skip_ws();
        let (mut acc, mut height) = if self.eat("//") {
            self.parse_descendant()?
        } else if self.eat("/") {
            let (step, step_height) = self.parse_step()?;
            (Path::step(Path::Doc, step), self.height(&[1, step_height])?)
        } else {
            self.parse_step()?
        };
        loop {
            let (step, step_height) = if self.eat("//") {
                self.parse_descendant()?
            } else if self.eat("/") {
                self.parse_step()?
            } else {
                return Ok((acc, height));
            };
            height = self.height(&[height, step_height])?;
            acc = Path::step(acc, step);
        }
    }

    /// `//step`, after the `//`.
    fn parse_descendant(&mut self) -> Parsed<Path> {
        let (step, height) = self.parse_step()?;
        Ok((Path::descendant(step), self.height(&[height])?))
    }

    fn parse_step(&mut self) -> Parsed<Path> {
        self.skip_ws();
        let (mut primary, mut height) = if self.starts_with("text()") {
            self.pos += "text()".len();
            (Path::Text, 1)
        } else if self.eat(".") {
            (Path::Empty, 1)
        } else if self.eat("*") {
            (Path::Wildcard, 1)
        } else if self.eat("∅") {
            (Path::EmptySet, 1)
        } else if self.peek() == Some(b'(') {
            self.pos += 1;
            let inner = self.group(Self::parse_union)?;
            self.skip_ws();
            if !self.eat(")") {
                return Err(self.err("expected ')'"));
            }
            inner
        } else {
            (Path::Label(self.parse_name()?), 1)
        };
        loop {
            self.skip_ws();
            if self.peek() == Some(b'[') {
                self.pos += 1;
                let (q, q_height) = self.bracket()?;
                height = self.height(&[height, q_height])?;
                primary = Path::filter(primary, q);
            } else if self.peek() == Some(b'*') {
                // Postfix Kleene star: `(p)*`. Kept raw (no smart-ctor
                // folding) for the same display/parse faithfulness reason
                // as unions.
                self.pos += 1;
                height = self.height(&[height])?;
                primary = Path::Closure(Box::new(primary));
            } else {
                return Ok((primary, height));
            }
        }
    }

    fn parse_name(&mut self) -> Result<String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':') {
                // `.` only continues a name if a name has started (so `.` the
                // ε-step and `a.b` names both work) and is not followed by
                // a path separator context; names in our DTDs use dots
                // internally (`r-e.warranty`).
                if b == b'.' && self.pos == start {
                    break;
                }
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        let name = std::str::from_utf8(&self.input[start..self.pos]).unwrap();
        if name.as_bytes()[0].is_ascii_digit() {
            return Err(self.err(format!("name {name:?} may not start with a digit")));
        }
        Ok(name.to_string())
    }

    /// The qualifier of a `[q]` whose `[` was just consumed, up to and
    /// including its `]` (memoized in `brackets` while tentative).
    fn bracket(&mut self) -> Parsed<Qualifier> {
        let start = self.pos;
        if let Some((parsed, end)) = self.brackets.get(&start) {
            self.pos = *end;
            return parsed.clone();
        }
        let parsed = self.group(Self::parse_qual).and_then(|q| {
            self.skip_ws();
            if self.eat("]") {
                Ok(q)
            } else {
                Err(self.err("expected ']'"))
            }
        });
        if self.tentative > 0 {
            self.brackets.insert(start, (parsed.clone(), self.pos));
        }
        parsed
    }

    fn parse_qual(&mut self) -> Parsed<Qualifier> {
        self.parse_qor()
    }

    fn parse_qor(&mut self) -> Parsed<Qualifier> {
        let (mut acc, mut height) = self.parse_qand()?;
        loop {
            self.skip_ws();
            if self.eat_keyword("or") {
                let (rhs, rhs_height) = self.parse_qand()?;
                height = self.height(&[height, rhs_height])?;
                acc = Qualifier::or(acc, rhs);
            } else {
                return Ok((acc, height));
            }
        }
    }

    fn parse_qand(&mut self) -> Parsed<Qualifier> {
        let (mut acc, mut height) = self.parse_qnot()?;
        loop {
            self.skip_ws();
            if self.eat_keyword("and") {
                let (rhs, rhs_height) = self.parse_qnot()?;
                height = self.height(&[height, rhs_height])?;
                acc = Qualifier::and(acc, rhs);
            } else {
                return Ok((acc, height));
            }
        }
    }

    fn parse_qnot(&mut self) -> Parsed<Qualifier> {
        self.skip_ws();
        if self.starts_with("true()") {
            self.pos += "true()".len();
            return Ok((Qualifier::True, 1));
        }
        if self.starts_with("false()") {
            self.pos += "false()".len();
            return Ok((Qualifier::False, 1));
        }
        if self.eat_keyword("not") {
            self.skip_ws();
            if !self.eat("(") {
                return Err(self.err("expected '(' after not"));
            }
            let (inner, inner_height) = self.group(Self::parse_qual)?;
            self.skip_ws();
            if !self.eat(")") {
                return Err(self.err("expected ')'"));
            }
            return Ok((Qualifier::not(inner), self.height(&[inner_height])?));
        }
        if self.peek() == Some(b'(') {
            // Could be a parenthesized qualifier or a parenthesized path
            // (e.g. `[(a | b)/c]`). Try qualifier first by lookahead: a
            // path can always be read as the atom, so parse the atom path
            // which itself handles parens.
            // Disambiguation: attempt qualifier-group parse, fall back.
            let save = self.pos;
            self.pos += 1;
            self.tentative += 1;
            let reading = self.group(Self::parse_qual);
            self.tentative -= 1;
            if let Ok(inner) = reading {
                self.skip_ws();
                if self.eat(")") {
                    self.skip_ws();
                    // Must not be followed by path continuation, '=' or
                    // a postfix Kleene star (`[(p)*]` is a path atom).
                    if !matches!(self.peek(), Some(b'/' | b'=' | b'[' | b'|' | b'*')) {
                        return Ok(inner);
                    }
                }
            }
            self.pos = save;
        }
        self.parse_qatom()
    }

    fn parse_qatom(&mut self) -> Parsed<Qualifier> {
        self.skip_ws();
        if self.eat("@") {
            let name = self.parse_name()?;
            self.skip_ws();
            if self.eat("=") {
                let value = self.parse_literal()?;
                return Ok((Qualifier::AttrEq(name, value), 1));
            }
            return Ok((Qualifier::Attr(name), 1));
        }
        let (path, path_height) = self.parse_union()?;
        let height = self.height(&[path_height])?;
        self.skip_ws();
        if self.eat("=") {
            let value = self.parse_literal()?;
            return Ok((Qualifier::Eq(path, value), height));
        }
        Ok((Qualifier::path(path), height))
    }

    fn parse_literal(&mut self) -> Result<String> {
        self.skip_ws();
        match self.peek() {
            Some(q @ (b'"' | b'\'')) => {
                self.pos += 1;
                let start = self.pos;
                while self.peek() != Some(q) {
                    if self.peek().is_none() {
                        return Err(self.err("unterminated string literal"));
                    }
                    self.pos += 1;
                }
                let s = std::str::from_utf8(&self.input[start..self.pos])
                    .map_err(|_| self.err("literal is not valid UTF-8"))?
                    .to_string();
                self.pos += 1;
                Ok(s)
            }
            Some(b'$') => {
                // Spec parameter: kept verbatim (including `$`) so the
                // access-specification layer can substitute it later.
                self.pos += 1;
                let name = self.parse_name()?;
                Ok(format!("${name}"))
            }
            Some(b) if b.is_ascii_digit() => {
                // Bare numeric literal.
                let start = self.pos;
                while matches!(self.peek(), Some(b) if b.is_ascii_digit() || b == b'.') {
                    self.pos += 1;
                }
                Ok(std::str::from_utf8(&self.input[start..self.pos]).unwrap().to_string())
            }
            _ => Err(self.err("expected a string literal, number, or $parameter")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(s: &str) -> Path {
        Path::label(s)
    }

    #[test]
    fn simple_paths() {
        assert_eq!(parse("a").unwrap(), l("a"));
        assert_eq!(parse("a/b").unwrap(), Path::step(l("a"), l("b")));
        assert_eq!(parse("*").unwrap(), Path::Wildcard);
        assert_eq!(parse(".").unwrap(), Path::Empty);
    }

    #[test]
    fn descendant_axis() {
        assert_eq!(parse("//a").unwrap(), Path::descendant(l("a")));
        assert_eq!(parse("a//b").unwrap(), Path::step(l("a"), Path::descendant(l("b"))));
        assert_eq!(
            parse("//a//b").unwrap(),
            Path::step(Path::descendant(l("a")), Path::descendant(l("b")))
        );
    }

    #[test]
    fn absolute_paths() {
        assert_eq!(parse("/a/b").unwrap(), Path::step(Path::step(Path::Doc, l("a")), l("b")));
    }

    #[test]
    fn union_forms() {
        let expected = Path::union(l("a"), l("b"));
        assert_eq!(parse("a | b").unwrap(), expected);
        assert_eq!(parse("a ∪ b").unwrap(), expected);
        assert_eq!(parse("(a | b)/c").unwrap(), Path::step(expected, l("c")));
    }

    #[test]
    fn qualifiers() {
        assert_eq!(parse("a[b]").unwrap(), Path::filter(l("a"), Qualifier::path(l("b"))));
        assert_eq!(
            parse("a[b and c]").unwrap(),
            Path::filter(l("a"), Qualifier::and(Qualifier::path(l("b")), Qualifier::path(l("c"))))
        );
        assert_eq!(
            parse("a[not(b) or c]").unwrap(),
            Path::filter(
                l("a"),
                Qualifier::or(Qualifier::not(Qualifier::path(l("b"))), Qualifier::path(l("c")))
            )
        );
    }

    #[test]
    fn equality_qualifiers() {
        assert_eq!(
            parse("a[b='x']").unwrap(),
            Path::filter(l("a"), Qualifier::Eq(l("b"), "x".into()))
        );
        assert_eq!(
            parse("a[b=\"x\"]").unwrap(),
            Path::filter(l("a"), Qualifier::Eq(l("b"), "x".into()))
        );
        assert_eq!(
            parse("a[b=42]").unwrap(),
            Path::filter(l("a"), Qualifier::Eq(l("b"), "42".into()))
        );
    }

    #[test]
    fn parameter_literal() {
        assert_eq!(
            parse("dept[*/patient/wardNo=$wardNo]").unwrap(),
            Path::filter(
                l("dept"),
                Qualifier::Eq(
                    Path::step(Path::step(Path::Wildcard, l("patient")), l("wardNo")),
                    "$wardNo".into()
                )
            )
        );
    }

    #[test]
    fn attribute_qualifiers() {
        assert_eq!(
            parse("a[@accessibility='1']").unwrap(),
            Path::filter(l("a"), Qualifier::AttrEq("accessibility".into(), "1".into()))
        );
        assert_eq!(parse("a[@id]").unwrap(), Path::filter(l("a"), Qualifier::Attr("id".into())));
    }

    #[test]
    fn nested_qualifier_with_descendant() {
        let p = parse("//house[//r-e.asking-price and //r-e.unit-type]").unwrap();
        match p {
            Path::Descendant(inner) => match *inner {
                Path::Filter(base, q) => {
                    assert_eq!(*base, l("house"));
                    assert!(matches!(*q, Qualifier::And(..)));
                }
                other => panic!("expected filter, got {other:?}"),
            },
            other => panic!("expected descendant, got {other:?}"),
        }
    }

    #[test]
    fn dotted_names() {
        assert_eq!(
            parse("//house/r-e.warranty | //apartment/r-e.warranty").unwrap(),
            Path::union(
                Path::step(Path::descendant(l("house")), l("r-e.warranty")),
                Path::step(Path::descendant(l("apartment")), l("r-e.warranty")),
            )
        );
    }

    #[test]
    fn multiple_qualifiers_conjoin() {
        // a[b][c] — successive filters.
        let p = parse("a[b][c]").unwrap();
        assert_eq!(
            p,
            Path::filter(Path::filter(l("a"), Qualifier::path(l("b"))), Qualifier::path(l("c")))
        );
    }

    #[test]
    fn parenthesized_qualifier_group() {
        let p = parse("a[(b or c) and d]").unwrap();
        assert_eq!(
            p,
            Path::filter(
                l("a"),
                Qualifier::and(
                    Qualifier::or(Qualifier::path(l("b")), Qualifier::path(l("c"))),
                    Qualifier::path(l("d"))
                )
            )
        );
    }

    #[test]
    fn parenthesized_path_in_qualifier() {
        let p = parse("a[(b | c)/d]").unwrap();
        assert_eq!(
            p,
            Path::filter(l("a"), Qualifier::path(Path::step(Path::union(l("b"), l("c")), l("d"))))
        );
    }

    #[test]
    fn epsilon_with_qualifier() {
        assert_eq!(parse(".[a]").unwrap(), Path::filter(Path::Empty, Qualifier::path(l("a"))));
    }

    #[test]
    fn keyword_prefix_names_ok() {
        // Names beginning with `and`/`or`/`not` must not be eaten as keywords.
        assert_eq!(
            parse("a[android and order and nothing]").unwrap(),
            Path::filter(
                l("a"),
                Qualifier::and(
                    Qualifier::and(Qualifier::path(l("android")), Qualifier::path(l("order"))),
                    Qualifier::path(l("nothing"))
                )
            )
        );
    }

    #[test]
    fn text_selector() {
        assert_eq!(parse("text()").unwrap(), Path::Text);
        assert_eq!(parse("a/text()").unwrap(), Path::step(Path::label("a"), Path::Text));
        assert_eq!(parse("//text()").unwrap(), Path::descendant(Path::Text));
        // A name that merely starts with "text" stays a name.
        assert_eq!(parse("textual").unwrap(), Path::label("textual"));
    }

    #[test]
    fn closure_postfix() {
        assert_eq!(parse("(a)*").unwrap(), Path::Closure(Box::new(l("a"))));
        assert_eq!(parse("a*").unwrap(), Path::Closure(Box::new(l("a"))));
        assert_eq!(
            parse("(a/b)*/c").unwrap(),
            Path::step(Path::Closure(Box::new(Path::step(l("a"), l("b")))), l("c"))
        );
        assert_eq!(parse("x/(a)*").unwrap(), Path::step(l("x"), Path::Closure(Box::new(l("a")))));
        // Qualifier then star and star then qualifier both parse.
        assert_eq!(
            parse("a[b]*").unwrap(),
            Path::Closure(Box::new(Path::filter(l("a"), Qualifier::path(l("b")))))
        );
        assert_eq!(
            parse("(a)*[b]").unwrap(),
            Path::filter(Path::Closure(Box::new(l("a"))), Qualifier::path(l("b")))
        );
        // A lone `*` stays the wildcard; `a/*` is untouched.
        assert_eq!(parse("a/*").unwrap(), Path::step(l("a"), Path::Wildcard));
    }

    #[test]
    fn errors() {
        assert!(parse("").is_err());
        assert!(parse("a[").is_err());
        assert!(parse("a]").is_err());
        assert!(parse("a[b='unclosed]").is_err());
        assert!(parse("(a").is_err());
        assert!(parse("a | ").is_err());
        assert!(parse("1name").is_err());
    }

    /// Tree height, as [`MAX_DEPTH`] counts it.
    fn height(p: &Path) -> usize {
        1 + match p {
            Path::Step(a, b) | Path::Union(a, b) => height(a).max(height(b)),
            Path::Descendant(p) | Path::Closure(p) => height(p),
            Path::Filter(p, q) => height(p).max(qualifier_height(q)),
            _ => 0,
        }
    }

    fn qualifier_height(q: &Qualifier) -> usize {
        1 + match q {
            Qualifier::Path(p) | Qualifier::Eq(p, _) => height(p),
            Qualifier::And(a, b) | Qualifier::Or(a, b) => {
                qualifier_height(a).max(qualifier_height(b))
            }
            Qualifier::Not(q) => qualifier_height(q),
            _ => 0,
        }
    }

    /// Deep query shapes: how to build one of size `n`, the largest size
    /// that fits [`MAX_DEPTH`], and the size that overflowed a daemon
    /// worker's stack before the bound existed.
    type Shape = (&'static str, fn(usize) -> String, usize, usize);

    const DEEP_SHAPES: [Shape; 6] = [
        ("nested qualifiers", |n| format!("{}a{}", "a[".repeat(n), "]".repeat(n)), 63, 1_500),
        ("step chain", |n| vec!["dept"; n].join("/"), 128, 5_000),
        ("stacked qualifiers", |n| format!("dept{}", "[dept]".repeat(n)), 126, 5_000),
        ("postfix stars", |n| format!("dept{}", "*".repeat(n)), 127, 20_000),
        (
            "union arms",
            |n| (0..n).map(|i| format!("l{i}")).collect::<Vec<_>>().join(" | "),
            128,
            20_000,
        ),
        ("nested parentheses", |n| format!("{}dept{}", "(".repeat(n), ")".repeat(n)), 128, 50_000),
    ];

    #[test]
    fn deep_shapes_parse_up_to_the_limit() {
        for (shape, build, limit, _) in DEEP_SHAPES {
            let p = parse(&build(limit)).unwrap_or_else(|e| panic!("{shape} at the limit: {e}"));
            assert!(height(&p) <= MAX_DEPTH, "{shape}: height {}", height(&p));
            if shape != "nested parentheses" {
                assert!(height(&p) >= MAX_DEPTH - 1, "{shape} fills the bound: {}", height(&p));
            }
        }
    }

    #[test]
    fn deeper_input_is_refused_while_parsing() {
        for (shape, build, limit, crashed_at) in DEEP_SHAPES {
            for n in [limit + 1, crashed_at] {
                match parse(&build(n)) {
                    Err(Error::TooDeep { offset }) => assert!(offset > 0, "{shape} × {n}"),
                    other => panic!("{shape} × {n}: expected TooDeep, got {other:?}"),
                }
            }
        }
        // Nesting counts `not(` and qualifier groups too.
        let nots = format!("a[{}b{}]", "not(".repeat(MAX_DEPTH), ")".repeat(MAX_DEPTH));
        assert!(matches!(parse(&nots), Err(Error::TooDeep { .. })));
    }

    #[test]
    fn qualifier_groups_reread_as_paths_parse_in_polynomial_time() {
        // Each `[(…)/z]` level is first read as a qualifier group, then as
        // a path; without the bracket memo this took 2^levels parses.
        let mut q = String::from("a");
        for _ in 0..40 {
            q = format!("a[({q})/z]");
        }
        let p = parse(&q).unwrap();
        assert_eq!(height(&p), 3 * 40 + 1);
        assert_eq!(parse(&p.to_string()).unwrap(), p);
    }

    #[test]
    fn whitespace_tolerated() {
        assert_eq!(
            parse("  a / b [ c = '1' ] ").unwrap(),
            Path::step(l("a"), Path::filter(l("b"), Qualifier::Eq(l("c"), "1".into())))
        );
    }
}
