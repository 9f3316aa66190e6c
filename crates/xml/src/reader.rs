//! Pull (StAX-style) XML parser.
//!
//! [`Reader`] walks the input once and yields [`Event`]s. It performs full
//! well-formedness checking for the supported subset: balanced tags,
//! attribute syntax, entity resolution, and single-root documents.

use crate::error::{Error, ErrorKind, Result};
use crate::escape::unescape;

/// A single attribute on a start tag, with entities already resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name as written (may contain a namespace prefix).
    pub name: String,
    /// Attribute value with entity references resolved.
    pub value: String,
}

/// A parse event produced by [`Reader::next_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `<tag attr="v">` or the open part of `<tag/>` (the latter is
    /// immediately followed by a matching [`Event::End`]).
    Start {
        tag: String,
        attributes: Vec<Attribute>,
    },
    /// `</tag>`, or the synthesized close of an empty-element tag.
    End { tag: String },
    /// Character data with entities resolved. CDATA sections also surface
    /// as `Text`. Runs of character data may be split around comments/PIs
    /// but are never empty.
    Text(String),
    /// `<!-- ... -->` (content without the delimiters).
    Comment(String),
    /// `<?target data?>` (excluding the XML declaration, which is consumed
    /// silently).
    ProcessingInstruction { target: String, data: String },
    /// End of the document. Returned exactly once; the reader is exhausted
    /// afterwards.
    Eof,
}

/// A pull parser over an in-memory string.
///
/// The corpus generator produces documents in memory and the store loader
/// streams them through this reader, so an owned-slice parser (rather than
/// an `io::Read` wrapper) is the right interface for this system.
pub struct Reader<'a> {
    input: &'a str,
    /// Current byte position.
    pos: usize,
    /// Open-element stack used for balance checking.
    stack: Vec<String>,
    /// True once the single document element has closed.
    root_closed: bool,
    /// True once any element has been opened.
    seen_root: bool,
    /// A pending `End` event synthesized for an empty-element tag.
    pending_end: Option<String>,
}

impl<'a> Reader<'a> {
    /// Create a reader over `input`.
    pub fn new(input: &'a str) -> Self {
        Reader {
            input,
            pos: 0,
            stack: Vec::new(),
            root_closed: false,
            seen_root: false,
            pending_end: None,
        }
    }

    /// Byte offset of the next unconsumed input.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Depth of currently open elements.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Pull the next event.
    ///
    /// After [`Event::Eof`] has been returned once, subsequent calls keep
    /// returning `Eof`.
    pub fn next_event(&mut self) -> Result<Event> {
        if let Some(tag) = self.pending_end.take() {
            self.close_tag_on_stack(&tag)?;
            return Ok(Event::End { tag });
        }
        loop {
            if self.pos >= self.input.len() {
                return self.finish();
            }
            let rest = &self.input[self.pos..];
            if let Some(stripped) = rest.strip_prefix('<') {
                if stripped.starts_with("!--") {
                    let comment = self.read_comment()?;
                    return Ok(Event::Comment(comment));
                } else if stripped.starts_with("![CDATA[") {
                    let text = self.read_cdata()?;
                    if text.is_empty() {
                        continue;
                    }
                    self.check_text_allowed()?;
                    return Ok(Event::Text(text));
                } else if stripped.starts_with("!DOCTYPE") {
                    self.skip_doctype()?;
                    continue;
                } else if stripped.starts_with('?') {
                    match self.read_pi()? {
                        Some((target, data)) => {
                            return Ok(Event::ProcessingInstruction { target, data })
                        }
                        None => continue, // XML declaration, consumed silently
                    }
                } else if stripped.starts_with('/') {
                    return self.read_close_tag();
                } else {
                    return self.read_open_tag();
                }
            } else {
                match self.read_text()? {
                    Some(text) => return Ok(Event::Text(text)),
                    None => continue, // inter-element whitespace outside root
                }
            }
        }
    }

    fn finish(&mut self) -> Result<Event> {
        if let Some(open) = self.stack.last() {
            return Err(self.err(ErrorKind::UnexpectedEof(leak_tag(open))));
        }
        if !self.seen_root {
            return Err(self.err(ErrorKind::NoRootElement));
        }
        Ok(Event::Eof)
    }

    fn err(&self, kind: ErrorKind) -> Error {
        Error::new(kind, self.pos)
    }

    fn bump(&mut self, n: usize) {
        self.pos += n;
    }

    fn peek(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    fn skip_ws(&mut self) {
        let rest = &self.input[self.pos..];
        let trimmed = rest.trim_start_matches([' ', '\t', '\r', '\n']);
        self.pos += rest.len() - trimmed.len();
    }

    fn expect(&mut self, token: &'static str) -> Result<()> {
        if self.input[self.pos..].starts_with(token) {
            self.bump(token.len());
            Ok(())
        } else {
            match self.peek() {
                Some(found) => Err(self.err(ErrorKind::UnexpectedChar {
                    expected: token,
                    found,
                })),
                None => Err(self.err(ErrorKind::UnexpectedEof(token))),
            }
        }
    }

    fn read_name(&mut self) -> Result<String> {
        let rest = &self.input[self.pos..];
        let end = rest
            .char_indices()
            .find(|&(i, c)| !is_name_char(c, i == 0))
            .map(|(i, _)| i)
            .unwrap_or(rest.len());
        if end == 0 {
            return Err(self.err(ErrorKind::InvalidName));
        }
        let name = rest[..end].to_string();
        self.bump(end);
        Ok(name)
    }

    fn read_open_tag(&mut self) -> Result<Event> {
        if self.root_closed {
            return Err(self.err(ErrorKind::TrailingContent));
        }
        self.expect("<")?;
        let tag = self.read_name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some('>') => {
                    self.bump(1);
                    break;
                }
                Some('/') => {
                    self.bump(1);
                    self.expect(">")?;
                    self.pending_end = Some(tag.clone());
                    break;
                }
                Some(_) => {
                    let attr = self.read_attribute()?;
                    if attributes.iter().any(|a: &Attribute| a.name == attr.name) {
                        return Err(self.err(ErrorKind::DuplicateAttribute(attr.name)));
                    }
                    attributes.push(attr);
                }
                None => return Err(self.err(ErrorKind::UnexpectedEof("start tag"))),
            }
        }
        self.seen_root = true;
        // Push unconditionally; an empty-element tag is popped again when the
        // synthesized End event is delivered on the next call.
        self.stack.push(tag.clone());
        Ok(Event::Start { tag, attributes })
    }

    fn read_attribute(&mut self) -> Result<Attribute> {
        let name = self.read_name()?;
        self.skip_ws();
        self.expect("=")?;
        self.skip_ws();
        let quote = match self.peek() {
            Some(q @ ('"' | '\'')) => q,
            Some(found) => {
                return Err(self.err(ErrorKind::UnexpectedChar {
                    expected: "quote",
                    found,
                }))
            }
            None => return Err(self.err(ErrorKind::UnexpectedEof("attribute value"))),
        };
        self.bump(1);
        let rest = &self.input[self.pos..];
        let end = rest
            .find(quote)
            .ok_or_else(|| self.err(ErrorKind::UnexpectedEof("attribute value")))?;
        let raw = &rest[..end];
        let value = unescape(raw, self.pos)?.into_owned();
        self.bump(end + 1);
        Ok(Attribute { name, value })
    }

    fn close_tag_on_stack(&mut self, tag: &str) -> Result<()> {
        match self.stack.pop() {
            Some(open) if open == tag => {
                if self.stack.is_empty() {
                    self.root_closed = true;
                }
                Ok(())
            }
            Some(open) => Err(self.err(ErrorKind::MismatchedClose {
                open,
                close: tag.to_string(),
            })),
            None => Err(self.err(ErrorKind::UnbalancedClose(tag.to_string()))),
        }
    }

    fn read_close_tag(&mut self) -> Result<Event> {
        self.expect("</")?;
        let tag = self.read_name()?;
        self.skip_ws();
        self.expect(">")?;
        if self.stack.is_empty() {
            return Err(self.err(ErrorKind::UnbalancedClose(tag)));
        }
        self.close_tag_on_stack(&tag)?;
        Ok(Event::End { tag })
    }

    /// Read character data up to the next `<`.
    ///
    /// Returns `None` (and consumes the input) for pure whitespace outside
    /// the document element, which the XML grammar allows but which carries
    /// no information.
    fn read_text(&mut self) -> Result<Option<String>> {
        let rest = &self.input[self.pos..];
        let end = rest.find('<').unwrap_or(rest.len());
        let raw = &rest[..end];
        let outside = self.stack.is_empty();
        if outside {
            if raw.trim().is_empty() {
                self.bump(end);
                return Ok(None);
            }
            return Err(if self.root_closed || self.seen_root {
                self.err(ErrorKind::TrailingContent)
            } else {
                self.err(ErrorKind::NoRootElement)
            });
        }
        let text = unescape(raw, self.pos)?.into_owned();
        self.bump(end);
        Ok(Some(text))
    }

    fn check_text_allowed(&self) -> Result<()> {
        if self.stack.is_empty() {
            Err(self.err(ErrorKind::TrailingContent))
        } else {
            Ok(())
        }
    }

    fn read_comment(&mut self) -> Result<String> {
        self.expect("<!--")?;
        let rest = &self.input[self.pos..];
        let end = rest
            .find("-->")
            .ok_or_else(|| self.err(ErrorKind::UnexpectedEof("comment")))?;
        let comment = rest[..end].to_string();
        self.bump(end + 3);
        Ok(comment)
    }

    fn read_cdata(&mut self) -> Result<String> {
        self.expect("<![CDATA[")?;
        let rest = &self.input[self.pos..];
        let end = rest
            .find("]]>")
            .ok_or_else(|| self.err(ErrorKind::UnexpectedEof("CDATA section")))?;
        let text = rest[..end].to_string();
        self.bump(end + 3);
        Ok(text)
    }

    fn skip_doctype(&mut self) -> Result<()> {
        // `<!DOCTYPE name [ ...internal subset... ]>` — track bracket depth so
        // an internal subset containing `>` is skipped correctly.
        self.expect("<!DOCTYPE")?;
        let mut depth = 0usize;
        while let Some(c) = self.peek() {
            self.bump(c.len_utf8());
            match c {
                '[' => depth += 1,
                ']' => depth = depth.saturating_sub(1),
                '>' if depth == 0 => return Ok(()),
                _ => {}
            }
        }
        Err(self.err(ErrorKind::UnexpectedEof("DOCTYPE")))
    }

    /// Returns `None` for the XML declaration, `Some((target, data))` for a
    /// real processing instruction.
    fn read_pi(&mut self) -> Result<Option<(String, String)>> {
        self.expect("<?")?;
        let target = self.read_name()?;
        let rest = &self.input[self.pos..];
        let end = rest
            .find("?>")
            .ok_or_else(|| self.err(ErrorKind::UnexpectedEof("processing instruction")))?;
        let data = rest[..end].trim().to_string();
        self.bump(end + 2);
        if target.eq_ignore_ascii_case("xml") {
            Ok(None)
        } else {
            Ok(Some((target, data)))
        }
    }
}

fn is_name_char(c: char, first: bool) -> bool {
    let base = c.is_alphabetic() || c == '_' || c == ':';
    if first {
        base
    } else {
        base || c.is_numeric() || c == '-' || c == '.'
    }
}

fn leak_tag(tag: &str) -> &'static str {
    // Error messages want a &'static str for the "while parsing X" slot;
    // rather than leak memory per error we report the construct generically.
    let _ = tag;
    "element content (unclosed element)"
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse the whole input and collect all events.
    fn collect_events(input: &str) -> Result<Vec<Event>> {
        let mut reader = Reader::new(input);
        let mut events = Vec::new();
        loop {
            let event = reader.next_event()?;
            let done = event == Event::Eof;
            events.push(event);
            if done {
                return Ok(events);
            }
        }
    }

    fn ev(input: &str) -> Vec<Event> {
        collect_events(input).unwrap()
    }

    #[test]
    fn simple_element() {
        assert_eq!(
            ev("<a>x</a>"),
            vec![
                Event::Start {
                    tag: "a".into(),
                    attributes: vec![]
                },
                Event::Text("x".into()),
                Event::End { tag: "a".into() },
                Event::Eof,
            ]
        );
    }

    #[test]
    fn empty_element_synthesizes_end() {
        assert_eq!(
            ev("<a/>"),
            vec![
                Event::Start {
                    tag: "a".into(),
                    attributes: vec![]
                },
                Event::End { tag: "a".into() },
                Event::Eof,
            ]
        );
    }

    #[test]
    fn attributes_both_quotes() {
        let events = ev(r#"<a x="1" y='two'/>"#);
        match &events[0] {
            Event::Start { attributes, .. } => {
                assert_eq!(attributes.len(), 2);
                assert_eq!(
                    attributes[0],
                    Attribute {
                        name: "x".into(),
                        value: "1".into()
                    }
                );
                assert_eq!(
                    attributes[1],
                    Attribute {
                        name: "y".into(),
                        value: "two".into()
                    }
                );
            }
            other => panic!("expected start event, got {other:?}"),
        }
    }

    #[test]
    fn attribute_entities_resolved() {
        let events = ev(r#"<a t="a&amp;b&#33;"/>"#);
        match &events[0] {
            Event::Start { attributes, .. } => assert_eq!(attributes[0].value, "a&b!"),
            other => panic!("expected start event, got {other:?}"),
        }
    }

    #[test]
    fn text_entities_resolved() {
        assert_eq!(ev("<a>1 &lt; 2</a>")[1], Event::Text("1 < 2".into()));
    }

    #[test]
    fn cdata_is_text() {
        assert_eq!(
            ev("<a><![CDATA[<raw> & unescaped]]></a>")[1],
            Event::Text("<raw> & unescaped".into())
        );
    }

    #[test]
    fn comments_and_pis() {
        let events = ev("<?xml version=\"1.0\"?><!-- hi --><a><?foo bar?></a>");
        assert_eq!(events[0], Event::Comment(" hi ".into()));
        assert_eq!(
            events[2],
            Event::ProcessingInstruction {
                target: "foo".into(),
                data: "bar".into()
            }
        );
    }

    #[test]
    fn doctype_skipped() {
        let events = ev("<!DOCTYPE article [ <!ELEMENT a (#PCDATA)> ]><a/>");
        assert_eq!(
            events[0],
            Event::Start {
                tag: "a".into(),
                attributes: vec![]
            }
        );
    }

    #[test]
    fn nested_structure() {
        let events = ev("<a><b><c/></b><b/></a>");
        let starts: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::Start { tag, .. } => Some(tag.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(starts, ["a", "b", "c", "b"]);
    }

    #[test]
    fn mismatched_close_rejected() {
        let err = collect_events("<a><b></a></b>").unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::MismatchedClose { .. }));
    }

    #[test]
    fn unclosed_rejected() {
        let err = collect_events("<a><b>").unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::UnexpectedEof(_)));
    }

    #[test]
    fn trailing_content_rejected() {
        let err = collect_events("<a/><b/>").unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::TrailingContent));
    }

    #[test]
    fn trailing_text_rejected() {
        let err = collect_events("<a/>oops").unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::TrailingContent));
    }

    #[test]
    fn empty_input_rejected() {
        let err = collect_events("   ").unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::NoRootElement));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = collect_events(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(err.kind(), ErrorKind::DuplicateAttribute(_)));
    }

    #[test]
    fn whitespace_around_root_ok() {
        assert_eq!(ev("  \n<a/>\n  ").len(), 3);
    }

    #[test]
    fn unicode_content() {
        let events = ev("<a>héllo wörld — ünïcode</a>");
        assert_eq!(events[1], Event::Text("héllo wörld — ünïcode".into()));
    }

    #[test]
    fn namespaced_names_lexical() {
        let events = ev("<ns:a ns:x='1'><ns:b/></ns:a>");
        assert!(matches!(&events[0], Event::Start { tag, .. } if tag == "ns:a"));
    }

    #[test]
    fn depth_tracking() {
        let mut reader = Reader::new("<a><b/></a>");
        assert_eq!(reader.depth(), 0);
        reader.next_event().unwrap(); // <a>
        assert_eq!(reader.depth(), 1);
        reader.next_event().unwrap(); // <b>
        assert_eq!(reader.depth(), 2);
    }

    #[test]
    fn eof_is_sticky() {
        let mut reader = Reader::new("<a/>");
        while reader.next_event().unwrap() != Event::Eof {}
        assert_eq!(reader.next_event().unwrap(), Event::Eof);
    }
}
