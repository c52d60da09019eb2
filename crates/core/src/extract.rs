//! The Result Extractor: parses XML result pages back into records.
//!
//! The paper's crawler architecture (§2.5) has a Result Extractor that
//! "extracts data records from the result pages and feeds them into
//! DB_local". Amazon's Web Service returns XML (§5), which this module
//! parses. The parser is a small hand-rolled scanner for the wire format of
//! `dwc-server::wire` — no XML dependency, strict enough to reject malformed
//! pages, and round-trip exact with the serializer.

use dwc_server::wire::{unescape_xml, unescape_xml_cow};
use std::borrow::Cow;

/// A record extracted from a result page: source key + field strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedRecord {
    /// The source-assigned stable record key.
    pub key: u64,
    /// `(attribute name, value string)` pairs.
    pub fields: Vec<(String, String)>,
}

/// A parsed result page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedPage {
    /// Zero-based page index.
    pub page_index: usize,
    /// Total match count, when the source reports it.
    pub total_matches: Option<usize>,
    /// Whether more pages follow.
    pub has_more: bool,
    /// The extracted records.
    pub records: Vec<ExtractedRecord>,
}

/// A record borrowed out of a wire buffer: fields are `Cow` slices into the
/// document, owning heap memory only where an escaped entity had to be
/// resolved. The zero-copy counterpart of [`ExtractedRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedRecordRef<'a> {
    /// The source-assigned stable record key.
    pub key: u64,
    /// `(attribute name, value string)` pairs borrowed from the buffer.
    pub fields: Vec<(Cow<'a, str>, Cow<'a, str>)>,
}

impl ExtractedRecordRef<'_> {
    /// Materializes an owned [`ExtractedRecord`] (checkpoint/serde paths).
    pub fn to_owned_record(&self) -> ExtractedRecord {
        ExtractedRecord {
            key: self.key,
            fields: self
                .fields
                .iter()
                .map(|(a, v)| (a.clone().into_owned(), v.clone().into_owned()))
                .collect(),
        }
    }
}

/// A parsed result page borrowing from the wire buffer — the hot-path view
/// produced by [`parse_page_ref`] / [`parse_html_page_ref`] and consumed by
/// `DataSource::visit_page` callbacks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedPageRef<'a> {
    /// Zero-based page index.
    pub page_index: usize,
    /// Total match count, when the source reports it.
    pub total_matches: Option<usize>,
    /// Whether more pages follow.
    pub has_more: bool,
    /// The extracted records, borrowing from the buffer.
    pub records: Vec<ExtractedRecordRef<'a>>,
}

impl ExtractedPageRef<'_> {
    /// Materializes an owned [`ExtractedPage`].
    pub fn to_owned_page(&self) -> ExtractedPage {
        ExtractedPage {
            page_index: self.page_index,
            total_matches: self.total_matches,
            has_more: self.has_more,
            records: self.records.iter().map(ExtractedRecordRef::to_owned_record).collect(),
        }
    }

    /// A borrowed view over an owned page — lets legacy `query_page` sources
    /// feed zero-copy consumers without duplicating the strings.
    pub fn borrowed(page: &ExtractedPage) -> ExtractedPageRef<'_> {
        ExtractedPageRef {
            page_index: page.page_index,
            total_matches: page.total_matches,
            has_more: page.has_more,
            records: page
                .records
                .iter()
                .map(|rec| ExtractedRecordRef {
                    key: rec.key,
                    fields: rec
                        .fields
                        .iter()
                        .map(|(a, v)| (Cow::Borrowed(a.as_str()), Cow::Borrowed(v.as_str())))
                        .collect(),
                })
                .collect(),
        }
    }
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtractError {
    /// The document does not start with a `<results>` element.
    MissingResultsElement,
    /// A required attribute is missing or unparseable.
    BadAttribute(&'static str),
    /// A `<record>` or `<field>` element is malformed.
    MalformedElement(&'static str),
}

impl std::fmt::Display for ExtractError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExtractError::MissingResultsElement => write!(f, "missing <results> element"),
            ExtractError::BadAttribute(a) => write!(f, "bad or missing attribute {a:?}"),
            ExtractError::MalformedElement(e) => write!(f, "malformed element {e:?}"),
        }
    }
}

impl std::error::Error for ExtractError {}

/// Parses a template-generated HTML result page (the `dwc-server::html`
/// wrapper): a `#summary` line carrying the page index and optional total, a
/// repeated `div.item` block per record with `span.f` fields, and an `#next`
/// marker on non-final pages.
///
/// This is the "structured data extraction from template-generated result
/// pages" step the paper's §6 cites as the orthogonal companion problem; the
/// wrapper here is known rather than induced, but the crawler-side pipeline
/// (HTML → records) is exercised end-to-end.
pub fn parse_html_page(html: &str) -> Result<ExtractedPage, ExtractError> {
    let summary_start =
        html.find("<div id=\"summary\">").ok_or(ExtractError::MissingResultsElement)?
            + "<div id=\"summary\">".len();
    let summary_end =
        html[summary_start..].find("</div>").ok_or(ExtractError::MissingResultsElement)?
            + summary_start;
    let summary = &html[summary_start..summary_end];
    let page_index: usize = summary
        .strip_prefix("page ")
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse().ok())
        .ok_or(ExtractError::BadAttribute("page"))?;
    let total_matches = match summary.find("— ") {
        Some(pos) => Some(
            summary[pos + "— ".len()..]
                .split(' ')
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(ExtractError::BadAttribute("total"))?,
        ),
        None => None,
    };
    let has_more = html.contains("<a id=\"next\"");
    let mut records = Vec::new();
    let mut rest = &html[summary_end..];
    while let Some(item_start) = rest.find("<div class=\"item\" id=\"item-") {
        let key_start = item_start + "<div class=\"item\" id=\"item-".len();
        let key_end =
            rest[key_start..].find('"').ok_or(ExtractError::MalformedElement("item"))? + key_start;
        let key: u64 =
            rest[key_start..key_end].parse().map_err(|_| ExtractError::BadAttribute("key"))?;
        let body_start =
            rest[key_end..].find('>').ok_or(ExtractError::MalformedElement("item"))? + key_end + 1;
        let body_end =
            rest[body_start..].find("</div>").ok_or(ExtractError::MalformedElement("item"))?
                + body_start;
        let mut fields = Vec::new();
        let mut item_body = &rest[body_start..body_end];
        while let Some(f_start) = item_body.find("<span class=\"f\" title=\"") {
            let attr_start = f_start + "<span class=\"f\" title=\"".len();
            let attr_end =
                item_body[attr_start..].find('"').ok_or(ExtractError::MalformedElement("field"))?
                    + attr_start;
            let val_start =
                item_body[attr_end..].find('>').ok_or(ExtractError::MalformedElement("field"))?
                    + attr_end
                    + 1;
            let val_end = item_body[val_start..]
                .find("</span>")
                .ok_or(ExtractError::MalformedElement("field"))?
                + val_start;
            fields.push((
                unescape_xml(&item_body[attr_start..attr_end]),
                unescape_xml(&item_body[val_start..val_end]),
            ));
            item_body = &item_body[val_end + "</span>".len()..];
        }
        records.push(ExtractedRecord { key, fields });
        rest = &rest[body_end + "</div>".len()..];
    }
    require_close(rest, HTML_CLOSE)?;
    Ok(ExtractedPage { page_index, total_matches, has_more, records })
}

/// Zero-copy flavor of [`parse_html_page`]: the same scanner and the same
/// rejections, but field names/values are `Cow` slices into `html`,
/// allocating only where an entity needs unescaping.
pub fn parse_html_page_ref(html: &str) -> Result<ExtractedPageRef<'_>, ExtractError> {
    let summary_start =
        html.find("<div id=\"summary\">").ok_or(ExtractError::MissingResultsElement)?
            + "<div id=\"summary\">".len();
    let summary_end =
        html[summary_start..].find("</div>").ok_or(ExtractError::MissingResultsElement)?
            + summary_start;
    let summary = &html[summary_start..summary_end];
    let page_index: usize = summary
        .strip_prefix("page ")
        .and_then(|s| s.split(' ').next())
        .and_then(|s| s.parse().ok())
        .ok_or(ExtractError::BadAttribute("page"))?;
    let total_matches = match summary.find("— ") {
        Some(pos) => Some(
            summary[pos + "— ".len()..]
                .split(' ')
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or(ExtractError::BadAttribute("total"))?,
        ),
        None => None,
    };
    let has_more = html.contains("<a id=\"next\"");
    let mut records = Vec::new();
    let mut rest = &html[summary_end..];
    while let Some(item_start) = rest.find("<div class=\"item\" id=\"item-") {
        let key_start = item_start + "<div class=\"item\" id=\"item-".len();
        let key_end =
            rest[key_start..].find('"').ok_or(ExtractError::MalformedElement("item"))? + key_start;
        let key: u64 =
            rest[key_start..key_end].parse().map_err(|_| ExtractError::BadAttribute("key"))?;
        let body_start =
            rest[key_end..].find('>').ok_or(ExtractError::MalformedElement("item"))? + key_end + 1;
        let body_end =
            rest[body_start..].find("</div>").ok_or(ExtractError::MalformedElement("item"))?
                + body_start;
        let mut fields = Vec::new();
        let mut item_body = &rest[body_start..body_end];
        while let Some(f_start) = item_body.find("<span class=\"f\" title=\"") {
            let attr_start = f_start + "<span class=\"f\" title=\"".len();
            let attr_end =
                item_body[attr_start..].find('"').ok_or(ExtractError::MalformedElement("field"))?
                    + attr_start;
            let val_start =
                item_body[attr_end..].find('>').ok_or(ExtractError::MalformedElement("field"))?
                    + attr_end
                    + 1;
            let val_end = item_body[val_start..]
                .find("</span>")
                .ok_or(ExtractError::MalformedElement("field"))?
                + val_start;
            fields.push((
                unescape_xml_cow(&item_body[attr_start..attr_end]),
                unescape_xml_cow(&item_body[val_start..val_end]),
            ));
            item_body = &item_body[val_end + "</span>".len()..];
        }
        records.push(ExtractedRecordRef { key, fields });
        rest = &rest[body_end + "</div>".len()..];
    }
    require_close(rest, HTML_CLOSE)?;
    Ok(ExtractedPageRef { page_index, total_matches, has_more, records })
}

/// The closing tag of an XML wire page.
const XML_CLOSE: &str = "</results>";
/// The closing tags of an HTML result page.
const HTML_CLOSE: &str = "</body></html>";

/// Rejects a page cut before its closing tag: `tail` is the document after
/// its last record, so a missing `close` means records may have been lost
/// (and, on HTML pages, the `#next` marker with them).
fn require_close(tail: &str, close: &'static str) -> Result<(), ExtractError> {
    if tail.contains(close) {
        Ok(())
    } else {
        Err(ExtractError::MalformedElement(close))
    }
}

/// Reads the value of `name="..."` inside an element's attribute area.
/// `needle` must be the literal `name=\"` prefix — passing it pre-built keeps
/// this allocation-free on the per-field hot path.
fn attr_value<'a>(tag: &'a str, needle: &str) -> Option<&'a str> {
    let start = tag.find(needle)? + needle.len();
    let end = tag[start..].find('"')? + start;
    Some(&tag[start..end])
}

/// Parses one result page in the wire format.
pub fn parse_page(xml: &str) -> Result<ExtractedPage, ExtractError> {
    let xml = xml.trim_start();
    let rest = xml.strip_prefix("<results").ok_or(ExtractError::MissingResultsElement)?;
    let header_end = rest.find('>').ok_or(ExtractError::MissingResultsElement)?;
    let header = &rest[..header_end];
    let page_index: usize = attr_value(header, "page=\"")
        .and_then(|s| s.parse().ok())
        .ok_or(ExtractError::BadAttribute("page"))?;
    let has_more = match attr_value(header, "more=\"") {
        Some("true") => true,
        Some("false") => false,
        _ => return Err(ExtractError::BadAttribute("more")),
    };
    let total_matches = match attr_value(header, "total=\"") {
        Some(s) => Some(s.parse().map_err(|_| ExtractError::BadAttribute("total"))?),
        None => None,
    };
    let mut body = &rest[header_end + 1..];
    let mut records = Vec::new();
    while let Some(rec_start) = body.find("<record") {
        let rec_rest = &body[rec_start + "<record".len()..];
        let rec_header_end = rec_rest.find('>').ok_or(ExtractError::MalformedElement("record"))?;
        let key: u64 = attr_value(&rec_rest[..rec_header_end], "key=\"")
            .and_then(|s| s.parse().ok())
            .ok_or(ExtractError::BadAttribute("key"))?;
        let rec_body_all = &rec_rest[rec_header_end + 1..];
        let rec_end =
            rec_body_all.find("</record>").ok_or(ExtractError::MalformedElement("record"))?;
        let mut rec_body = &rec_body_all[..rec_end];
        let mut fields = Vec::new();
        while let Some(f_start) = rec_body.find("<field") {
            let f_rest = &rec_body[f_start + "<field".len()..];
            let f_header_end = f_rest.find('>').ok_or(ExtractError::MalformedElement("field"))?;
            let attr = attr_value(&f_rest[..f_header_end], "attr=\"")
                .ok_or(ExtractError::BadAttribute("attr"))?;
            let f_body_all = &f_rest[f_header_end + 1..];
            let f_end =
                f_body_all.find("</field>").ok_or(ExtractError::MalformedElement("field"))?;
            fields.push((unescape_xml(attr), unescape_xml(&f_body_all[..f_end])));
            rec_body = &f_body_all[f_end + "</field>".len()..];
        }
        records.push(ExtractedRecord { key, fields });
        body = &rec_body_all[rec_end + "</record>".len()..];
    }
    require_close(body, XML_CLOSE)?;
    Ok(ExtractedPage { page_index, total_matches, has_more, records })
}

/// Reads a `name="value"` pair the serializer emits as ` name="` directly at
/// the front of `s` (the only form `dwc-server::wire` produces). Returns the
/// raw value slice and the text after the closing quote. Attribute values are
/// escaped on the wire, so the next `"` always terminates the value.
fn leading_quoted<'a>(s: &'a str, needle: &str) -> Option<(&'a str, &'a str)> {
    let v = s.strip_prefix(needle)?;
    let end = v.find('"')?;
    Some((&v[..end], &v[end + 1..]))
}

/// Zero-copy flavor of [`parse_page`]: same grammar and rejections, but every
/// attribute name and value is a `Cow` slice into `xml`, and the scanner is
/// built for the hot path. Instead of repeated substring searches (whose
/// per-call setup dominates on short elements), it rides two invariants of the
/// wire serializer: element content is escaped, so the next `<` after an open
/// tag is always the closing tag; and attributes are emitted in one canonical
/// spelling (`<record key="..">`, `<field attr="..">`). The only allocations
/// left on a well-formed page are the record/field `Vec`s and any string that
/// actually contains an `&` entity.
pub fn parse_page_ref(xml: &str) -> Result<ExtractedPageRef<'_>, ExtractError> {
    let xml = xml.trim_start();
    let rest = xml.strip_prefix("<results").ok_or(ExtractError::MissingResultsElement)?;
    let header_end = rest.find('>').ok_or(ExtractError::MissingResultsElement)?;
    let header = &rest[..header_end];
    let page_index: usize = attr_value(header, "page=\"")
        .and_then(|s| s.parse().ok())
        .ok_or(ExtractError::BadAttribute("page"))?;
    let has_more = match attr_value(header, "more=\"") {
        Some("true") => true,
        Some("false") => false,
        _ => return Err(ExtractError::BadAttribute("more")),
    };
    let total_matches = match attr_value(header, "total=\"") {
        Some(s) => Some(s.parse().map_err(|_| ExtractError::BadAttribute("total"))?),
        None => None,
    };
    let mut cur = &rest[header_end + 1..];
    let mut records = Vec::new();
    // Whether a `</results>` follows the last record seen so far.
    let mut closed = false;
    'scan: while let Some(lt) = cur.find('<') {
        let tag = &cur[lt..];
        let Some(rec_hdr) = tag.strip_prefix("<record") else {
            // Not a record ("</results>" or stray text): skip past the `<`.
            closed |= tag.starts_with(XML_CLOSE);
            cur = &tag[1..];
            continue;
        };
        closed = false;
        let (key_str, mut rec_body) = leading_quoted(rec_hdr, " key=\"")
            .and_then(|(k, after)| Some((k, after.strip_prefix('>')?)))
            .ok_or(ExtractError::BadAttribute("key"))?;
        let key: u64 = key_str.parse().map_err(|_| ExtractError::BadAttribute("key"))?;
        let mut fields = Vec::new();
        loop {
            let flt = rec_body.find('<').ok_or(ExtractError::MalformedElement("record"))?;
            let ftag = &rec_body[flt..];
            if let Some(f_hdr) = ftag.strip_prefix("<field") {
                let (attr, val_area) = leading_quoted(f_hdr, " attr=\"")
                    .and_then(|(a, after)| Some((a, after.strip_prefix('>')?)))
                    .ok_or(ExtractError::BadAttribute("attr"))?;
                // Content is escaped, so this `<` is the closing tag — or the
                // element never closes and the page is damaged.
                let val_end = val_area.find('<').ok_or(ExtractError::MalformedElement("field"))?;
                if !val_area[val_end..].starts_with("</field>") {
                    return Err(ExtractError::MalformedElement("field"));
                }
                fields.push((unescape_xml_cow(attr), unescape_xml_cow(&val_area[..val_end])));
                rec_body = &val_area[val_end + "</field>".len()..];
            } else if let Some(after) = ftag.strip_prefix("</record>") {
                records.push(ExtractedRecordRef { key, fields });
                cur = after;
                continue 'scan;
            } else {
                return Err(ExtractError::MalformedElement("record"));
            }
        }
    }
    if !closed {
        return Err(ExtractError::MalformedElement(XML_CLOSE));
    }
    Ok(ExtractedPageRef { page_index, total_matches, has_more, records })
}

/// Serializes an extracted page back to the XML wire format — the crawler-side
/// inverse of [`parse_page`]. Round-trip exact for any page (names and values
/// are XML-escaped).
///
/// Handy for recording crawls and for feeding the parsers test pages.
pub fn page_to_wire(page: &ExtractedPage) -> String {
    use dwc_server::wire::escape_xml;
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + page.records.len() * 128);
    let _ = write!(out, "<results page=\"{}\" more=\"{}\"", page.page_index, page.has_more);
    if let Some(total) = page.total_matches {
        let _ = write!(out, " total=\"{total}\"");
    }
    out.push_str(">\n");
    for rec in &page.records {
        let _ = writeln!(out, "  <record key=\"{}\">", rec.key);
        for (attr, value) in &rec.fields {
            let _ = writeln!(
                out,
                "    <field attr=\"{}\">{}</field>",
                escape_xml(attr),
                escape_xml(value)
            );
        }
        out.push_str("  </record>\n");
    }
    out.push_str("</results>\n");
    out
}

/// Re-encodes a borrowed [`ExtractedPageRef`] into the XML wire format,
/// byte-identical to [`page_to_wire`] on the equivalent owned page. This is
/// the serving-tier frame encoder: a [`crate::serve::SourceService`] worker
/// visits the inner source's page zero-copy, encodes the view straight off
/// the borrow, and ships the frame — no owned [`ExtractedPage`] detour.
pub fn page_ref_to_wire(page: &ExtractedPageRef<'_>) -> String {
    use dwc_server::wire::escape_xml;
    use std::fmt::Write as _;
    let mut out = String::with_capacity(64 + page.records.len() * 128);
    let _ = write!(out, "<results page=\"{}\" more=\"{}\"", page.page_index, page.has_more);
    if let Some(total) = page.total_matches {
        let _ = write!(out, " total=\"{total}\"");
    }
    out.push_str(">\n");
    for rec in &page.records {
        let _ = writeln!(out, "  <record key=\"{}\">", rec.key);
        for (attr, value) in &rec.fields {
            let _ = writeln!(
                out,
                "    <field attr=\"{}\">{}</field>",
                escape_xml(attr),
                escape_xml(value)
            );
        }
        out.push_str("  </record>\n");
    }
    out.push_str("</results>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwc_model::fixtures::figure1_table;
    use dwc_model::AttrId;
    use dwc_server::wire::page_to_xml;
    use dwc_server::{InterfaceSpec, Query, WebDbServer};

    fn roundtrip_page() -> (ExtractedPage, usize) {
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 2);
        let s = WebDbServer::new(t, spec);
        let a2 = s.table().interner().get(AttrId(0), "a2").unwrap();
        let page = s.query_page(&Query::Value(a2), 0).unwrap();
        let xml = page_to_xml(&page, s.table());
        (parse_page(&xml).unwrap(), page.records.len())
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let (parsed, n) = roundtrip_page();
        assert_eq!(parsed.page_index, 0);
        assert_eq!(parsed.total_matches, Some(3));
        assert!(parsed.has_more);
        assert_eq!(parsed.records.len(), n);
        let r0 = &parsed.records[0];
        assert!(r0.fields.iter().any(|(a, v)| a == "A" && v == "a2"));
        assert_eq!(r0.fields.len(), 3);
    }

    #[test]
    fn roundtrip_with_escaped_characters() {
        use dwc_model::{AttrSpec, Schema, UniversalTable};
        let schema = Schema::new(vec![AttrSpec::queriable("T&C")]);
        let mut t = UniversalTable::new(schema);
        t.push_record_strs([(AttrId(0), "a<b>&\"c\"")]);
        let spec = InterfaceSpec::permissive(t.schema(), 10);
        let s = WebDbServer::new(t, spec);
        let q = Query::ByString { attr: "T&C".into(), value: "a<b>&\"c\"".into() };
        let page = s.query_page(&q, 0).unwrap();
        let xml = page_to_xml(&page, s.table());
        let parsed = parse_page(&xml).unwrap();
        assert_eq!(parsed.records[0].fields[0], ("T&C".to_string(), "a<b>&\"c\"".to_string()));
    }

    #[test]
    fn crawler_side_serializer_roundtrips() {
        let (page, _) = roundtrip_page();
        let wire = page_to_wire(&page);
        assert_eq!(parse_page(&wire).unwrap(), page);
        let nasty = ExtractedPage {
            page_index: 2,
            total_matches: None,
            has_more: true,
            records: vec![ExtractedRecord {
                key: 9,
                fields: vec![("T&C".into(), "a<b>&\"c\"".into())],
            }],
        };
        assert_eq!(parse_page(&page_to_wire(&nasty)).unwrap(), nasty);
    }

    #[test]
    fn empty_page_parses() {
        let parsed =
            parse_page("<results page=\"3\" more=\"false\" total=\"0\">\n</results>\n").unwrap();
        assert_eq!(parsed.page_index, 3);
        assert!(!parsed.has_more);
        assert_eq!(parsed.total_matches, Some(0));
        assert!(parsed.records.is_empty());
    }

    #[test]
    fn total_is_optional() {
        let parsed = parse_page("<results page=\"0\" more=\"false\">\n</results>\n").unwrap();
        assert_eq!(parsed.total_matches, None);
    }

    #[test]
    fn malformed_documents_rejected() {
        assert_eq!(parse_page("<html>"), Err(ExtractError::MissingResultsElement));
        assert_eq!(
            parse_page("<results more=\"false\"></results>"),
            Err(ExtractError::BadAttribute("page"))
        );
        assert_eq!(
            parse_page("<results page=\"0\" more=\"maybe\"></results>"),
            Err(ExtractError::BadAttribute("more"))
        );
        assert_eq!(
            parse_page("<results page=\"0\" more=\"false\"><record key=\"1\">"),
            Err(ExtractError::MalformedElement("record"))
        );
        assert_eq!(
            parse_page("<results page=\"0\" more=\"false\"><record key=\"x\"></record></results>"),
            Err(ExtractError::BadAttribute("key"))
        );
    }

    #[test]
    fn html_roundtrip_matches_xml_roundtrip() {
        use dwc_server::html::page_to_html;
        let t = figure1_table();
        let spec = InterfaceSpec::permissive(t.schema(), 2);
        let s = WebDbServer::new(t, spec);
        let a2 = s.table().interner().get(AttrId(0), "a2").unwrap();
        let page = s.query_page(&Query::Value(a2), 0).unwrap();
        let from_xml = parse_page(&page_to_xml(&page, s.table())).unwrap();
        let from_html = parse_html_page(&page_to_html(&page, s.table())).unwrap();
        assert_eq!(from_xml, from_html, "both wrappers extract the same records");
    }

    #[test]
    fn html_handles_empty_and_no_total_pages() {
        let doc = "<html><body>\n<div id=\"summary\">page 3 of results</div>\n</body></html>\n";
        let parsed = parse_html_page(doc).unwrap();
        assert_eq!(parsed.page_index, 3);
        assert_eq!(parsed.total_matches, None);
        assert!(!parsed.has_more);
        assert!(parsed.records.is_empty());
    }

    #[test]
    fn html_escaped_values_roundtrip() {
        use dwc_model::{AttrSpec, Schema, UniversalTable};
        use dwc_server::html::page_to_html;
        let schema = Schema::new(vec![AttrSpec::queriable("T&C")]);
        let mut t = UniversalTable::new(schema);
        t.push_record_strs([(AttrId(0), "a<b> & \"c\"")]);
        let spec = InterfaceSpec::permissive(t.schema(), 10);
        let s = WebDbServer::new(t, spec);
        let q = Query::ByString { attr: "T&C".into(), value: "a<b> & \"c\"".into() };
        let page = s.query_page(&q, 0).unwrap();
        let parsed = parse_html_page(&page_to_html(&page, s.table())).unwrap();
        assert_eq!(parsed.records[0].fields[0], ("T&C".to_string(), "a<b> & \"c\"".to_string()));
    }

    #[test]
    fn html_malformed_documents_rejected() {
        assert_eq!(parse_html_page("<html></html>"), Err(ExtractError::MissingResultsElement));
        assert_eq!(
            parse_html_page("<div id=\"summary\">nonsense</div>"),
            Err(ExtractError::BadAttribute("page"))
        );
        let bad_key =
            "<div id=\"summary\">page 0 of results</div><div class=\"item\" id=\"item-xyz\"></div>";
        assert_eq!(parse_html_page(bad_key), Err(ExtractError::BadAttribute("key")));
    }

    #[test]
    fn field_without_close_is_rejected() {
        let doc = "<results page=\"0\" more=\"false\"><record key=\"1\"><field attr=\"A\">oops</record></results>";
        assert_eq!(parse_page(doc), Err(ExtractError::MalformedElement("field")));
        assert_eq!(parse_page_ref(doc).unwrap_err(), ExtractError::MalformedElement("field"));
    }

    #[test]
    fn zero_copy_parser_agrees_with_owned_on_fixtures() {
        let (page, _) = roundtrip_page();
        let wire = page_to_wire(&page);
        let by_ref = parse_page_ref(&wire).unwrap();
        assert_eq!(by_ref.to_owned_page(), parse_page(&wire).unwrap());
        // No field in the figure-1 fixture needs unescaping, so every slice
        // borrows straight from the wire buffer.
        for rec in &by_ref.records {
            for (a, v) in &rec.fields {
                assert!(matches!(a, Cow::Borrowed(_)), "attr {a:?} should borrow");
                assert!(matches!(v, Cow::Borrowed(_)), "value {v:?} should borrow");
            }
        }
    }

    #[test]
    fn zero_copy_allocates_only_where_escapes_demand_it() {
        let nasty = ExtractedPage {
            page_index: 1,
            total_matches: Some(2),
            has_more: false,
            records: vec![ExtractedRecord {
                key: 7,
                fields: vec![
                    ("T&C".into(), "a<b>&\"c\"".into()),
                    ("Plain".into(), "clean value".into()),
                ],
            }],
        };
        let wire = page_to_wire(&nasty);
        let by_ref = parse_page_ref(&wire).unwrap();
        assert_eq!(by_ref.to_owned_page(), nasty);
        let fields = &by_ref.records[0].fields;
        assert!(matches!(fields[0].0, Cow::Owned(_)), "escaped attr must own");
        assert!(matches!(fields[0].1, Cow::Owned(_)), "escaped value must own");
        assert!(matches!(fields[1].0, Cow::Borrowed(_)), "clean attr borrows");
        assert!(matches!(fields[1].1, Cow::Borrowed(_)), "clean value borrows");
    }

    #[test]
    fn zero_copy_html_parser_agrees_with_owned() {
        use dwc_model::{AttrSpec, Schema, UniversalTable};
        use dwc_server::html::page_to_html;
        let schema = Schema::new(vec![AttrSpec::queriable("T&C")]);
        let mut t = UniversalTable::new(schema);
        t.push_record_strs([(AttrId(0), "a<b> & \"c\"")]);
        let spec = InterfaceSpec::permissive(t.schema(), 10);
        let s = WebDbServer::new(t, spec);
        let q = Query::ByString { attr: "T&C".into(), value: "a<b> & \"c\"".into() };
        let page = s.query_page(&q, 0).unwrap();
        let html = page_to_html(&page, s.table());
        let by_ref = parse_html_page_ref(&html).unwrap();
        assert_eq!(by_ref.to_owned_page(), parse_html_page(&html).unwrap());
    }

    #[test]
    fn borrowed_view_roundtrips_an_owned_page() {
        let (page, _) = roundtrip_page();
        let view = ExtractedPageRef::borrowed(&page);
        assert_eq!(view.to_owned_page(), page);
    }
}
