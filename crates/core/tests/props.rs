//! Property tests for the crawler: checkpoint round-trips, resume
//! equivalence, query-mode set relations, and abortion safety — all over
//! randomly generated databases.

use dwc_core::checkpoint::Checkpoint;
use dwc_core::extract::{
    page_to_wire, parse_html_page, parse_html_page_ref, parse_page, parse_page_ref, ExtractedPage,
    ExtractedRecord,
};
use dwc_core::policy::PolicyKind;
use dwc_core::state::CandStatus;
use dwc_core::{AbortPolicy, CrawlConfig, Crawler, QueryMode};
use dwc_model::{AttrId, AttrSpec, Schema, UniversalTable};
use dwc_server::{InterfaceSpec, Query, RenderFormat, WebDbServer};
use proptest::prelude::*;

/// Every char-boundary prefix of `doc` that stops short of the end of its
/// last `close` tag — a page truncated in flight.
fn cuts_before_close<'a>(doc: &'a str, close: &str) -> Vec<&'a str> {
    let end = doc.rfind(close).expect("document carries its closing tag") + close.len();
    (0..end).filter(|&cut| doc.is_char_boundary(cut)).map(|cut| &doc[..cut]).collect()
}

/// A server-rendered result page — the Figure-1 `A=a2` query, two records
/// per page, so page 0 carries the `#next` marker — is rejected by all four
/// parsers when cut anywhere before its closing tag, instead of parsing with
/// records (or the next-page marker) missing.
#[test]
fn truncated_server_pages_are_rejected() {
    let table = dwc_model::fixtures::figure1_table();
    let server = WebDbServer::new(table.clone(), InterfaceSpec::permissive(table.schema(), 2));
    let query = Query::ByString { attr: "A".into(), value: "a2".into() };
    let xml = server.rendered_page(&query, 0, RenderFormat::Xml).unwrap();
    let html = server.rendered_page(&query, 0, RenderFormat::Html).unwrap();
    assert!(parse_page(xml.text()).unwrap().has_more);
    assert!(parse_html_page(html.text()).unwrap().has_more);
    for cut in cuts_before_close(xml.text(), "</results>") {
        assert!(parse_page(cut).is_err(), "owned XML parser accepted {cut:?}");
        assert!(parse_page_ref(cut).is_err(), "zero-copy XML parser accepted {cut:?}");
    }
    for cut in cuts_before_close(html.text(), "</body></html>") {
        assert!(parse_html_page(cut).is_err(), "owned HTML parser accepted {cut:?}");
        assert!(parse_html_page_ref(cut).is_err(), "zero-copy HTML parser accepted {cut:?}");
    }
}

/// Deterministic companion to `zero_copy_and_owned_parsers_agree`: the exact
/// corpus the extractor's unit tests escape by hand, one field per pairing.
#[test]
fn zero_copy_and_owned_parsers_agree_on_seed_corpus() {
    let corpus =
        ["a<b>&\"c\"", "T&C", "&amp;", "&notanentity;", "&", "clean", "", "'quoted'", "é⟩𝄞"];
    for (i, attr) in corpus.iter().enumerate() {
        for value in &corpus {
            let page = ExtractedPage {
                page_index: i,
                total_matches: Some(corpus.len()),
                has_more: false,
                records: vec![ExtractedRecord {
                    key: i as u64,
                    fields: vec![(attr.to_string(), value.to_string())],
                }],
            };
            let wire = page_to_wire(&page);
            let owned = parse_page(&wire).unwrap();
            let zero_copy = parse_page_ref(&wire).unwrap().to_owned_page();
            assert_eq!(owned, zero_copy, "parsers disagree on {wire}");
            assert_eq!(owned, page, "round-trip must be exact for {wire}");
        }
    }
}

fn schema() -> Schema {
    Schema::new(vec![AttrSpec::queriable("A"), AttrSpec::queriable("B"), AttrSpec::queriable("C")])
}

fn table_from(records: &[Vec<(u16, u8)>]) -> UniversalTable {
    let mut t = UniversalTable::new(schema());
    for rec in records {
        let fields: Vec<(AttrId, String)> =
            rec.iter().map(|&(a, v)| (AttrId(a % 3), format!("v{v}"))).collect();
        t.push_record_strs(fields.iter().map(|(a, s)| (*a, s.as_str())));
    }
    t
}

fn record_strategy() -> impl Strategy<Value = Vec<(u16, u8)>> {
    prop::collection::vec((0u16..3, 0u8..12), 1..=5)
}

fn status_strategy() -> impl Strategy<Value = CandStatus> {
    prop_oneof![
        Just(CandStatus::Undiscovered),
        Just(CandStatus::Frontier),
        Just(CandStatus::Queried),
    ]
}

/// Strings stacked with the characters the checkpoint text format must
/// escape or survive: its own field separator (tab), its escape introducer
/// (%), line breaks that could forge record boundaries, and multi-byte
/// unicode that could break naive byte slicing.
fn adversarial_string() -> impl Strategy<Value = String> {
    let fragment = prop_oneof![
        Just("\t".to_string()),
        Just("%".to_string()),
        Just("\r\n".to_string()),
        Just("\n".to_string()),
        Just("%09".to_string()),
        Just("%%".to_string()),
        Just("é⟩𝄞".to_string()),
        Just("DWC-CHECKPOINT v2 crc=".to_string()),
        ".{0,3}",
    ];
    prop::collection::vec(fragment, 0..6).prop_map(|parts| parts.concat())
}

/// Strings stacked with everything the XML escaping layer must survive:
/// bare entities and entity look-alikes (`&amp;`, `&notanentity`, a lone
/// `&`), the markup characters themselves, quotes, and multi-byte unicode.
/// Seeded with the `"a<b>&\"c\""` corpus the extractor's unit tests use.
fn escape_adversarial_string() -> impl Strategy<Value = String> {
    let fragment = prop_oneof![
        Just("a<b>&\"c\"".to_string()),
        Just("T&C".to_string()),
        Just("&amp;".to_string()),
        Just("&lt;field&gt;".to_string()),
        Just("&notanentity;".to_string()),
        Just("&".to_string()),
        Just("&#38;".to_string()),
        Just("<".to_string()),
        Just(">".to_string()),
        Just("\"".to_string()),
        Just("'".to_string()),
        Just("</field>".to_string()),
        Just("é⟩𝄞".to_string()),
        ".{0,4}",
    ];
    prop::collection::vec(fragment, 0..6).prop_map(|parts| parts.concat())
}

/// An extracted page whose attribute names and values are adversarially
/// escaped strings.
fn page_strategy() -> impl Strategy<Value = ExtractedPage> {
    let field = (escape_adversarial_string(), escape_adversarial_string());
    let record = (any::<u64>(), prop::collection::vec(field, 0..4))
        .prop_map(|(key, fields)| ExtractedRecord { key, fields });
    (
        prop::collection::vec(record, 0..5),
        0usize..100,
        prop::option::of(0usize..10_000),
        any::<bool>(),
    )
        .prop_map(|(records, page_index, total_matches, has_more)| ExtractedPage {
            page_index,
            total_matches,
            has_more,
            records,
        })
}

/// A structurally valid checkpoint over arbitrary value strings.
fn checkpoint_from(values: Vec<(u16, String)>, rounds: u64, queries: u64) -> Checkpoint {
    let n = values.len();
    Checkpoint {
        attr_names: vec!["A".into(), "B".into(), "C".into()],
        attr_queriable: vec![true, true, false],
        page_size: 7,
        keyword_mode: queries.is_multiple_of(2),
        values: values.into_iter().map(|(a, s)| (a % 3, s)).collect(),
        status: (0..n)
            .map(|i| if i.is_multiple_of(2) { CandStatus::Frontier } else { CandStatus::Queried })
            .collect(),
        queried: (0..n as u32).filter(|i| i.is_multiple_of(3)).collect(),
        records: (0..n as u64).map(|k| (k, vec![k as u32])).collect(),
        rounds,
        queries,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Checkpoint text serialization round-trips arbitrary content,
    /// including metacharacters in attribute names and values.
    #[test]
    fn checkpoint_text_roundtrips(
        attr_names in prop::collection::vec(any::<String>(), 1..4),
        value_strs in prop::collection::vec((0u16..3, any::<String>()), 0..20),
        rounds in any::<u64>(),
        queries in any::<u64>(),
        statuses in prop::collection::vec(status_strategy(), 0..20),
        page_size in 1usize..50,
    ) {
        let n = value_strs.len().min(statuses.len());
        let cp = Checkpoint {
            attr_queriable: attr_names.iter().map(|s| s.len().is_multiple_of(2)).collect(),
            attr_names,
            page_size,
            keyword_mode: rounds.is_multiple_of(2),
            values: value_strs[..n].to_vec(),
            status: statuses[..n].to_vec(),
            queried: (0..n as u32).filter(|i| i.is_multiple_of(3)).collect(),
            records: (0..n as u64).map(|k| (k, vec![k as u32 % n.max(1) as u32])).collect(),
            rounds,
            queries,
        };
        let back = Checkpoint::from_text(&cp.to_text()).unwrap();
        prop_assert_eq!(back, cp);
    }

    /// Round-trips survive value strings built specifically to attack the
    /// text format: tabs (the field separator), % (the escape introducer),
    /// CR/LF (record-boundary forgery), unicode, and header look-alikes.
    #[test]
    fn checkpoint_roundtrips_adversarial_strings(
        values in prop::collection::vec((0u16..3, adversarial_string()), 0..12),
        rounds in any::<u64>(),
        queries in any::<u64>(),
    ) {
        let cp = checkpoint_from(values, rounds, queries);
        let back = Checkpoint::from_text(&cp.to_text()).unwrap();
        prop_assert_eq!(back, cp);
    }

    /// A v2 checkpoint truncated at ANY byte — the torn-write shape a crash
    /// leaves behind — must be rejected by the checksum, never half-parsed.
    #[test]
    fn truncation_at_every_byte_is_rejected(
        values in prop::collection::vec((0u16..3, adversarial_string()), 0..8),
        rounds in any::<u64>(),
        queries in any::<u64>(),
    ) {
        let cp = checkpoint_from(values, rounds, queries);
        let text = cp.to_text();
        prop_assert!(Checkpoint::from_text(&text).is_ok());
        for cut in 0..text.len() {
            if !text.is_char_boundary(cut) {
                continue;
            }
            prop_assert!(
                Checkpoint::from_text(&text[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not parse",
                text.len()
            );
        }
    }

    /// Interrupt-at-any-point + resume harvests exactly the same record set
    /// as an uninterrupted crawl (BFS: even the same cost).
    #[test]
    fn resume_equals_uninterrupted(
        records in prop::collection::vec(record_strategy(), 1..25),
        cut_after in 0u64..6,
        seed_val in 0u8..12,
    ) {
        let t = table_from(&records);
        let seed = format!("v{seed_val}");
        let baseline = {
            let server = WebDbServer::new(t.clone(), InterfaceSpec::permissive(t.schema(), 3));
            let mut c = Crawler::new(&server, PolicyKind::Bfs.build(), CrawlConfig::default());
            c.add_seed("B", &seed);
            c.run()
        };
        let resumed = {
            let server = WebDbServer::new(t.clone(), InterfaceSpec::permissive(t.schema(), 3));
            let mut c = Crawler::new(&server, PolicyKind::Bfs.build(), CrawlConfig::default());
            c.add_seed("B", &seed);
            for _ in 0..cut_after {
                if c.step().is_none() {
                    break;
                }
            }
            let cp = Checkpoint::from_text(&c.checkpoint().to_text()).unwrap();
            drop(c);
            let server2 = WebDbServer::new(t.clone(), InterfaceSpec::permissive(t.schema(), 3));
            let c2 = Crawler::resume(&server2, PolicyKind::Bfs.build(), &cp, CrawlConfig::default());
            c2.run()
        };
        prop_assert_eq!(resumed.records, baseline.records);
        prop_assert_eq!(resumed.rounds, baseline.rounds, "BFS resume is cost-exact");
        prop_assert_eq!(resumed.queries, baseline.queries);
    }

    /// The zero-copy wire parser and the legacy owned parser agree on every
    /// page — including adversarially escaped attribute names and values —
    /// and both round-trip the original page exactly.
    #[test]
    fn zero_copy_and_owned_parsers_agree(page in page_strategy()) {
        let wire = page_to_wire(&page);
        let owned = parse_page(&wire).unwrap();
        let zero_copy = parse_page_ref(&wire).unwrap().to_owned_page();
        prop_assert_eq!(&owned, &zero_copy, "parsers disagree on {}", wire);
        prop_assert_eq!(&owned, &page, "wire round-trip must be exact");
    }

    /// A page truncated anywhere before its closing `</results>` tag is
    /// rejected by both wire parsers — never parsed with records missing.
    #[test]
    fn truncated_pages_are_rejected(page in page_strategy()) {
        let wire = page_to_wire(&page);
        for cut in cuts_before_close(&wire, "</results>") {
            prop_assert!(parse_page(cut).is_err(), "owned parser accepted {:?}", cut);
            prop_assert!(parse_page_ref(cut).is_err(), "zero-copy parser accepted {:?}", cut);
        }
    }

    /// Keyword-mode coverage is a superset of structured-mode coverage: any
    /// structured query's matches are contained in the keyword query of the
    /// same string.
    #[test]
    fn keyword_coverage_superset(
        records in prop::collection::vec(record_strategy(), 1..25),
        seed_val in 0u8..12,
    ) {
        let t = table_from(&records);
        let seed = format!("v{seed_val}");
        let run = |mode: QueryMode| {
            let server = WebDbServer::new(t.clone(), InterfaceSpec::permissive(t.schema(), 3));
            let config = CrawlConfig { query_mode: mode, ..Default::default() };
            let mut c = Crawler::new(&server, PolicyKind::Bfs.build(), config);
            c.add_seed("A", &seed);
            c.run().records
        };
        prop_assert!(run(QueryMode::Keyword) >= run(QueryMode::Structured));
    }

    /// The abortion heuristics never reduce the final harvested set when the
    /// crawl runs to frontier exhaustion — aborting a query only skips pages
    /// whose records remain reachable through later queries... except records
    /// reachable ONLY via skipped pages; so instead we assert the safe
    /// property the crawler guarantees: abortion never *increases* cost.
    #[test]
    fn abortion_never_costs_more(
        records in prop::collection::vec(record_strategy(), 1..30),
        seed_val in 0u8..12,
    ) {
        let t = table_from(&records);
        let seed = format!("v{seed_val}");
        let run = |abort: AbortPolicy| {
            let server = WebDbServer::new(t.clone(), InterfaceSpec::permissive(t.schema(), 2));
            let config = CrawlConfig { abort, ..Default::default() };
            let mut c = Crawler::new(&server, PolicyKind::Bfs.build(), config);
            c.add_seed("C", &seed);
            c.run()
        };
        let plain = run(AbortPolicy::never());
        let aborted = run(AbortPolicy::standard());
        prop_assert!(aborted.rounds <= plain.rounds);
    }

    /// Conjunctive-mode coverage never exceeds structured-mode coverage on
    /// the same seeds (each conjunction is an intersection of a structured
    /// query's result).
    #[test]
    fn conjunctive_coverage_subset(
        records in prop::collection::vec(record_strategy(), 1..25),
        seed_val in 0u8..12,
    ) {
        let t = table_from(&records);
        let seed = format!("v{seed_val}");
        let structured = {
            let server = WebDbServer::new(t.clone(), InterfaceSpec::permissive(t.schema(), 3));
            let mut c = Crawler::new(&server, PolicyKind::Bfs.build(), CrawlConfig::default());
            c.add_seed("A", &seed);
            c.run().records
        };
        let conjunctive = {
            let server = WebDbServer::new(t.clone(), InterfaceSpec::permissive(t.schema(), 3));
            let config = CrawlConfig {
                query_mode: QueryMode::Conjunctive { arity: 2 },
                ..Default::default()
            };
            let mut c = Crawler::new(&server, PolicyKind::Bfs.build(), config);
            c.add_seed("A", &seed);
            c.run().records
        };
        prop_assert!(conjunctive <= structured);
    }
}
