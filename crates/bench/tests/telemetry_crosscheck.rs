//! Cross-check: span-derived per-category totals agree with the simulator's
//! own attribution (the Figure-11 data source).
//!
//! The telemetry tracer attributes every charge to the innermost open span,
//! so summing one category across all spans (plus any orphan charges) must
//! reproduce `SimCore`'s attribution array exactly. This test runs Figure
//! 11's own measurement (`fig11::breakdown_instrumented`: CDN fixture,
//! warmup, telemetry attached at the attribution reset), scaled down, per
//! serialization system and requires agreement within 1% per category —
//! and that (almost) nothing lands outside a span.

use cf_bench::experiments::fig11::breakdown_instrumented;
use cf_sim::cost::Category;

use cf_kv::server::SerKind;

fn crosscheck(kind: SerKind) {
    let (breakdown, tele) = breakdown_instrumented(kind, 200, 400);
    let spans = tele.span_cat_totals();
    let orphans = tele.orphan_cat_totals();
    let attr = &breakdown.attribution;
    let mut covered = 0.0;
    for cat in Category::all() {
        let expected = attr.get(cat);
        let got = spans[cat.index()] + orphans[cat.index()];
        let tolerance = (expected * 0.01).max(1e-6);
        assert!(
            (got - expected).abs() <= tolerance,
            "{kind:?}/{}: span-derived {got:.1} ns vs attribution {expected:.1} ns",
            cat.label(),
        );
        covered += spans[cat.index()];
    }
    // Every request-handling charge should land inside a span: the orphan
    // share of total attributed time must be negligible.
    let orphan_total: f64 = orphans.iter().sum();
    assert!(
        orphan_total <= attr.total() * 0.01,
        "{kind:?}: {orphan_total:.1} ns of {:.1} ns charged outside spans",
        attr.total(),
    );
    assert!(covered > 0.0, "{kind:?}: no charges observed in spans");
}

#[test]
fn cornflakes_span_totals_match_attribution() {
    crosscheck(SerKind::Cornflakes);
}

#[test]
fn protobuf_span_totals_match_attribution() {
    crosscheck(SerKind::Protobuf);
}

#[test]
fn flatbuffers_span_totals_match_attribution() {
    crosscheck(SerKind::FlatBuffers);
}

#[test]
fn capnproto_span_totals_match_attribution() {
    crosscheck(SerKind::CapnProto);
}
