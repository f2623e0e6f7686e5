//! Turns the spans of traced trials into per-layer metrics, and checks
//! that they reconcile with the op times they sit in.

use crate::seams::{Layer, Role, Span};
use crate::stats::{mean, percentile};
use std::collections::HashMap;

/// Request kinds whose client-minus-handler overhead is reported.
pub const OVERHEAD_KINDS: [&str; 9] = [
    "PutChunk",
    "GetChunkRange",
    "MetaPutBatch",
    "MetaGetBatch",
    "VmTicket",
    "VmTicketAppend",
    "VmPublish",
    "VmIsPublished",
    "VmLatest",
];

/// Per-op time split, summed over one op kind.
#[derive(Debug, Default)]
pub struct Reconciliation {
    /// Ops of this kind.
    pub ops: u64,
    /// Total op time, ns.
    pub op_ns: u64,
    /// Op time no seam span covers, ns.
    pub core_self_ns: u64,
    /// Self time per client-side seam layer, ns.
    pub layer_self_ns: HashMap<Layer, u64>,
    /// Op time the self times leave unaccounted for (absolute), ns.
    pub unattributed_ns: u64,
}

/// Everything the traced trials showed.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Write-op and read-op reconciliations.
    pub writes: Reconciliation,
    /// See [`LayerReport::writes`].
    pub reads: Reconciliation,
    /// Mean client-minus-handler time per request kind, µs, for every
    /// kind seen.
    pub overhead_by_kind: Vec<(&'static str, f64, u64)>,
    /// Spans whose children cover more than the span itself.
    pub double_counted: Vec<String>,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Analyzes `spans` (any number of traced trials; ids are unique).
pub fn analyze(spans: &[Span]) -> LayerReport {
    let mut report = LayerReport::default();
    let op_kind: HashMap<u64, &'static str> = spans
        .iter()
        .filter(|s| s.layer == Layer::Op)
        .map(|s| (s.id, s.name))
        .collect();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let in_kind = |s: &Span, kind: &str| op_kind.get(&s.op).is_some_and(|k| *k == kind);

    // Reconciliation: each span's self time is its duration minus its
    // children's; the op's self time is what core does between seams.
    for s in spans {
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        if children > s.dur_ns() {
            report.double_counted.push(format!(
                "{:?} span {} ({}) lasts {} ns but its children cover {} ns",
                s.layer,
                s.id,
                s.name,
                s.dur_ns(),
                children
            ));
        }
    }
    let self_ns = |s: &Span| {
        s.dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
    };
    let mut per_op_self: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.op != 0 && s.layer != Layer::Op) {
        *per_op_self.entry(s.op).or_default() += self_ns(s);
    }
    for s in spans.iter().filter(|s| s.layer == Layer::Op) {
        let rec = if s.name == "write" {
            &mut report.writes
        } else {
            &mut report.reads
        };
        let core = self_ns(s);
        let seams = per_op_self.get(&s.id).copied().unwrap_or(0);
        rec.ops += 1;
        rec.op_ns += s.dur_ns();
        rec.core_self_ns += core;
        rec.unattributed_ns += (s.dur_ns() as i64 - (core + seams) as i64).unsigned_abs();
    }
    for s in spans.iter().filter(|s| s.op != 0 && s.layer != Layer::Op) {
        let rec = if in_kind(s, "write") {
            &mut report.writes
        } else {
            &mut report.reads
        };
        *rec.layer_self_ns.entry(s.layer).or_default() += self_ns(s);
    }

    let writes = report.writes.ops as f64;
    let reads = report.reads.ops as f64;
    let write_ns = report.writes.op_ns as f64;
    let read_ns = report.reads.op_ns as f64;
    let durations = |pred: &dyn Fn(&Span) -> bool| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| pred(s))
            .map(|s| us(s.dur_ns()))
            .collect()
    };
    let count = |pred: &dyn Fn(&Span) -> bool| spans.iter().filter(|s| pred(s)).count() as f64;
    let sum = |pred: &dyn Fn(&Span) -> bool, f: &dyn Fn(&Span) -> u64| -> f64 {
        spans.iter().filter(|s| pred(s)).map(f).sum::<u64>() as f64
    };
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();

    // atomio-rpc, per role.
    for role in Role::ALL {
        let r = role.name();
        let client = |s: &Span| s.layer == Layer::Transport && s.role == Some(role) && s.op != 0;
        let handler = |s: &Span| s.layer == Layer::Service && s.role == Some(role);
        m.push((
            format!("rpc.{r}.calls_per_write"),
            ratio(count(&|s| client(s) && in_kind(s, "write")), writes),
            "count",
        ));
        m.push((
            format!("rpc.{r}.calls_per_read"),
            ratio(count(&|s| client(s) && in_kind(s, "read")), reads),
            "count",
        ));
        let client_us = durations(&client);
        let handler_us = durations(&handler);
        m.push((
            format!("rpc.{r}.client_us_p50"),
            percentile(&client_us, 50.0),
            "us",
        ));
        m.push((
            format!("rpc.{r}.handler_us_p50"),
            percentile(&handler_us, 50.0),
            "us",
        ));
        let overhead = if client_us.is_empty() {
            0.0
        } else {
            mean(&client_us) - mean(&handler_us)
        };
        m.push((format!("rpc.{r}.overhead_us"), overhead, "us"));
    }
    let mut kinds: Vec<&'static str> = spans
        .iter()
        .filter(|s| s.layer == Layer::Transport && s.op != 0)
        .map(|s| s.name)
        .collect();
    kinds.sort_unstable();
    kinds.dedup();
    for kind in kinds {
        let client = durations(&|s| s.layer == Layer::Transport && s.op != 0 && s.name == kind);
        let handler = durations(&|s| s.layer == Layer::Service && s.name == kind);
        report
            .overhead_by_kind
            .push((kind, mean(&client) - mean(&handler), client.len() as u64));
    }
    for kind in OVERHEAD_KINDS {
        let value = report
            .overhead_by_kind
            .iter()
            .find(|(k, _, _)| *k == kind)
            .map_or(0.0, |(_, v, _)| *v);
        m.push((format!("rpc.overhead_us.{kind}"), value, "us"));
    }
    m.push((
        "rpc.failed_calls".into(),
        count(&|s| s.layer == Layer::Transport && !s.ok),
        "count",
    ));

    // atomio-version.
    let oracle = |name: &'static str| move |s: &Span| s.layer == Layer::Oracle && s.name == name;
    m.push((
        "version.ticket_us_p50".into(),
        percentile(&durations(&oracle("ticket")), 50.0),
        "us",
    ));
    m.push((
        "version.publish_us_p50".into(),
        percentile(&durations(&oracle("publish")), 50.0),
        "us",
    ));
    let waits = count(&oracle("wait_published"));
    m.push((
        "version.wait_published_share".into(),
        ratio(
            sum(
                &|s| oracle("wait_published")(s) && in_kind(s, "write"),
                &|s| s.dur_ns(),
            ),
            write_ns,
        ),
        "share",
    ));
    m.push((
        "version.polls_per_wait".into(),
        ratio(
            count(&|s| s.layer == Layer::Transport && s.name == "VmIsPublished" && s.op != 0),
            waits,
        ),
        "count",
    ));
    m.push((
        "version.latest_us_p50".into(),
        percentile(&durations(&oracle("latest")), 50.0),
        "us",
    ));

    // atomio-meta.
    let node = |name: &'static str| move |s: &Span| s.layer == Layer::Node && s.name == name;
    let put = node("put_batch");
    let get = node("get_batch");
    m.push((
        "meta.put_batch_calls_per_write".into(),
        ratio(count(&|s| put(s) && in_kind(s, "write")), writes),
        "count",
    ));
    m.push((
        "meta.nodes_put_per_write".into(),
        ratio(
            sum(&|s| put(s) && in_kind(s, "write"), &|s| s.items),
            writes,
        ),
        "count",
    ));
    m.push((
        "meta.nodes_got_per_write".into(),
        ratio(
            sum(&|s| get(s) && in_kind(s, "write"), &|s| s.items),
            writes,
        ),
        "count",
    ));
    m.push((
        "meta.put_us_p50".into(),
        percentile(&durations(&put), 50.0),
        "us",
    ));
    m.push((
        "meta.write_share".into(),
        ratio(
            sum(&|s| s.layer == Layer::Node && in_kind(s, "write"), &|s| {
                s.dur_ns()
            }),
            write_ns,
        ),
        "share",
    ));
    m.push((
        "meta.get_batch_calls_per_read".into(),
        ratio(count(&|s| get(s) && in_kind(s, "read")), reads),
        "count",
    ));
    m.push((
        "meta.nodes_got_per_read".into(),
        ratio(sum(&|s| get(s) && in_kind(s, "read"), &|s| s.items), reads),
        "count",
    ));
    m.push((
        "meta.get_us_p50".into(),
        percentile(&durations(&get), 50.0),
        "us",
    ));
    m.push((
        "meta.read_share".into(),
        ratio(
            sum(&|s| s.layer == Layer::Node && in_kind(s, "read"), &|s| {
                s.dur_ns()
            }),
            read_ns,
        ),
        "share",
    ));

    // atomio-provider.
    let cput = |s: &Span| s.layer == Layer::Chunk && s.name == "put";
    let cget = |s: &Span| s.layer == Layer::Chunk && s.name == "get";
    let puts = count(&cput);
    let gets = count(&cget);
    m.push((
        "provider.puts_per_write".into(),
        ratio(count(&|s| cput(s) && in_kind(s, "write")), writes),
        "count",
    ));
    m.push((
        "provider.put_bytes_per_call".into(),
        ratio(sum(&cput, &|s| s.bytes), puts),
        "B",
    ));
    m.push((
        "provider.put_us_p50".into(),
        percentile(&durations(&cput), 50.0),
        "us",
    ));
    m.push((
        "provider.write_share".into(),
        ratio(
            sum(&|s| s.layer == Layer::Chunk && in_kind(s, "write"), &|s| {
                s.dur_ns()
            }),
            write_ns,
        ),
        "share",
    ));
    m.push((
        "provider.gets_per_read".into(),
        ratio(count(&|s| cget(s) && in_kind(s, "read")), reads),
        "count",
    ));
    m.push((
        "provider.get_bytes_per_call".into(),
        ratio(sum(&cget, &|s| s.bytes), gets),
        "B",
    ));
    m.push((
        "provider.get_us_p50".into(),
        percentile(&durations(&cget), 50.0),
        "us",
    ));
    m.push((
        "provider.read_share".into(),
        ratio(
            sum(&|s| s.layer == Layer::Chunk && in_kind(s, "read"), &|s| {
                s.dur_ns()
            }),
            read_ns,
        ),
        "share",
    ));
    m.push((
        "provider.handler_us_p50".into(),
        percentile(
            &durations(&|s| s.layer == Layer::Service && s.role == Some(Role::Provider)),
            50.0,
        ),
        "us",
    ));

    // atomio-core: op time between seams.
    m.push((
        "core.write_self_share".into(),
        ratio(report.writes.core_self_ns as f64, write_ns),
        "share",
    ));
    m.push((
        "core.read_self_share".into(),
        ratio(report.reads.core_self_ns as f64, read_ns),
        "share",
    ));
    m.push((
        "trace.unattributed_share".into(),
        ratio(
            (report.writes.unattributed_ns + report.reads.unattributed_ns) as f64,
            write_ns + read_ns,
        ),
        "share",
    ));
    report.metrics = m;
    report
}
