//! Self-contained HTML dashboard: stat tiles, per-instance table,
//! attainment sparkline, latency histograms with SLO markers, and a
//! stacked attribution bar — all inline SVG and CSS, zero JavaScript
//! and zero external fetches so it renders in an offline CI artifact
//! viewer exactly as it does locally.

use std::fmt::Write as _;

use distserve_telemetry::{span_flags, LogHistogram, SpanEvent, SpanKind, NO_PARENT};

use crate::bottleneck::BottleneckReport;
use crate::burn::TenantBurnMonitor;

const COLORS: [&str; 9] = [
    "#8da0cb", "#e78ac3", "#66c2a5", "#fc8d62", "#a6d854", "#ffd92f", "#e5c494", "#b3b3b3",
    "#d53e4f",
];

// Escapes for both text nodes and attribute values: labels flow into
// `aria-label="..."` and `<title>` alike, so quotes must be covered or a
// name like `pool "a"` would terminate the attribute early.
fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
        .replace('\'', "&#39;")
}

/// Polyline sparkline of per-bucket attainment (0–100%).
fn attainment_sparkline(report: &BottleneckReport) -> String {
    let (w, h, pad) = (640.0, 80.0, 4.0);
    let series = &report.series;
    if series.is_empty() {
        return String::from("<p class=\"empty\">no windowed data</p>");
    }
    let n = series.len().max(2) as f64;
    let mut points = String::new();
    for (i, b) in series.iter().enumerate() {
        let x = pad + (w - 2.0 * pad) * i as f64 / (n - 1.0);
        let y = pad + (h - 2.0 * pad) * (1.0 - b.attainment);
        let _ = write!(points, "{x:.1},{y:.1} ");
    }
    format!(
        "<svg viewBox=\"0 0 {w:.0} {h:.0}\" width=\"{w:.0}\" height=\"{h:.0}\" \
         role=\"img\" aria-label=\"attainment over time\">\
         <rect width=\"{w:.0}\" height=\"{h:.0}\" fill=\"#f7f7f9\"/>\
         <polyline points=\"{points}\" fill=\"none\" stroke=\"#4c72b0\" stroke-width=\"2\"/>\
         </svg>"
    )
}

/// Vertical-bar histogram with an SLO marker line.
fn histogram_svg(hist: &LogHistogram, slo: f64, label: &str) -> String {
    let (w, h, pad) = (300.0, 90.0, 4.0);
    let bars: Vec<(f64, u64)> = {
        let mut prev = 0u64;
        hist.cumulative()
            .map(|(bound, cum)| {
                let c = cum - prev;
                prev = cum;
                (bound, c)
            })
            .collect()
    };
    let peak = bars.iter().map(|&(_, c)| c).max().unwrap_or(0);
    if peak == 0 {
        return format!("<p class=\"empty\">no {} samples</p>", esc(label));
    }
    let bw = (w - 2.0 * pad) / bars.len() as f64;
    let mut svg = format!(
        "<svg viewBox=\"0 0 {w:.0} {h:.0}\" width=\"{w:.0}\" height=\"{h:.0}\" \
         role=\"img\" aria-label=\"{} histogram\">\
         <rect width=\"{w:.0}\" height=\"{h:.0}\" fill=\"#f7f7f9\"/>",
        esc(label)
    );
    let mut slo_x: Option<f64> = None;
    for (i, &(bound, c)) in bars.iter().enumerate() {
        let x = pad + bw * i as f64;
        if slo_x.is_none() && bound >= slo {
            slo_x = Some(x + bw);
        }
        if c == 0 {
            continue;
        }
        let bh = (h - 2.0 * pad) * c as f64 / peak as f64;
        let _ = write!(
            svg,
            "<rect x=\"{:.1}\" y=\"{:.1}\" width=\"{:.1}\" height=\"{bh:.1}\" \
             fill=\"#4c72b0\"><title>le {bound:.2e}: {c}</title></rect>",
            x,
            h - pad - bh,
            (bw - 1.0).max(1.0),
        );
    }
    if let Some(x) = slo_x {
        let _ = write!(
            svg,
            "<line x1=\"{x:.1}\" y1=\"0\" x2=\"{x:.1}\" y2=\"{h:.0}\" \
             stroke=\"#d53e4f\" stroke-width=\"2\" stroke-dasharray=\"4 2\"/>"
        );
    }
    svg.push_str("</svg>");
    svg
}

/// Horizontal stacked bar of attribution component shares.
fn attribution_bar(report: &BottleneckReport) -> String {
    let entries = report.totals.entries();
    let total: f64 = entries.iter().map(|&(_, v)| v).sum();
    if total <= 0.0 {
        return String::from("<p class=\"empty\">no attributed time</p>");
    }
    let (w, h) = (640.0, 28.0);
    let mut svg = format!(
        "<svg viewBox=\"0 0 {w:.0} {h:.0}\" width=\"{w:.0}\" height=\"{h:.0}\" \
         role=\"img\" aria-label=\"latency attribution\">"
    );
    let mut x = 0.0;
    let mut legend = String::from("<ul class=\"legend\">");
    for (i, &(name, v)) in entries.iter().enumerate() {
        let share = v / total;
        let bw = w * share;
        if bw > 0.1 {
            let _ = write!(
                svg,
                "<rect x=\"{x:.1}\" y=\"0\" width=\"{bw:.1}\" height=\"{h:.0}\" \
                 fill=\"{}\"><title>{}: {v:.2} s ({:.1}%)</title></rect>",
                COLORS[i],
                esc(name),
                share * 100.0
            );
            x += bw;
        }
        if share > 0.001 {
            let _ = write!(
                legend,
                "<li><span class=\"swatch\" style=\"background:{}\"></span>{}: {:.1}%</li>",
                COLORS[i],
                esc(name),
                share * 100.0
            );
        }
    }
    svg.push_str("</svg>");
    legend.push_str("</ul>");
    svg + &legend
}

/// HTML table fragment of per-tenant SLO burn state, worst burn first.
///
/// Pairs with [`crate::TenantBurnMonitor`]: one row per tenant with
/// lifetime counts, fast/slow burn multiples, and the latched alert
/// state — the panel version of the events that arm the router throttle
/// and the replan controller.
#[must_use]
pub fn tenant_panel(monitor: &TenantBurnMonitor) -> String {
    let mut rows: Vec<(u32, crate::BurnReading)> = (0..monitor.tenants() as u32)
        .map(|t| (t, monitor.reading(t)))
        .filter(|(_, r)| r.total > 0)
        .collect();
    if rows.is_empty() {
        return String::from("<p class=\"empty\">no tenant traffic</p>");
    }
    rows.sort_by(|a, b| b.1.fast.total_cmp(&a.1.fast));
    let mut out = String::from(
        "<table class=\"tenants\"><tr><th>tenant</th><th>requests</th><th>missed</th>\
         <th>fast burn</th><th>slow burn</th><th>state</th></tr>",
    );
    for (t, r) in rows {
        let state = if r.alerting {
            "<td class=\"alert\">BURNING</td>"
        } else {
            "<td>ok</td>"
        };
        let _ = write!(
            out,
            "<tr><td>{t}</td><td>{}</td><td>{}</td><td>{:.2}&times;</td>\
             <td>{:.2}&times;</td>{state}</tr>",
            r.total, r.missed, r.fast, r.slow,
        );
    }
    out.push_str("</table>");
    out
}

fn span_color(kind: SpanKind) -> &'static str {
    match kind {
        SpanKind::Request => COLORS[7],
        SpanKind::RouterDecision => COLORS[5],
        SpanKind::PrefillQueue => COLORS[1],
        SpanKind::PrefillExec => COLORS[0],
        SpanKind::KvTransfer => COLORS[3],
        SpanKind::DecodeQueue => COLORS[4],
        SpanKind::DecodeExec => COLORS[2],
        SpanKind::DecodeStep => COLORS[6],
    }
}

/// Inline-SVG waterfall of one kept trace (one row per span, time left
/// to right, root request span on top).
///
/// The HTML sibling of the Perfetto export: embeddable in the dashboard
/// artifact with zero JavaScript. Returns an empty-state paragraph for
/// a rootless or empty trace.
#[must_use]
pub fn trace_waterfall_svg(trace: &[SpanEvent]) -> String {
    let Some(root) = trace.iter().find(|s| s.ctx.parent == NO_PARENT) else {
        return String::from("<p class=\"empty\">no finalized trace</p>");
    };
    let t0 = trace
        .iter()
        .map(|s| s.start_s)
        .fold(f64::INFINITY, f64::min);
    let t1 = trace
        .iter()
        .map(|s| s.end_s)
        .fold(f64::NEG_INFINITY, f64::max);
    let span_total = (t1 - t0).max(1e-9);
    let mut ordered: Vec<&SpanEvent> = trace.iter().collect();
    // Root first, then children by start time.
    ordered.sort_by(|a, b| {
        (a.ctx.parent != NO_PARENT)
            .cmp(&(b.ctx.parent != NO_PARENT))
            .then(a.start_s.total_cmp(&b.start_s))
    });
    let (w, row_h, label_w, pad) = (640.0, 18.0, 120.0, 4.0);
    let h = pad * 2.0 + row_h * ordered.len() as f64;
    let mut flags = String::new();
    for (bit, name) in [
        (span_flags::SLO_MISS, "slo-miss"),
        (span_flags::SHED, "shed"),
        (span_flags::RETRIED, "retried"),
        (span_flags::FAILED, "failed"),
    ] {
        if root.payload & bit != 0 {
            flags.push(' ');
            flags.push_str(name);
        }
    }
    let mut svg = format!(
        "<svg viewBox=\"0 0 {w:.0} {h:.0}\" width=\"{w:.0}\" height=\"{h:.0}\" \
         role=\"img\" aria-label=\"trace waterfall req {} trace {:016x}{flags}\">\
         <rect width=\"{w:.0}\" height=\"{h:.0}\" fill=\"#f7f7f9\"/>",
        root.request, root.ctx.trace_id
    );
    let scale = (w - label_w - 2.0 * pad) / span_total;
    for (i, s) in ordered.iter().enumerate() {
        let y = pad + row_h * i as f64;
        let x = label_w + pad + (s.start_s - t0) * scale;
        let bw = ((s.end_s - s.start_s) * scale).max(1.0);
        let _ = write!(
            svg,
            "<text x=\"{pad:.0}\" y=\"{:.1}\" font-size=\"10\" fill=\"#444\">{}</text>\
             <rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{bw:.1}\" height=\"{:.1}\" \
             fill=\"{}\"><title>{} [{:.4}s, {:.4}s] track {} payload {}</title></rect>",
            y + row_h * 0.7,
            esc(s.kind.name()),
            row_h - 3.0,
            span_color(s.kind),
            esc(s.kind.name()),
            s.start_s,
            s.end_s,
            s.track,
            s.payload
        );
    }
    svg.push_str("</svg>");
    svg
}

/// Per-worker utilization panel for the compute worker pool: one row per
/// worker with busy/idle seconds, completed jobs, and a busy-fraction
/// bar, plus the dispatcher's gather-wait footer. Rows are
/// `(busy_s, idle_s, jobs)` in worker order — the shape `tinyllm`'s
/// `PoolUtilization` reports, taken as plain tuples so observe stays
/// decoupled from the compute tier.
#[must_use]
pub fn pool_panel(workers: &[(f64, f64, u64)], dispatch_wait_s: f64, dispatches: u64) -> String {
    if workers.is_empty() {
        return String::from("<p class=\"empty\">no pool workers (single-lane run)</p>");
    }
    let mut out = String::from(
        "<table class=\"pool\"><tr><th>worker</th><th>busy s</th><th>idle s</th>\
         <th>jobs</th><th>busy %</th></tr>",
    );
    for (i, &(busy, idle, jobs)) in workers.iter().enumerate() {
        let frac = if busy + idle > 0.0 {
            busy / (busy + idle)
        } else {
            0.0
        };
        let _ = write!(
            out,
            "<tr><td>{i}</td><td>{busy:.3}</td><td>{idle:.3}</td><td>{jobs}</td>\
             <td><svg width=\"104\" height=\"12\" role=\"img\" \
             aria-label=\"worker {i} busy {:.1}%\">\
             <rect width=\"104\" height=\"12\" fill=\"#f0f0f3\"/>\
             <rect width=\"{:.1}\" height=\"12\" fill=\"#66c2a5\"/>\
             </svg> {:.1}%</td></tr>",
            frac * 100.0,
            2.0 + 100.0 * frac,
            frac * 100.0,
        );
    }
    let _ = write!(
        out,
        "</table><p>dispatcher gather-wait {dispatch_wait_s:.3} s over {dispatches} dispatches</p>"
    );
    out
}

/// Flamegraph panel: a self-profiler snapshot rendered as an embeddable
/// fragment — headline numbers plus the full icicle SVG from
/// [`distserve_prof::Profile::flamegraph_svg`] (same zero-JS contract as
/// every other panel). Empty-state paragraph when the profiler was
/// disabled or captured nothing.
#[must_use]
pub fn profile_panel(profile: &distserve_prof::Profile, title: &str) -> String {
    let total = profile.total_ns();
    if total == 0 {
        return String::from("<p class=\"empty\">no profile samples (profiler disabled?)</p>");
    }
    format!(
        "<p>{} scope paths, {:.3} s attributed</p>\n{}",
        profile.node_count(),
        total as f64 / 1e9,
        profile.flamegraph_svg(title),
    )
}

fn tile(label: &str, value: &str) -> String {
    format!(
        "<div class=\"tile\"><div class=\"value\">{}</div>\
         <div class=\"label\">{}</div></div>",
        esc(value),
        esc(label)
    )
}

fn fmt_opt_ms(v: Option<f64>) -> String {
    v.map_or_else(|| "n/a".into(), |s| format!("{:.1} ms", s * 1e3))
}

/// Renders the full dashboard as one self-contained HTML page.
#[must_use]
pub fn render_dashboard(report: &BottleneckReport, title: &str) -> String {
    let w = &report.window;
    let mut instances = String::from(
        "<table><tr><th>instance</th><th>role</th><th>util %</th><th>busy s</th>\
         <th>batches</th><th>tokens</th><th>binding SLO</th><th>dominant component</th></tr>",
    );
    for i in &report.instances {
        let _ = write!(
            instances,
            "<tr><td>{}</td><td>{}</td><td>{:.1}</td><td>{:.2}</td>\
             <td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(&i.name),
            i.role,
            i.utilization * 100.0,
            i.busy_secs,
            i.batches,
            i.tokens,
            i.binding,
            i.dominant,
        );
    }
    instances.push_str("</table>");

    format!(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\
         <title>{title}</title><style>\
         body{{font:14px/1.5 system-ui,sans-serif;margin:2rem;color:#222}}\
         h1{{font-size:1.4rem}} h2{{font-size:1.1rem;margin-top:1.5rem}}\
         .tiles{{display:flex;gap:1rem;flex-wrap:wrap}}\
         .tile{{background:#f7f7f9;border-radius:8px;padding:.8rem 1.2rem;min-width:8rem}}\
         .tile .value{{font-size:1.3rem;font-weight:600}}\
         .tile .label{{color:#666;font-size:.85rem}}\
         .verdict{{background:#fff6e5;border-left:4px solid #fc8d62;padding:.6rem 1rem}}\
         table{{border-collapse:collapse;margin-top:.5rem}}\
         td,th{{border:1px solid #ddd;padding:.3rem .7rem;text-align:left}}\
         th{{background:#f0f0f3}}\
         .legend{{list-style:none;padding:0;display:flex;flex-wrap:wrap;gap:.3rem 1.2rem}}\
         .swatch{{display:inline-block;width:.8em;height:.8em;margin-right:.35em;\
         border-radius:2px}}\
         .empty{{color:#888;font-style:italic}}\
         .row{{display:flex;gap:2rem;flex-wrap:wrap}}\
         </style></head><body>\n\
         <h1>{title}</h1>\n\
         <p class=\"verdict\">{verdict}</p>\n\
         <div class=\"tiles\">{tiles}</div>\n\
         <h2>SLO attainment over time</h2>\n{spark}\n\
         <div class=\"row\"><div><h2>TTFT (SLO {ttft_slo:.0} ms)</h2>{ttft_hist}</div>\
         <div><h2>TPOT (SLO {tpot_slo:.0} ms)</h2>{tpot_hist}</div></div>\n\
         <h2>Latency attribution</h2>\n{attr}\n\
         <h2>Instances</h2>\n{instances}\n\
         </body></html>\n",
        title = esc(title),
        verdict = esc(&report.verdict),
        tiles = [
            tile("goodput", &format!("{:.2} req/s", w.goodput_rps)),
            tile("attainment", &format!("{:.1}%", w.attainment * 100.0)),
            tile(
                "TTFT attainment",
                &format!("{:.1}%", w.ttft_attainment * 100.0)
            ),
            tile(
                "TPOT attainment",
                &format!("{:.1}%", w.tpot_attainment * 100.0)
            ),
            tile("TTFT p99", &fmt_opt_ms(w.ttft_p99)),
            tile("TPOT p99", &fmt_opt_ms(w.tpot_p99)),
            tile("finished", &w.finished.to_string()),
            tile("rejected", &w.rejected.to_string()),
            tile("failed", &w.failed.to_string()),
        ]
        .concat(),
        spark = attainment_sparkline(report),
        ttft_slo = w.ttft_slo * 1e3,
        tpot_slo = w.tpot_slo * 1e3,
        ttft_hist = histogram_svg(&w.ttft_hist, w.ttft_slo, "TTFT"),
        tpot_hist = histogram_svg(&w.tpot_hist, w.tpot_slo, "TPOT"),
        attr = attribution_bar(report),
        instances = instances,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use distserve_telemetry::{Event, LifecycleEvent as E, Recorder, Slice, TelemetrySink};

    #[test]
    fn dashboard_is_self_contained_html() {
        let rec = Recorder::new();
        rec.declare_track(0, "colocated[0] <tp1> \"primary\" & 'spare'");
        for (t, kind) in [
            (0.0, E::Arrived),
            (0.0, E::PrefillQueued),
            (0.1, E::PrefillStart),
            (0.3, E::PrefillEnd),
            (0.4, E::DecodeStep { generated: 2 }),
            (0.4, E::Finished),
        ] {
            rec.event(Event {
                request: 1,
                tenant: 0,
                time_s: t,
                kind,
            });
        }
        rec.slice(Slice {
            track: 0,
            name: "prefill",
            start_s: 0.1,
            end_s: 0.3,
            batch: 1,
            tokens: 64,
        });
        let report = crate::bottleneck::diagnose(&rec.snapshot(), 0.2, 0.1, 1.0, 8).unwrap();
        let html = render_dashboard(&report, "test run");
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.ends_with("</html>\n"));
        assert!(html.contains("<svg"));
        // Track name is escaped, including quotes (labels are embedded in
        // attribute values, not just text nodes).
        assert!(html.contains("colocated[0] &lt;tp1&gt; &quot;primary&quot; &amp; &#39;spare&#39;"));
        assert!(!html.contains("<tp1>"));
        assert!(!html.contains("\"primary\""));
        // No external references: offline CI must render it unchanged.
        assert!(!html.contains("http://") && !html.contains("https://"));
        assert!(!html.contains("<script"));
    }

    #[test]
    fn pool_panel_renders_worker_rows_and_waits() {
        let panel = pool_panel(&[(3.0, 1.0, 40), (0.0, 0.0, 0)], 0.25, 16);
        assert_eq!(panel.matches("<tr><td>").count(), 2, "one row per worker");
        assert!(panel.contains("75.0%"), "busy fraction renders");
        assert!(panel.contains("0.0%"), "idle worker renders zero, not NaN");
        assert!(panel.contains("gather-wait 0.250 s over 16 dispatches"));
        assert!(pool_panel(&[], 0.0, 0).contains("no pool workers"));
    }

    #[test]
    fn profile_panel_embeds_flamegraph_or_empty_state() {
        use distserve_prof::{NodeStat, Profile};
        let profile = Profile {
            roots: vec![NodeStat {
                name: "sim_run".into(),
                total_ns: 2_000_000,
                calls: 1,
                children: vec![NodeStat {
                    name: "ev_arrive".into(),
                    total_ns: 500_000,
                    calls: 100,
                    children: vec![],
                }],
            }],
        };
        let panel = profile_panel(&profile, "fleet profile");
        assert!(panel.contains("<svg"));
        assert!(panel.contains("sim_run") && panel.contains("ev_arrive"));
        assert!(!panel.contains("<script") && !panel.contains("href"));
        assert!(profile_panel(&Profile::default(), "x").contains("no profile samples"));
    }

    #[test]
    fn tenant_panel_orders_by_burn_and_marks_alerts() {
        let mut m = crate::TenantBurnMonitor::new(crate::BurnConfig {
            attainment_target: 0.9,
            fast_window_s: 10.0,
            slow_window_s: 100.0,
            threshold: 3.0,
            min_requests: 10,
        });
        for i in 0..200 {
            m.record(0, i as f64 * 0.1, true);
            m.record(1, i as f64 * 0.1, i % 2 != 0);
        }
        let html = tenant_panel(&m);
        assert!(html.contains("BURNING"));
        let t1 = html.find("<td>1</td>").unwrap();
        let t0 = html.find("<td>0</td>").unwrap();
        assert!(t1 < t0, "burning tenant sorts first");
        assert!(
            tenant_panel(&crate::TenantBurnMonitor::new(crate::BurnConfig::default()))
                .contains("no tenant traffic")
        );
    }

    #[test]
    fn waterfall_svg_renders_each_span_with_flags() {
        use distserve_telemetry::{span_flags, SpanEvent, SpanKind, TraceCtx};
        let root = TraceCtx::root(9);
        let mk = |ctx, kind, s, e, payload| SpanEvent {
            ctx,
            request: 42,
            tenant: 1,
            track: 3,
            kind,
            start_s: s,
            end_s: e,
            payload,
        };
        let trace = vec![
            mk(root.child(1), SpanKind::PrefillExec, 0.1, 0.3, 0),
            mk(root.child(2), SpanKind::DecodeExec, 0.3, 0.9, 12),
            mk(root, SpanKind::Request, 0.0, 0.9, span_flags::SLO_MISS),
        ];
        let svg = trace_waterfall_svg(&trace);
        assert!(svg.starts_with("<svg"));
        assert_eq!(svg.matches("<rect x=").count(), 3, "one bar per span");
        assert!(svg.contains("slo-miss"));
        assert!(svg.contains("prefill_exec"));
        // Rootless input degrades gracefully.
        assert!(trace_waterfall_svg(&[]).contains("no finalized trace"));
    }
}
