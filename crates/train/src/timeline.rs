//! Iteration timelines (the Fig 14 presentation).
//!
//! Converts an [`IterationBreakdown`] into labeled, ordered spans so case
//! studies can print the paper's timeline view: data fetch (overlapped),
//! encoder forward, All-to-All, backbone forward/backward with pipeline
//! bubbles.

use crate::iteration::IterationBreakdown;

/// One labeled span on the iteration timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Phase label.
    pub label: String,
    /// Start offset from iteration begin, seconds.
    pub start_s: f64,
    /// Duration, seconds.
    pub dur_s: f64,
}

impl Span {
    /// End offset.
    pub fn end_s(&self) -> f64 {
        self.start_s + self.dur_s
    }
}

/// A complete iteration timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Variant label (e.g. `"Baseline"`).
    pub name: String,
    /// Ordered spans.
    pub spans: Vec<Span>,
}

impl Timeline {
    /// Builds the canonical VLM iteration timeline from a breakdown plus
    /// the (overlapped) data-fetch latency.
    pub fn from_breakdown(name: impl Into<String>, b: &IterationBreakdown, fetch_s: f64) -> Self {
        let mut spans = Vec::new();
        // Fetch overlaps the previous iteration; it appears at offset 0
        // with only its *unhidden* residual contributing to the critical
        // path (zero when fully overlapped).
        spans.push(Span {
            label: "data fetch (overlapped)".into(),
            start_s: 0.0,
            dur_s: fetch_s,
        });
        let mut t = 0.0;
        for (label, dur) in [
            ("encoder fwd+bwd", b.encoder_s),
            ("all-to-all", b.a2a_s),
            ("backbone compute", (b.backbone_s - b.bubble_s).max(0.0)),
            ("pipeline bubbles", b.bubble_s),
            ("grad allreduce", b.allreduce_s),
        ] {
            spans.push(Span {
                label: label.into(),
                start_s: t,
                dur_s: dur,
            });
            t += dur;
        }
        Timeline {
            name: name.into(),
            spans,
        }
    }

    /// Total critical-path length (excludes the overlapped fetch span).
    pub fn total_s(&self) -> f64 {
        self.spans.iter().skip(1).map(|s| s.dur_s).sum()
    }

    /// Renders an ASCII gantt (one row per span, `width` columns).
    pub fn render(&self, width: usize) -> String {
        let total = self
            .spans
            .iter()
            .map(Span::end_s)
            .fold(0.0f64, f64::max)
            .max(1e-9);
        let mut out = format!("{} (total {:.2}s)\n", self.name, self.total_s());
        for span in &self.spans {
            let start = (span.start_s / total * width as f64).round() as usize;
            let len = ((span.dur_s / total * width as f64).round() as usize).max(1);
            let mut row = String::new();
            row.push_str(&" ".repeat(start.min(width)));
            row.push_str(&"#".repeat(len.min(width.saturating_sub(start))));
            out.push_str(&format!(
                "  {:<24} |{:<width$}| {:>8.2}s\n",
                span.label,
                row,
                span.dur_s,
                width = width
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn breakdown() -> IterationBreakdown {
        IterationBreakdown {
            encoder_s: 4.0,
            a2a_s: 1.0,
            backbone_s: 10.0,
            bubble_s: 3.0,
            allreduce_s: 2.0,
        }
    }

    #[test]
    fn spans_are_contiguous_and_ordered() {
        let t = Timeline::from_breakdown("test", &breakdown(), 0.5);
        // Skip the overlapped fetch span; the rest tile the iteration.
        for w in t.spans[1..].windows(2) {
            assert!((w[0].end_s() - w[1].start_s).abs() < 1e-12);
        }
        assert!((t.total_s() - 17.0).abs() < 1e-12);
    }

    #[test]
    fn fetch_span_does_not_count_toward_total() {
        let a = Timeline::from_breakdown("a", &breakdown(), 0.0);
        let b = Timeline::from_breakdown("b", &breakdown(), 100.0);
        assert_eq!(a.total_s(), b.total_s());
    }

    #[test]
    fn render_contains_all_labels() {
        let t = Timeline::from_breakdown("demo", &breakdown(), 0.5);
        let s = t.render(40);
        for label in [
            "data fetch",
            "encoder",
            "all-to-all",
            "backbone",
            "bubbles",
            "allreduce",
        ] {
            assert!(s.contains(label), "missing {label} in\n{s}");
        }
        // Every row fits the width budget plus decorations.
        assert!(s.lines().skip(1).all(|l| l.len() < 90));
    }

    #[test]
    fn render_handles_zero_breakdown() {
        let t = Timeline::from_breakdown("zero", &IterationBreakdown::default(), 0.0);
        let s = t.render(20);
        assert!(s.contains("total 0.00s"));
    }
}
