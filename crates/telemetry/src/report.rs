//! Human-readable rendering of a [`MetricsSnapshot`].

use crate::metrics::MetricsSnapshot;
use std::fmt;

fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

fn format_count(v: u64) -> String {
    if v < 10_000 {
        v.to_string()
    } else if v < 10_000_000 {
        format!("{:.1}k", v as f64 / 1e3)
    } else {
        format!("{:.1}M", v as f64 / 1e6)
    }
}

impl fmt::Display for MetricsSnapshot {
    /// Renders the `--metrics text` report: spans as an indented tree
    /// (paths are slash-joined, so depth is the slash count), then
    /// counters, gauges and histogram percentiles.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.spans.is_empty() {
            writeln!(f, "spans (wall clock):")?;
            // BTreeMap ordering sorts parents directly before children.
            for s in &self.spans {
                let depth = s.path.matches('/').count();
                let name = s.path.rsplit('/').next().unwrap_or(&s.path);
                writeln!(
                    f,
                    "  {:indent$}{name:<24} total {:>9}  n={:<5} mean {:>9}  p99 {:>9}",
                    "",
                    format_ns(s.total_ns as f64),
                    s.count,
                    format_ns(s.mean_ns),
                    format_ns(s.p99_ns),
                    indent = depth * 2,
                )?;
            }
        }
        if !self.counters.is_empty() {
            writeln!(f, "counters:")?;
            for c in &self.counters {
                writeln!(f, "  {:<40} {:>12}", c.name, format_count(c.value))?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges:")?;
            for g in &self.gauges {
                writeln!(f, "  {:<40} {:>12}", g.name, g.value)?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "histograms:")?;
            for h in &self.histograms {
                // Only nanosecond series read as time; the rest (bytes/s,
                // basis points, point counts) are plain quantities.
                let v = |x: u64| {
                    if h.name.ends_with("ns") {
                        format_ns(x as f64)
                    } else {
                        format_count(x)
                    }
                };
                writeln!(
                    f,
                    "  {:<40} n={:<7} min {:>9} p50 {:>9} p90 {:>9} p99 {:>9} p999 {:>9} max {}",
                    h.name,
                    h.count,
                    v(h.min),
                    v(h.p50),
                    v(h.p90),
                    v(h.p99),
                    v(h.p999),
                    v(h.max),
                )?;
            }
        }
        if self.spans.is_empty()
            && self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
        {
            writeln!(f, "no metrics recorded")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::metrics::MetricsRegistry;
    use crate::Name;

    #[test]
    fn report_mentions_every_section() {
        let reg = MetricsRegistry::new();
        reg.add(Name::new("sz.bytes_in"), 123_456);
        reg.set_gauge(Name::new("workers"), 4);
        reg.observe(Name::new("lat"), 512);
        reg.record_span("compress", std::time::Duration::from_micros(250));
        reg.record_span("compress/features", std::time::Duration::from_micros(100));
        let text = reg.snapshot().to_string();
        assert!(text.contains("spans"), "{text}");
        assert!(text.contains("sz.bytes_in"), "{text}");
        assert!(text.contains("workers"), "{text}");
        assert!(text.contains("features"), "{text}");
        // child indented deeper than parent
        let parent_indent = text
            .lines()
            .find(|l| l.contains("compress "))
            .map(|l| l.len() - l.trim_start().len())
            .unwrap();
        let child_indent = text
            .lines()
            .find(|l| l.contains("features"))
            .map(|l| l.len() - l.trim_start().len())
            .unwrap();
        assert!(child_indent > parent_indent, "{text}");
    }

    #[test]
    fn histograms_read_as_time_only_for_ns_series() {
        let reg = MetricsRegistry::new();
        reg.observe(Name::new("x.latency_ns"), 1500);
        reg.observe(Name::new("x.err_bp"), 532);
        let text = reg.snapshot().to_string();
        // The value printed after `key` on the series' line.
        let value = |name: &str, key: &str| -> String {
            let line = text.lines().find(|l| l.contains(name)).unwrap_or("");
            let mut tokens = line.split_whitespace();
            tokens.find(|t| *t == key);
            tokens.next().unwrap_or("").to_owned()
        };
        assert_eq!(value("x.latency_ns", "p50"), "1.5µs", "{text}");
        assert_eq!(value("x.latency_ns", "p999"), "1.5µs", "{text}");
        assert_eq!(value("x.err_bp", "p50"), "532", "{text}");
        assert_eq!(value("x.err_bp", "max"), "532", "{text}");
        assert_eq!(text.matches("histograms:").count(), 1, "{text}");
    }

    #[test]
    fn empty_snapshot_has_placeholder() {
        let reg = MetricsRegistry::new();
        assert!(reg.snapshot().to_string().contains("no metrics recorded"));
    }
}
