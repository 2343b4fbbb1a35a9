//! Spans of a traced run: one per run (sweep job) or request, each
//! under the span of its pass or block, kept in memory and written out
//! as JSON lines when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// The spans of one run. Span 0 is the run itself.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    next: u64,
    lines: Vec<String>,
}

/// A span that has started.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// Its id, for children to name as their parent.
    pub id: u64,
    start: Instant,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { t0: Instant::now(), next: 1, lines: Vec::new() }
    }
}

impl Spans {
    /// Starts a span now.
    pub fn begin(&mut self) -> Open {
        self.next += 1;
        Open { id: self.next - 1, start: Instant::now() }
    }

    /// Ends `span` now, under `parent`. `fields` are the per-layer
    /// totals measured inside it.
    pub fn end(
        &mut self,
        span: Open,
        parent: u64,
        name: &str,
        label: &str,
        fields: &[(&str, f64)],
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.t0).as_secs_f64();
        let mut line = format!(
            "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{name}\", \"label\": \"{label}\", \
             \"start_s\": {}, \"end_s\": {}",
            span.id,
            at(span.start),
            at(Instant::now())
        );
        for (k, v) in fields {
            let _ = write!(line, ", \"{k}\": {v}");
        }
        line.push('}');
        self.lines.push(line);
    }

    /// Spans recorded so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether none were recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Writes one JSON object per line to `path`, creating its directory.
    ///
    /// # Errors
    /// The file cannot be written.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = self.lines.join("\n");
        text.push('\n');
        std::fs::write(path, text)
    }
}
