//! Spans recorded around the benchmark's calls into each layer.
//!
//! Spans stay in memory while the traced replay runs and are written
//! out once it ends ([`Tracer::write`]), so the recording itself costs
//! two clock reads and a push per call.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Request the span belongs to (a detection run, a delta, a probe).
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An optional span recorder: with `None` inside, [`Tracer::time`] runs
/// the call without reading the clock, which is the untraced baseline.
pub struct Tracer {
    inner: Option<Recording>,
}

struct Recording {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer { inner: None }
    }

    pub fn on() -> Self {
        Tracer {
            inner: Some(Recording {
                origin: Instant::now(),
                spans: Vec::with_capacity(4096),
            }),
        }
    }

    fn now_ns(origin: Instant) -> u64 {
        origin.elapsed().as_nanos() as u64
    }

    /// Opens a span that later spans can name as their parent.
    pub fn open(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
    ) -> Option<usize> {
        let rec = self.inner.as_mut()?;
        let now = Self::now_ns(rec.origin);
        rec.spans.push(Span {
            name,
            request,
            parent,
            start_ns: now,
            end_ns: now,
        });
        Some(rec.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<usize>) {
        if let (Some(rec), Some(id)) = (self.inner.as_mut(), id) {
            rec.spans[id].end_ns = Self::now_ns(rec.origin);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Duration of the most recently recorded span named `name`.
    pub fn last_secs(&self, name: &str) -> f64 {
        self.inner
            .as_ref()
            .and_then(|rec| rec.spans.iter().rev().find(|s| s.name == name))
            .map_or(0.0, Span::secs)
    }

    /// Every recorded duration of spans named `name`, in seconds.
    pub fn all_secs(&self, name: &str) -> Vec<f64> {
        self.inner.as_ref().map_or_else(Vec::new, |rec| {
            rec.spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::secs)
                .collect()
        })
    }

    /// Prints per-name totals and self times (total minus the time the
    /// span's children cover) and writes every span as one JSON line to
    /// `path`.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let Some(rec) = self.inner.as_ref() else {
            return Ok(());
        };
        let mut child_ns = vec![0u64; rec.spans.len()];
        for s in &rec.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
        for (i, s) in rec.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child_ns[i]);
        }
        eprintln!(
            "{:<32} {:>7} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        for (name, (count, total, own)) in &by_name {
            eprintln!(
                "{name:<32} {count:>7} {:>12.6} {:>12.6}",
                *total as f64 * 1e-9,
                *own as f64 * 1e-9
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for (i, s) in rec.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.request,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns
            )
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        out.flush()
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "perfbench: {} spans written to {}",
            rec.spans.len(),
            path.display()
        );
        Ok(())
    }
}
