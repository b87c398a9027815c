//! In-memory spans, written out once when the benchmark ends.
//!
//! Spans are recorded from the benchmark's own side of each layer
//! boundary: around calls into a layer's `pub` functions during a
//! replay, and around each client op of a driven session. Nothing is
//! recorded inside the programs under test.

use std::time::Instant;

use rbserve::protocol::{obj, render};
use serde::Value;

use crate::drive::Session;

/// One timed interval. Spans of one request share `request`; `parent`
/// names the span that caused this one (0 for a root).
struct Span {
    id: u64,
    parent: u64,
    request: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
}

/// The span buffer of one benchmark process.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn push(&mut self, parent: u64, request: u64, name: &str, start_ns: u64, end_ns: u64) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_string(),
            start_ns,
            end_ns,
        });
        id
    }

    /// Nanoseconds since the buffer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a root span that started at `start_ns` and ends now.
    pub fn close(&mut self, request: u64, name: &str, start_ns: u64) {
        let end = self.now_ns();
        self.push(0, request, name, start_ns, end);
    }

    /// Records every op of a driven session: a root span per op, and
    /// under each submit its first-cell wait and the server's own
    /// reported solve time (`done.solve_ns`, placed to end at `done`).
    pub fn record_session(&mut self, session: &Session) {
        // Session offsets are relative to its window's opening.
        let base = session
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        // Request ids: the connection in the high bits, a counter below.
        let mut count = 0u64;
        let mut request_id = |conn: usize| {
            count += 1;
            ((conn as u64 + 1) << 40) | count
        };
        for s in &session.submits {
            let request = request_id(s.conn);
            let start = base + s.start_ns;
            let end = start + s.latency_ns;
            let root = self.push(0, request, "serve.submit", start, end);
            self.push(
                root,
                request,
                "serve.first_cell",
                start,
                start + s.first_cell_ns,
            );
            let solve = s.solve_ns as u64;
            self.push(
                root,
                request,
                "serve.server",
                end.saturating_sub(solve),
                end,
            );
        }
        for &(conn, start_ns, latency_ns) in &session.quantiles {
            let request = request_id(conn);
            let start = base + start_ns;
            self.push(0, request, "serve.quantile", start, start + latency_ns);
        }
    }

    /// The spans as one JSON document.
    pub fn to_json(&self) -> String {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                obj(vec![
                    ("id", Value::Num(s.id as f64)),
                    ("parent", Value::Num(s.parent as f64)),
                    ("request", Value::Num(s.request as f64)),
                    ("name", Value::Str(s.name.clone())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                ])
            })
            .collect();
        render(&obj(vec![("spans", Value::Seq(spans))]))
    }
}
