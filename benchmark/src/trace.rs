//! In-memory span recorder for the traced pass.
//!
//! Spans come from the benchmark's own code, around calls into the
//! program's public functions; nothing inside the program is instrumented.
//! A disabled tracer costs one branch per span, so the untraced pass runs
//! the same op code.

use std::time::Instant;

use crate::json::Json;

/// One recorded span. `parent` indexes the trace's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

/// Span recorder; `Tracer::off()` records nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Tracer {
        Tracer { epoch: Instant::now(), enabled, spans: Vec::new(), open: Vec::new(), op_id: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span, child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        self.nest(name, layer, |_| f())
    }

    /// As [`Tracer::span`], for a body that records child spans itself.
    pub fn nest<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Root span of one operation; every span recorded inside shares its
    /// operation identifier.
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.op_id += 1;
        self.nest("op", "benchmark", f)
    }

    /// Record a finished operation whose spans overlap other operations'
    /// (the `service_mix` window): a root `op` span and its children, from
    /// instants the caller took.
    pub fn add_op(
        &mut self,
        start: Instant,
        end: Instant,
        children: &[(&'static str, &'static str, Instant, Instant)],
    ) {
        if !self.enabled {
            return;
        }
        self.op_id += 1;
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let root = self.spans.len();
        let all = std::iter::once(("op", "benchmark", start, end, None))
            .chain(children.iter().map(|&(n, l, s, e)| (n, l, s, e, Some(root))));
        for (name, layer, s, e, parent) in all {
            self.spans.push(Span {
                name,
                layer,
                start_ns: ns(s),
                end_ns: ns(e),
                parent,
                op_id: self.op_id,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: its duration minus the part its direct children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Spans as JSON rows, each with its self time.
pub fn spans_to_json(spans: &[Span]) -> Json {
    let own = self_times(spans);
    Json::Arr(
        spans
            .iter()
            .zip(own)
            .map(|(s, self_ns)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("layer", Json::str(s.layer)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("op_id", Json::Num(s.op_id as f64)),
                    ("self_ns", Json::Num(self_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_share_op_ids_and_self_time_excludes_children() {
        let mut t = Tracer::on();
        for _ in 0..2 {
            t.op(|t| {
                t.span("a", "x", || std::thread::sleep(std::time::Duration::from_millis(2)));
                t.nest("b", "x", |t| t.span("c", "y", || ()));
            });
        }
        let s = t.spans();
        assert_eq!(s.len(), 8);
        assert_eq!((s[0].name, s[0].parent, s[0].op_id), ("op", None, 1));
        assert_eq!((s[1].name, s[1].parent), ("a", Some(0)));
        assert_eq!((s[3].name, s[3].parent), ("c", Some(2)));
        assert_eq!((s[4].name, s[4].parent, s[4].op_id), ("op", None, 2));
        assert_eq!(s[7].op_id, 2);
        let own = self_times(s);
        let dur = |i: usize| s[i].end_ns - s[i].start_ns;
        assert_eq!(own[0], dur(0) - dur(1) - dur(2));
        assert!(dur(1) >= 2_000_000 && own[0] < dur(0) - 2_000_000 + 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.op(|t| t.span("a", "x", || 5)), 5);
        assert!(t.spans().is_empty());
    }
}
