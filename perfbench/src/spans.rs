//! The benchmark's own span and count recorder.
//!
//! Spans are kept in memory by the benchmark itself, around its calls
//! into each library layer: name, start, end, parent span and rep id.
//! Counts are recorded at the same boundaries. Nothing here touches the
//! `pgc-obs` session recorder: the library crates are built without
//! `capture`, and a bounded per-thread ring would drop the benchmark's
//! spans among the pool's. At the end the list is converted into a
//! [`pgc_obs::Trace`] and written as Chrome trace-event JSON, which
//! Perfetto loads.

use pgc_obs::{EventKind, EventRecord, Trace};
use std::time::{Duration, Instant};

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in [`Recorder::spans`].
    pub parent: Option<usize>,
    pub rep: u32,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// One count, taken at a span boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Count {
    pub name: &'static str,
    pub at: u64,
    pub value: u64,
    pub rep: u32,
}

/// In-memory span list. A disabled recorder ignores every call, so the
/// traced and untraced reps run the same code.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    rep: u32,
    open: Vec<usize>,
    pub spans: Vec<Span>,
    pub counts: Vec<Count>,
    /// Spans whose phases, as the call timed them, were longer than the
    /// span itself and had to be clamped to it.
    pub clamped: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            rep: 0,
            open: Vec::new(),
            spans: Vec::new(),
            counts: Vec::new(),
            clamped: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tag the spans and counts that follow with rep id `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let i = self.open.pop().expect("end without begin");
        self.spans[i].end = end;
    }

    /// Close the innermost open span around a call that timed its own two
    /// phases: `first` is placed where the span began, `last` where it
    /// ends, each clamped to the span. A clamp is counted in
    /// [`Recorder::clamped`].
    pub fn end_with_phases(
        &mut self,
        first: (&'static str, Duration),
        last: (&'static str, Duration),
    ) {
        if !self.enabled {
            return;
        }
        let end = self.now();
        let i = self.open.pop().expect("end without begin");
        let start = self.spans[i].start;
        self.spans[i].end = end;
        if (first.1 + last.1).as_nanos() > u128::from(end - start) {
            self.clamped += 1;
        }
        let first_end = (start + first.1.as_nanos() as u64).min(end);
        let last_start = end.saturating_sub(last.1.as_nanos() as u64).max(first_end);
        for (name, s, e) in [(first.0, start, first_end), (last.0, last_start, end)] {
            self.spans.push(Span {
                name,
                start: s,
                end: e,
                parent: Some(i),
                rep: self.rep,
            });
        }
    }

    /// Record a count at the current instant.
    pub fn count(&mut self, name: &'static str, value: u64) {
        if !self.enabled {
            return;
        }
        let at = self.now();
        self.counts.push(Count {
            name,
            at,
            value,
            rep: self.rep,
        });
    }

    /// Self time of every span: its duration minus the part its children
    /// cover. Children of one span never overlap (the benchmark is a
    /// single closed-loop client), so the children's durations add up.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration());
            }
        }
        own
    }

    /// The spans and counts as a `pgc-obs` trace on one thread, begin and
    /// end events in nesting order.
    pub fn to_trace(&self) -> Trace {
        let mut events = Vec::with_capacity(2 * self.spans.len() + self.counts.len());
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        let mut roots = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            match s.parent {
                Some(p) => children[p].push(i),
                None => roots.push(i),
            }
        }
        fn emit(spans: &[Span], children: &[Vec<usize>], i: usize, out: &mut Vec<EventRecord>) {
            let ev = |kind, nanos| EventRecord {
                tid: 0,
                kind,
                name: spans[i].name,
                nanos,
                value: 0,
            };
            out.push(ev(EventKind::SpanBegin, spans[i].start));
            let mut kids = children[i].clone();
            kids.sort_by_key(|&c| spans[c].start);
            for c in kids {
                emit(spans, children, c, out);
            }
            out.push(ev(EventKind::SpanEnd, spans[i].end));
        }
        for r in roots {
            emit(&self.spans, &children, r, &mut events);
        }
        events.extend(self.counts.iter().map(|c| EventRecord {
            tid: 0,
            kind: EventKind::Counter,
            name: c.name,
            nanos: c.at,
            value: c.value,
        }));
        // Stable: a span's begin/end order survives ties.
        events.sort_by_key(|e| e.nanos);
        Trace {
            events,
            threads: vec![(0, "perfbench".to_string())],
            dropped: 0,
            session_nanos: self.now(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_subtract_children() {
        let mut r = Recorder::new(true);
        r.begin("rep");
        r.begin("a");
        r.end();
        r.begin("run");
        std::thread::sleep(Duration::from_millis(2));
        r.end_with_phases(
            ("x", Duration::from_micros(500)),
            ("y", Duration::from_micros(700)),
        );
        r.end();
        let own = r.self_times();
        assert_eq!(own.iter().sum::<u64>(), r.spans[0].duration());
        assert_eq!(r.spans.len(), 5);
        assert_eq!(r.spans[3].duration(), 500_000);
        assert_eq!(r.spans[4].end, r.spans[2].end);
        assert_eq!(r.clamped, 0);
    }

    #[test]
    fn phases_longer_than_their_span_are_counted() {
        let mut r = Recorder::new(true);
        r.begin("run");
        r.end_with_phases(("x", Duration::from_secs(1)), ("y", Duration::from_secs(1)));
        assert_eq!(r.clamped, 1);
        assert!(r.spans[1].end <= r.spans[0].end);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        r.begin("rep");
        r.count("c", 1);
        r.end();
        assert!(r.spans.is_empty() && r.counts.is_empty());
    }
}
