//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer (name, start, end, parent, run id), kept in memory, and written
//! out as JSON Lines when the benchmark ends. A layer's self time is its
//! span's duration minus the time its child spans cover. A disabled
//! recorder does nothing, so the timed runs share the traced code path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call this span wraps, `<crate>.<call>`.
    pub name: &'static str,
    /// Which traced run recorded it.
    pub run: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder; see the module docs.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn disabled() -> Spans {
        Spans {
            enabled: false,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording recorder.
    pub fn enabled() -> Spans {
        Spans {
            enabled: true,
            ..Spans::disabled()
        }
    }

    /// Tags the spans recorded from now on with run id `run`.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            run: self.run,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (an unbalanced call in this benchmark).
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let idx = self.open.pop().expect("close without a matching open");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Self time per span name for `run`, in seconds: each span's duration
    /// minus its children's durations, summed over spans of that name.
    pub fn self_times(&self, run: u32) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.run == run {
                let own = s.dur_ns().saturating_sub(child_ns[i]);
                *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
            }
        }
        out
    }

    /// Checks that the span tree is well formed: every span closed, every
    /// child inside its parent, and siblings disjoint — the conditions
    /// under which self times add up to the root's duration.
    pub fn well_formed(&self) -> Result<(), String> {
        if !self.open.is_empty() {
            return Err(format!("{} span(s) left open", self.open.len()));
        }
        let mut last_child_end: BTreeMap<Option<usize>, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!("span {i} ({}) escapes its parent", s.name));
                }
            }
            let prev = last_child_end.entry(s.parent).or_insert(0);
            if s.start_ns < *prev {
                return Err(format!("span {i} ({}) overlaps its sibling", s.name));
            }
            *prev = s.end_ns;
        }
        Ok(())
    }

    /// The spans as JSON Lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"run\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        while t.elapsed().as_millis() < u128::from(ms) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut s = Spans::enabled();
        s.set_run(3);
        s.open("run");
        s.leaf("a", || spin(3));
        s.open("b");
        s.leaf("c", || spin(2));
        spin(1);
        s.close();
        s.close();
        s.well_formed().expect("nested spans are well formed");
        let selves = s.self_times(3);
        let total: f64 = selves.values().sum();
        let root = s.spans[0].dur_ns() as f64 * 1e-9;
        assert!((total - root).abs() < 1e-9, "{total} vs {root}");
        assert!(selves["a"] >= 0.003 && selves["c"] >= 0.002 && selves["b"] >= 0.001);
        assert!(s.self_times(0).is_empty(), "other runs are not mixed in");
        assert_eq!(s.to_jsonl().lines().count(), 4);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::disabled();
        s.open("run");
        assert_eq!(s.leaf("a", || 7), 7);
        s.close();
        assert!(s.spans.is_empty());
        s.well_formed().expect("empty is well formed");
    }

    #[test]
    fn unclosed_and_overlapping_spans_are_rejected() {
        let mut s = Spans::enabled();
        s.open("run");
        assert!(s.well_formed().is_err());
        s.close();
        s.spans.push(Span {
            name: "late",
            run: 0,
            parent: None,
            start_ns: 0,
            end_ns: 1,
        });
        assert!(
            s.well_formed().is_err(),
            "a root overlapping an earlier root"
        );
    }
}
