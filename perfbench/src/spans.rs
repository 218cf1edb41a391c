//! Benchmark-side tracing: spans around the calls the benchmark makes
//! into each layer, kept in memory and written out when the run ends.
//!
//! A span records its name, start, end and the span that caused it
//! (the innermost open span on the same thread). A layer's self time
//! is its span's duration minus the time its child spans cover.
//! Recording is off unless [`enable`] was called, so the untraced run
//! pays one relaxed atomic load per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub fn enable(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; recorded when dropped.
pub struct Guard {
    open: Option<(u64, u64, &'static str, Instant)>,
}

/// Opens a span named `name` (a no-op guard while tracing is off).
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Guard {
        open: Some((id, parent, name, Instant::now())),
    }
}

/// Runs `f` inside a span.
pub fn traced<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = span(name);
    f()
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let base = epoch();
        let span = Span {
            id,
            parent,
            name,
            start_ns: (start - base).as_nanos() as u64,
            end_ns: (end - base).as_nanos() as u64,
        };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Takes every recorded span, leaving the buffer empty.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Each span's self time (nanoseconds), grouped by span name.
#[derive(Default, Debug)]
pub struct SelfTimes {
    pub by_name: BTreeMap<&'static str, Vec<u64>>,
}

impl SelfTimes {
    pub fn from_spans(spans: &[Span]) -> Self {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for s in spans {
            let covered = child_ns.get(&s.id).copied().unwrap_or(0);
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            by_name.entry(s.name).or_default().push(own);
        }
        SelfTimes { by_name }
    }
}

/// Writes spans as JSON lines and a self-time summary line per name.
pub fn write(path: &std::path::Path, spans: &[Span], selft: &SelfTimes) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    for (name, v) in &selft.by_name {
        let total: u64 = v.iter().sum();
        writeln!(
            out,
            "{{\"self_time\":\"{name}\",\"count\":{},\"total_ns\":{total}}}",
            v.len()
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                id: 1,
                parent: 0,
                name: "outer",
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                parent: 1,
                name: "inner",
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                id: 3,
                parent: 1,
                name: "inner",
                start_ns: 50,
                end_ns: 70,
            },
        ];
        let st = SelfTimes::from_spans(&spans);
        assert_eq!(st.by_name["outer"], vec![50]);
        assert_eq!(st.by_name["inner"], vec![30, 20]);
    }
}
