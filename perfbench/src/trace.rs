//! Observation from outside the program: in-memory spans around the
//! benchmark's own calls into each layer, per-thread CPU time read from
//! `/proc/self/task` by thread name, peak resident memory, and a
//! counting allocator.

use crate::stats::Span;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;
use std::time::Instant;

/// Span recorder. Disabled (the untraced runs) it records nothing and
/// reads no clock.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// A span that has started and not yet ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: Option<usize>,
    start: Option<Instant>,
}

impl Open {
    /// This span's id, for children to name as their parent.
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

impl Tracer {
    /// A recorder; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a span under `parent`.
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> Open {
        if !self.enabled {
            return Open {
                id: None,
                start: None,
            };
        }
        let start = Instant::now();
        let mut spans = self.spans.lock().expect("span log lock");
        let id = spans.len();
        let start_ns = self.ns(start);
        spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Open {
            id: Some(id),
            start: Some(start),
        }
    }

    /// Ends a span opened by [`Tracer::open`].
    pub fn close(&self, open: Open) {
        if let (Some(id), Some(_)) = (open.id, open.start) {
            let end_ns = self.ns(Instant::now());
            self.spans.lock().expect("span log lock")[id].end_ns = end_ns;
        }
    }

    /// Records one finished interval measured by the caller (for hot
    /// loops that already hold both instants).
    pub fn record(&self, name: &'static str, parent: Option<usize>, start: Instant, end: Instant) {
        if self.enabled {
            let mut spans = self.spans.lock().expect("span log lock");
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        let open = self.open(name, parent);
        let out = f(open.id());
        self.close(open);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log lock").clone()
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// CPU nanoseconds of every live thread of this process, by thread
/// name (`/proc/self/task/<tid>/comm`, which the kernel truncates to
/// 15 bytes: `foreco-net-events` reads `foreco-net-even`).
pub fn thread_cpu() -> Vec<(String, u64)> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter_map(|task| {
            let dir = task.path();
            let name = std::fs::read_to_string(dir.join("comm")).ok()?;
            // First schedstat field: time spent on a CPU, in ns.
            let sched = std::fs::read_to_string(dir.join("schedstat")).ok()?;
            let ns = sched.split_whitespace().next()?.parse().ok()?;
            Some((name.trim().to_string(), ns))
        })
        .collect()
}

/// Summed CPU of the threads whose name starts with `prefix`.
pub fn cpu_of(threads: &[(String, u64)], prefix: &str) -> u64 {
    threads
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, ns)| ns)
        .sum()
}

/// CPU nanoseconds of the calling thread.
pub fn own_cpu() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU nanoseconds of the whole process, exited threads included
/// (`utime + stime` of `/proc/self/stat`, in clock ticks of 10 ms).
pub fn process_cpu() -> u64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) * 10_000_000,
        _ => 0,
    }
}

/// Restarts the kernel's peak-RSS mark (`VmHWM`) at the current RSS,
/// so the next [`peak_rss_mb`] covers what runs from here on.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The system allocator with per-thread allocation and net-byte
/// counters. Installed in every run, traced or not, so both kinds of
/// run execute the same allocation path.
pub struct CountingAllocator;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Allocations made by the calling thread so far.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Net heap bytes (allocated − freed) by the calling thread so far.
pub fn thread_bytes() -> i64 {
    BYTES.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters are
// thread-local cells touched through `try_with`, which neither
// allocates nor panics during thread teardown.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + layout.size() as i64));
        // SAFETY: the caller's guarantees for `layout` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = BYTES.try_with(|c| c.set(c.get() - layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + new_size as i64 - layout.size() as i64));
        // SAFETY: `ptr`/`layout` came from `System`; `new_size` is the
        // caller's, passed on unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
