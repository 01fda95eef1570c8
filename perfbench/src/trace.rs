//! In-memory spans for the traced run: each span has a name, start, end,
//! parent span and run id. Spans stay in memory until the run ends, when
//! they are written out and folded into per-name self times.

use std::io::Write as _;
use std::time::Instant;

/// What a span covers. Each name is a call into one layer's public API,
/// or one engine step classified by the counter it moved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanName {
    /// One simulation run, harness construction to `finish()`.
    Run,
    /// `EngineHarness::new` / `ServeHarness::new`.
    WorldNew,
    /// A step that admitted jobs.
    Admit,
    /// A step that completed jobs and admitted none.
    Complete,
    /// Any other step (probes, scaling, chaos timers, transfers in flight).
    Other,
    /// `EngineWorld::drain_serve_windows`.
    WindowDrain,
    /// `finish()`: the report, including the OO series.
    Finish,
}

impl SpanName {
    pub const ALL: [SpanName; 7] = [
        SpanName::Run,
        SpanName::WorldNew,
        SpanName::Admit,
        SpanName::Complete,
        SpanName::Other,
        SpanName::WindowDrain,
        SpanName::Finish,
    ];

    pub fn label(self) -> &'static str {
        match self {
            SpanName::Run => "run",
            SpanName::WorldNew => "core.world_new",
            SpanName::Admit => "core.admit",
            SpanName::Complete => "core.complete",
            SpanName::Other => "core.other",
            SpanName::WindowDrain => "sla.window_drain",
            SpanName::Finish => "sla.finish",
        }
    }

    /// Position in [`SpanName::ALL`] (declaration order).
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Marks a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: SpanName,
    pub parent: u32,
    pub run: u32,
    /// Engine steps the span covers; 0 for a call span.
    pub steps: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Host nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span now; [`Tracer::close`] sets its end.
    pub fn open(&mut self, name: SpanName, run: u32) -> u32 {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: NO_PARENT,
            run,
            steps: 0,
            start_ns: now,
            end_ns: now,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, span: u32) {
        let now = self.now_ns();
        self.spans[span as usize].end_ns = now;
    }

    pub fn record(&mut self, name: SpanName, parent: u32, run: u32, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            parent,
            run,
            steps: 0,
            start_ns,
            end_ns,
        });
    }

    /// Records one engine step. Consecutive completion or other steps
    /// extend one span (its `steps` counts them), which keeps a traced
    /// run's span count near its admission count; every admission step is
    /// a span of its own.
    pub fn record_step(
        &mut self,
        name: SpanName,
        parent: u32,
        run: u32,
        start_ns: u64,
        end_ns: u64,
    ) {
        if let Some(last) = self.spans.last_mut() {
            if name != SpanName::Admit
                && last.name == name
                && last.steps > 0
                && last.parent == parent
            {
                last.end_ns = end_ns;
                last.steps += 1;
                return;
            }
        }
        self.spans.push(Span {
            name,
            parent,
            run,
            steps: 1,
            start_ns,
            end_ns,
        });
    }

    /// Self time per span name in ns: each span's duration minus the part
    /// its children cover (children never overlap one another).
    pub fn self_ns(&self) -> [u64; SpanName::ALL.len()] {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out = [0u64; SpanName::ALL.len()];
        for (s, child) in self.spans.iter().zip(&child_ns) {
            out[s.name.index()] += s.dur_ns().saturating_sub(*child);
        }
        out
    }

    /// Durations in ms of every span with `name`.
    pub fn durations_ms(&self, name: SpanName) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one CSV row.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "span,name,parent,run,steps,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                String::new()
            } else {
                s.parent.to_string()
            };
            let (name, run, steps) = (s.name.label(), s.run, s.steps);
            writeln!(
                f,
                "{i},{name},{parent},{run},{steps},{},{}",
                s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}
