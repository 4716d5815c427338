//! In-memory span recorder for the traced run.
//!
//! A span covers one call the benchmark makes into a layer of the
//! simulator (or one batch of identical replayed calls, whose count it
//! records). Spans carry a name of the form `<layer>.<function>`, start
//! and end times relative to the recorder's epoch, and the id of the
//! span that caused them. Recording is off unless [`enable`] was called,
//! so the untraced runs pay one atomic load per call site.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u32,
    /// Id of the causing span, 0 for a root.
    pub parent: u32,
    /// `<layer>.<function>`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Calls covered (1 unless the span covers a replayed batch).
    pub calls: u64,
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on or off.
pub fn enable(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ON.store(on, Ordering::SeqCst);
}

/// Runs `f` inside a span named `name` under `parent`, covering `calls`
/// calls. `f` receives the new span's id (0 when recording is off) to
/// pass as the parent of nested spans.
pub fn span<T>(name: &'static str, parent: u32, calls: u64, f: impl FnOnce(u32) -> T) -> T {
    if !ON.load(Ordering::Relaxed) {
        return f(0);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let start_ns = now_ns();
    let out = f(id);
    let end_ns = now_ns();
    SPANS.lock().expect("span recorder poisoned").push(Span {
        id,
        parent,
        name,
        start_ns,
        end_ns,
        calls,
    });
    out
}

/// Takes every span recorded so far, in id order.
pub fn take() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span recorder poisoned"));
    spans.sort_by_key(|s| s.id);
    spans
}

/// Writes `spans` as JSON lines to `path`, creating its directory.
pub fn write(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.calls
        )?;
    }
    out.flush()
}
