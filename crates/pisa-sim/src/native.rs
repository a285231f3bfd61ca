//! The native execution engine: compile [`crate::codegen`] output with
//! the in-container `rustc` and drive it as a `dlopen`'d cdylib.
//!
//! Bridge choice: a cdylib loaded in-process. The alternative — a
//! subprocess speaking a length-prefixed PHV/register protocol over
//! stdio — costs two context switches plus serialization per packet,
//! which caps throughput far below the bytecode engine; a `dlopen`'d
//! function call costs nanoseconds. `dlopen`/`dlsym` are declared as
//! bare `extern "C"` against libc (glibc ≥ 2.34 hosts them in libc
//! proper), so no external crate is needed on either side of the bridge.
//!
//! All state stays host-owned. [`prepare_native`] caches one cell pointer
//! per register instance ([`RegState::cells`] never resizes after build,
//! and the heap buffers are stable across `Switch` moves); the tables are
//! the bytecode engine's own, passed as `#[repr(C)]` views rebuilt at
//! every call, so no rehash leaves a pointer stale. Control-plane calls
//! and snapshots therefore work unchanged under [`Backend::Native`], with
//! nothing to mirror.
//!
//! Failure is typed, never a panic: a missing `rustc` is
//! [`NativeError::RustcMissing`], a codegen bug that fails to compile is
//! [`NativeError::CompileFailed`] with the full stderr. Lazy preparation
//! from [`Switch::run_packet`] surfaces these as
//! [`SimError::BadProgram`]; callers wanting the typed value call
//! [`Switch::prepare_native`] first.
//!
//! [`prepare_native`]: Switch::prepare_native
//! [`RegState::cells`]: crate::RegState
//! [`Backend::Native`]: crate::Backend::Native

use std::ffi::CString;
use std::fmt;
use std::os::raw::{c_char, c_int, c_void};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::codegen::{self, ABI_VERSION};
use crate::compiled::DefaultAction;
use crate::flat_table::{Table, TableView};
use crate::interp::{SimError, Switch};

// ------------------------------------------------------------- errors

/// Why the native backend could not be prepared. Every variant is a
/// diagnostic, not a panic — `rustc` going missing or a codegen bug must
/// degrade into a reportable error (`tests/no_panic.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NativeError {
    /// No usable `rustc` on PATH (or at `$P4ALL_RUSTC`).
    RustcMissing(String),
    /// `rustc` rejected the generated source — a codegen bug by
    /// definition; the full compiler stderr is preserved.
    CompileFailed { stderr: String },
    /// Filesystem trouble writing or cleaning the scratch crate.
    Io(String),
    /// The built cdylib failed to load or is ABI-incompatible.
    Load(String),
}

impl fmt::Display for NativeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NativeError::RustcMissing(detail) => write!(f, "rustc unavailable: {detail}"),
            NativeError::CompileFailed { stderr } => {
                write!(f, "generated code failed to compile:\n{stderr}")
            }
            NativeError::Io(detail) => write!(f, "i/o error: {detail}"),
            NativeError::Load(detail) => write!(f, "cdylib load error: {detail}"),
        }
    }
}

impl std::error::Error for NativeError {}

/// Timings and sizes from one [`Switch::prepare_native`] call, recorded
/// into the compile trace by the CLI (`native-gen` / `native-rustc`
/// passes).
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeReport {
    /// Time lowering the `Switch` to Rust source.
    pub gen_time: Duration,
    /// Time `rustc` spent building the cdylib.
    pub rustc_time: Duration,
    /// Size of the generated source in bytes.
    pub source_bytes: usize,
}

// ----------------------------------------------------------- dl bridge

extern "C" {
    fn dlopen(filename: *const c_char, flag: c_int) -> *mut c_void;
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
    fn dlerror() -> *mut c_char;
    fn dlclose(handle: *mut c_void) -> c_int;
}

const RTLD_NOW: c_int = 2;

type VersionFn = unsafe extern "C" fn() -> u64;
/// `p4n_run_batch(phvs, n, tables, regs, fault) -> first faulting index
/// (== n on success)` of an undo-free program.
type RunFn =
    unsafe extern "C" fn(*mut u64, u64, *const TableView, *const *mut u64, *mut u64) -> u64;
/// `p4n_run_batch(phvs, n, tables, regs, undo, fault)` of a program that
/// logs its register writes into `undo`, `UNDO_CAP` records.
type LoggedRunFn = unsafe extern "C" fn(
    *mut u64,
    u64,
    *const TableView,
    *const *mut u64,
    *mut [u64; 3],
    *mut u64,
) -> u64;

/// The generated entry point, with the undo buffer it takes, if any.
enum EntryPoint {
    UndoFree(RunFn),
    /// The buffer holds the most register writes one packet can make.
    Logged(LoggedRunFn, Vec<[u64; 3]>),
}

fn last_dl_error() -> String {
    unsafe {
        let msg = dlerror();
        if msg.is_null() {
            "unknown dl error".to_string()
        } else {
            std::ffi::CStr::from_ptr(msg).to_string_lossy().into_owned()
        }
    }
}

unsafe fn resolve(handle: *mut c_void, name: &str) -> Result<*mut c_void, NativeError> {
    let c = CString::new(name).expect("symbol names have no NULs");
    dlerror(); // clear any stale error
    let sym = dlsym(handle, c.as_ptr());
    if sym.is_null() {
        return Err(NativeError::Load(format!("symbol `{name}` missing: {}", last_dl_error())));
    }
    Ok(sym)
}

/// Check the ABI version of a loaded crate and resolve its entry point,
/// with an undo buffer of `undo_cap` records where the program logs.
///
/// # Safety
/// `handle` is a live `dlopen` handle of a crate `codegen` printed.
unsafe fn link_entry(
    handle: *mut c_void,
    undo_cap: Option<usize>,
) -> Result<EntryPoint, NativeError> {
    let version = resolve(handle, "p4n_abi_version")?;
    let got = std::mem::transmute::<*mut c_void, VersionFn>(version)();
    if got != ABI_VERSION {
        let msg = format!("ABI version mismatch: got {got}, want {ABI_VERSION}");
        return Err(NativeError::Load(msg));
    }
    let run = resolve(handle, "p4n_run_batch")?;
    Ok(match undo_cap {
        None => EntryPoint::UndoFree(std::mem::transmute::<*mut c_void, RunFn>(run)),
        Some(cap) => EntryPoint::Logged(
            std::mem::transmute::<*mut c_void, LoggedRunFn>(run),
            vec![[0; 3]; cap],
        ),
    })
}

// ---------------------------------------------------------- compiling

fn rustc_name() -> std::ffi::OsString {
    std::env::var_os("P4ALL_RUSTC").unwrap_or_else(|| "rustc".into())
}

/// Is a usable `rustc` on PATH? Probed once per process; the fuzz
/// harness and test suites use this to skip native checks gracefully.
pub fn rustc_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        Command::new(rustc_name())
            .arg("--version")
            .output()
            .map(|o| o.status.success())
            .unwrap_or(false)
    })
}

/// The `rustc` arguments of every native build, before `-o <lib> <src>`:
/// the one list the engine builds with and the warning check compiles with.
pub const RUSTC_ARGS: &str = "--edition 2021 --crate-name p4all_native --crate-type cdylib \
    -C opt-level=3 -C codegen-units=1 -C debuginfo=0 -C panic=abort";

/// Write `source` into `dir` and build it as an optimized cdylib with a
/// bare `rustc` invocation (no cargo, no external crates).
pub(crate) fn compile_cdylib(dir: &Path, source: &str) -> Result<PathBuf, NativeError> {
    std::fs::create_dir_all(dir).map_err(|e| NativeError::Io(e.to_string()))?;
    let src_path = dir.join("p4n.rs");
    let lib_path = dir.join("libp4n.so");
    std::fs::write(&src_path, source).map_err(|e| NativeError::Io(e.to_string()))?;
    let out = Command::new(rustc_name())
        .args(RUSTC_ARGS.split_whitespace())
        .arg("-o")
        .arg(&lib_path)
        .arg(&src_path)
        .output();
    match out {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(NativeError::RustcMissing(
            format!("`{}` not found on PATH", rustc_name().to_string_lossy()),
        )),
        Err(e) => Err(NativeError::Io(e.to_string())),
        Ok(o) if !o.status.success() => Err(NativeError::CompileFailed {
            stderr: String::from_utf8_lossy(&o.stderr).into_owned(),
        }),
        Ok(_) => Ok(lib_path),
    }
}

fn scratch_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "p4all-native-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

// ------------------------------------------------------------- engine

/// A loaded native pipeline: the dlopen handle, the resolved entry
/// point, and the host-side metadata needed to turn fault records back
/// into exact [`SimError`] values.
pub(crate) struct NativeEngine {
    handle: *mut c_void,
    entry: EntryPoint,
    /// One cell pointer per register instance, in register-index order.
    reg_ptrs: Vec<*mut u64>,
    /// The table views of the current call, refilled at every call.
    views: Vec<TableView>,
    /// Diagnostic strings for dynamic-slot bounds faults (code 2).
    diags: Vec<String>,
    /// Declared-but-uncompiled default action names by dense table id
    /// (code 4).
    unknown_defaults: Vec<Option<String>>,
    /// Scratch crate directory, removed on drop.
    dir: PathBuf,
}

impl NativeEngine {
    /// Run the `n` PHVs stored back to back at `phvs` against `tables`;
    /// returns the index of the first faulting one (its record in
    /// `fault`), or `n`.
    ///
    /// # Safety
    /// `phvs` points at `n` PHVs of this program's width, and `tables` are
    /// the tables of the switch this engine was prepared for.
    unsafe fn run(
        &mut self,
        tables: &[Table],
        phvs: *mut u64,
        n: usize,
        fault: &mut [u64; 4],
    ) -> usize {
        self.views.clear();
        self.views.extend(tables.iter().map(Table::view));
        let (views, regs, f) = (self.views.as_ptr(), self.reg_ptrs.as_ptr(), fault.as_mut_ptr());
        (match &mut self.entry {
            EntryPoint::UndoFree(run) => run(phvs, n as u64, views, regs, f),
            EntryPoint::Logged(run, undo) => run(phvs, n as u64, views, regs, undo.as_mut_ptr(), f),
        }) as usize
    }
}

impl Drop for NativeEngine {
    fn drop(&mut self) {
        unsafe { dlclose(self.handle) };
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

// ------------------------------------------------------ switch methods

impl Switch {
    /// The generated Rust source for this switch, for diagnostics and
    /// the codegen test suite. Deterministic: byte-identical across
    /// calls for an unchanged `Switch`.
    pub fn native_source(&self) -> String {
        codegen::generate(self).source
    }

    /// Generate, compile, load, and populate the native engine. Called
    /// lazily by [`Switch::run_packet`] under [`crate::Backend::Native`];
    /// call it explicitly to get the typed error and the build timings.
    /// Idempotent: a second call on a prepared switch is a no-op
    /// returning a zeroed report.
    pub fn prepare_native(&mut self) -> Result<NativeReport, NativeError> {
        if self.native.is_some() {
            return Ok(NativeReport::default());
        }

        let t_gen = Instant::now();
        let generated = codegen::generate(self);
        let gen_time = t_gen.elapsed();
        let source_bytes = generated.source.len();

        let dir = scratch_dir();
        let t_rustc = Instant::now();
        let lib_path = match compile_cdylib(&dir, &generated.source) {
            Ok(p) => p,
            Err(e) => {
                let _ = std::fs::remove_dir_all(&dir);
                return Err(e);
            }
        };
        let rustc_time = t_rustc.elapsed();

        let path_c = CString::new(lib_path.as_os_str().to_string_lossy().into_owned())
            .map_err(|_| NativeError::Load("NUL in scratch path".to_string()))?;
        let handle = unsafe { dlopen(path_c.as_ptr(), RTLD_NOW) };
        if handle.is_null() {
            let err = NativeError::Load(last_dl_error());
            let _ = std::fs::remove_dir_all(&dir);
            return Err(err);
        }

        let entry = match unsafe { link_entry(handle, generated.undo_cap) } {
            Ok(entry) => entry,
            Err(e) => {
                unsafe { dlclose(handle) };
                let _ = std::fs::remove_dir_all(&dir);
                return Err(e);
            }
        };
        self.native = Some(NativeEngine {
            handle,
            entry,
            // Cell pointers are stable: `cells` never resizes after build,
            // and Vec heap buffers survive moves of the owning `Switch`.
            reg_ptrs: self.registers.iter_mut().map(|r| r.cells.as_mut_ptr()).collect(),
            views: Vec::with_capacity(self.ctables.len()),
            diags: generated.diags,
            unknown_defaults: self
                .compiled
                .tables
                .iter()
                .map(|t| match &t.default_action {
                    DefaultAction::Unknown(name) => Some(name.clone()),
                    _ => None,
                })
                .collect(),
            dir,
        });
        Ok(NativeReport { gen_time, rustc_time, source_bytes })
    }

    /// Execute one packet on the native engine, mapping the 4-word fault
    /// record back to the exact [`SimError`] the interpreter would have
    /// produced. The generated code rolls its own register writes back
    /// before returning a fault, so the host-side undo log stays empty.
    pub(crate) fn run_packet_native(&mut self) -> Result<(), SimError> {
        if self.native.is_none() {
            self.prepare_native()
                .map_err(|e| SimError::BadProgram(format!("native backend unavailable: {e}")))?;
        }
        let engine = self.native.as_mut().expect("prepared above");
        let mut fault = [0u64; 4];
        // SAFETY: `cur` is one PHV of this program's width; the tables are
        // this switch's.
        if unsafe { engine.run(&self.ctables, self.cur.slots.as_mut_ptr(), 1, &mut fault) } == 1 {
            return Ok(());
        }
        match fault[0] {
            1 => Err(SimError::DivByZero),
            2 => Err(SimError::IndexOutOfBounds {
                what: engine.diags.get(fault[1] as usize).cloned().unwrap_or_default(),
                index: fault[2],
                len: fault[3] as usize,
            }),
            3 => {
                let r = &self.registers[fault[1] as usize];
                Err(SimError::IndexOutOfBounds {
                    what: format!("{}[{}]", r.reg, r.instance),
                    index: fault[2],
                    len: fault[3] as usize,
                })
            }
            4 => Err(SimError::UnknownAction(
                engine
                    .unknown_defaults
                    .get(fault[1] as usize)
                    .and_then(|n| n.clone())
                    .unwrap_or_default(),
            )),
            other => {
                Err(SimError::BadProgram(format!("native engine returned unknown fault code {other}")))
            }
        }
    }

    /// Batched native trace replay: packets are packed back to back and
    /// executed through `p4n_run_batch`, one FFI call per `width`-packet
    /// batch instead of one per packet. Returns the drop count, or
    /// `None` when the native engine can't be prepared (the caller's
    /// scalar loop then reproduces the per-packet error path exactly).
    ///
    /// A fault inside a batch is resumed after: the generated code rolls
    /// the faulting packet's register writes back and reports its index,
    /// and execution continues at the next packet — identical drop and
    /// state semantics to the scalar loop.
    pub(crate) fn run_trace_native_batched(
        &mut self,
        trace: &[crate::state::Phv],
        width: usize,
    ) -> Option<u64> {
        let stride = self.masks.len();
        if stride == 0 {
            return None;
        }
        if self.native.is_none() && self.prepare_native().is_err() {
            return None;
        }
        let engine = self.native.as_mut().expect("prepared above");
        let mut buf: Vec<u64> = vec![0; width * stride];
        let mut fault = [0u64; 4];
        let mut dropped = 0u64;
        for chunk in trace.chunks(width) {
            let n = chunk.len();
            for (i, p) in chunk.iter().enumerate() {
                buf[i * stride..(i + 1) * stride].copy_from_slice(&p.slots);
            }
            let mut start = 0usize;
            while start < n {
                // SAFETY: rows `start..n` of `buf` are PHVs of `stride` words;
                // the tables are this switch's.
                let ret = unsafe {
                    let phvs = buf.as_mut_ptr().add(start * stride);
                    engine.run(&self.ctables, phvs, n - start, &mut fault)
                };
                if ret == n - start {
                    break;
                }
                dropped += 1;
                start += ret + 1;
            }
            // The batch ran in place: the last row is the final PHV (on a
            // fault it holds the partially-executed PHV, exactly like the
            // scalar path leaves `cur`).
            self.cur.slots.copy_from_slice(&buf[(n - 1) * stride..n * stride]);
        }
        Some(dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A compile failure must come back as a typed diagnostic carrying
    /// the rustc stderr, never a panic.
    #[test]
    fn bad_source_reports_compile_failed() {
        if !rustc_available() {
            eprintln!("skipping: rustc not on PATH");
            return;
        }
        let dir = scratch_dir();
        let err = compile_cdylib(&dir, "fn broken( {").expect_err("must not compile");
        match err {
            NativeError::CompileFailed { stderr } => {
                assert!(stderr.contains("error"), "stderr should carry the rustc error: {stderr}")
            }
            other => panic!("expected CompileFailed, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
