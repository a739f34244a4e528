//! What a workload hands back, the statistics it is reduced with, and
//! the host metadata printed beside it.

use std::time::Instant;

use crate::probe::{SpeedProbe, KERNEL_REF_S};
use crate::trace::Trace;

/// A workload's result: operations attempted and failed, named
/// correctness gates, and metric values by name.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub gates: Vec<(String, bool)>,
    pub metrics: Vec<(String, f64)>,
    /// Extra human-readable lines for the text report.
    pub notes: Vec<String>,
    /// The traced run's recording (trace mode only).
    pub trace: Option<Trace>,
}

impl Outcome {
    pub fn gate(&mut self, name: impl Into<String>, ok: bool) {
        self.gates.push((name.into(), ok));
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a traced run: the wall time of its untraced and traced
    /// sides, the tracing overhead, the thread time of the traced side
    /// outside every op span, and the recording itself.
    pub fn traced(&mut self, untraced_s: f64, traced_s: f64, unattributed_s: f64, trace: Trace) {
        self.metric("trace.untraced_s", untraced_s);
        self.metric("trace.traced_s", traced_s);
        self.metric(
            "trace.overhead_pct",
            100.0 * (traced_s - untraced_s) / untraced_s,
        );
        self.metric("trace.unattributed_s", unattributed_s);
        self.trace = Some(trace);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|(_, ok)| *ok)
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of a non-empty sample, by linear interpolation
/// between order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Segments the measured window of an untraced run is split into, with a
/// set-up block before each and after the last (see [`Meter::setup`]).
pub const SEGMENTS: u64 = 10;

/// Set-up repetitions per block: at least this many, and for at least
/// this long, so that the speed probe runs about 10 times in a block.
const BLOCK_MIN_REPS: usize = 9;
const BLOCK_MIN_S: f64 = 0.1;

/// Measures a run's set-up and CPU cost per operation against a
/// [`SpeedProbe`] that samples the host's speed while either is measured.
///
/// Set-up is timed in blocks of repetitions spread over the run, one
/// block before each measured segment and one after the last, so that
/// the blocks see the host's speed in the proportion the rest of the run
/// does. Work is measured in chunks: each chunk's process CPU time, less
/// the probe's own, over its operations.
///
/// Every block and chunk is reported raw and calibrated: scaled by
/// [`KERNEL_REF_S`] over the probe kernel's mean time during it, which
/// gives its cost at the reference host's speed. Results are medians
/// over blocks and chunks, so a burst of contention on the host moves a
/// few samples and not the result.
pub struct Meter {
    probe: SpeedProbe,
    setup: Samples,
    cpu: Samples,
    /// Each set-up block's median wall time, for the text report.
    setup_wall: Vec<f64>,
    /// The probe kernel's mean CPU seconds in each block and chunk.
    kernel_s: Vec<f64>,
}

/// Raw and calibrated samples of one quantity.
#[derive(Default)]
struct Samples {
    raw: Vec<f64>,
    calibrated: Vec<f64>,
}

impl Samples {
    fn push(&mut self, raw: f64, kernel_s: f64) {
        self.raw.push(raw);
        self.calibrated.push(raw * KERNEL_REF_S / kernel_s);
    }

    fn note(&self, what: &str, scale: f64, unit: &str) -> String {
        if self.raw.is_empty() {
            return format!("{what}: no sample");
        }
        let mut line = format!(
            "{what}: raw {:.3} {unit}, calibrated {:.3} {unit} (medians of {})",
            scale * median(&self.raw),
            scale * median(&self.calibrated),
            self.raw.len()
        );
        if self.raw.len() <= 8 {
            let each = |v: &[f64]| {
                v.iter()
                    .map(|x| format!("{:.3}", scale * x))
                    .collect::<Vec<_>>()
            };
            line += &format!(
                "; each raw {:?} calibrated {:?}",
                each(&self.raw),
                each(&self.calibrated)
            );
        }
        line
    }
}

impl Meter {
    pub fn start() -> Result<Meter, String> {
        Ok(Meter {
            probe: SpeedProbe::start()?,
            setup: Samples::default(),
            cpu: Samples::default(),
            setup_wall: Vec::new(),
            kernel_s: Vec::new(),
        })
    }

    /// Runs one block of `setup` repetitions (see [`BLOCK_MIN_REPS`]),
    /// records their median process CPU time (and wall time, for the
    /// report) and returns the last repetition's value. Each earlier value
    /// is dropped, untimed, before the next repetition. CPU time, as for
    /// the chunks: wall time also counts stretches when the host runs
    /// something else on this CPU, which the probe cannot see.
    pub fn setup<T, E: ToString>(
        &mut self,
        mut setup: impl FnMut() -> Result<T, E>,
    ) -> Result<T, String> {
        let mark = self.probe.mark();
        let started = Instant::now();
        let (mut cpu, mut wall) = (Vec::new(), Vec::new());
        let mut last = None;
        let mut block = || {
            while cpu.len() < BLOCK_MIN_REPS || started.elapsed().as_secs_f64() < BLOCK_MIN_S {
                drop(last.take());
                let (t0, c0) = (Instant::now(), process_cpu_s()?);
                let value = setup().map_err(|e| e.to_string())?;
                cpu.push(process_cpu_s()? - c0);
                wall.push(t0.elapsed().as_secs_f64());
                last = Some(value);
            }
            Ok::<(), String>(())
        };
        let done = block();
        let seen = self.probe.since(&mark);
        done?;
        if let Some(kernel_s) = seen.kernel_s {
            self.setup.push(median(&cpu), kernel_s);
            self.setup_wall.push(median(&wall));
            self.kernel_s.push(kernel_s);
        }
        Ok(last.expect("at least one repetition"))
    }

    /// Runs one chunk of work; `work` returns its value and its operation
    /// count. A chunk too short for the probe to finish a kernel run, or
    /// with no operation, is not a sample.
    pub fn chunk<T>(
        &mut self,
        work: impl FnOnce() -> Result<(T, u64), String>,
    ) -> Result<T, String> {
        let mark = self.probe.mark();
        let cpu0 = process_cpu_s()?;
        let worked = work();
        let cpu_s = process_cpu_s()? - cpu0;
        let seen = self.probe.since(&mark);
        let (value, ops) = worked?;
        if let (Some(kernel_s), true) = (seen.kernel_s, ops > 0) {
            self.cpu
                .push((cpu_s - seen.thread_s) / ops as f64, kernel_s);
            self.kernel_s.push(kernel_s);
        }
        Ok(value)
    }

    /// The calibrated set-up time in seconds: the median over blocks.
    pub fn setup_s(&self) -> Result<f64, String> {
        if self.setup.calibrated.is_empty() {
            return Err("no set-up block was sampled by the speed probe".into());
        }
        Ok(median(&self.setup.calibrated))
    }

    /// The calibrated CPU microseconds per operation: the median over
    /// chunks.
    pub fn cpu_us_per_op(&self) -> Result<f64, String> {
        if self.cpu.calibrated.is_empty() {
            return Err("no chunk was sampled by the speed probe".into());
        }
        Ok(1e6 * median(&self.cpu.calibrated))
    }

    /// Raw and calibrated figures, for the text report.
    pub fn notes(&self) -> [String; 4] {
        let kernel_us: Vec<f64> = self.kernel_s.iter().map(|s| 1e6 * s).collect();
        let range = |f: fn(f64, f64) -> f64| kernel_us.iter().copied().reduce(f).unwrap_or(0.0);
        [
            self.setup.note("setup cpu", 1e3, "ms"),
            format!(
                "setup wall: {:.3} ms (median of {} block medians)",
                if self.setup_wall.is_empty() { 0.0 } else { 1e3 * median(&self.setup_wall) },
                self.setup_wall.len()
            ),
            self.cpu.note("cpu", 1e6, "us/op"),
            format!(
                "speed probe: kernel {:.1} us (min {:.1}, max {:.1}) against {:.1} us at the reference speed",
                if kernel_us.is_empty() { 0.0 } else { median(&kernel_us) },
                range(f64::min),
                range(f64::max),
                1e6 * KERNEL_REF_S
            ),
        ]
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The C library calls the benchmark makes that `std` does not wrap.
mod sys {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    pub const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    /// Words in a `cpu_set_t` (1024 CPUs).
    pub const CPU_SET_WORDS: usize = 16;

    extern "C" {
        pub fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        pub fn sched_getcpu() -> i32;
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

fn cpu_clock_s(clock: i32) -> Result<f64, String> {
    let mut ts = sys::Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the duration of the call.
    let rc = unsafe { sys::clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return Err(format!("clock_gettime({clock}) returned {rc}"));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU seconds this process has used so far, over all its threads
/// (exited ones included), to the nanosecond.
pub fn process_cpu_s() -> Result<f64, String> {
    cpu_clock_s(sys::CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_s() -> Result<f64, String> {
    cpu_clock_s(sys::CLOCK_THREAD_CPUTIME_ID)
}

/// Restricts the calling thread, and every thread it starts afterwards,
/// to the one CPU it is running on, and returns that CPU's index. `main`
/// calls it before any other thread exists, so the whole benchmark runs
/// on one CPU: thread pools size themselves to it, no work runs on more
/// threads than CPUs, and no wake-up or TLB flush has to cross to
/// another virtual CPU, whose cost depends on what else the host runs.
pub fn pin_to_current_cpu() -> Result<usize, String> {
    let mut allowed = [0u64; sys::CPU_SET_WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the size passed.
    let rc = unsafe { sys::sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!("sched_getaffinity returned {rc}"));
    }
    let is_allowed =
        |cpu: usize| cpu < 64 * sys::CPU_SET_WORDS && allowed[cpu / 64] & (1 << (cpu % 64)) != 0;
    // SAFETY: `sched_getcpu` takes no arguments and only reads state.
    let current = unsafe { sys::sched_getcpu() };
    let cpu = usize::try_from(current)
        .ok()
        .filter(|&c| is_allowed(c))
        .or_else(|| (0..64 * sys::CPU_SET_WORDS).find(|&c| is_allowed(c)))
        .ok_or("the affinity mask allows no CPU")?;
    let mut mask = [0u64; sys::CPU_SET_WORDS];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sys::sched_setaffinity(0, size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} returned {rc}"));
    }
    Ok(cpu)
}

/// The commit the checkout was made from, read from `.git` without
/// spawning git; `unknown` outside a git work tree.
pub fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host and run metadata, as `key=value` pairs: `nproc` is the CPUs the
/// process could use before it pinned itself to `cpu`.
pub fn metadata(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    nproc: usize,
    cpu: usize,
) -> Vec<(String, String)> {
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    vec![
        ("workload".into(), workload.into()),
        ("seed".into(), seed.to_string()),
        ("seconds".into(), seconds.to_string()),
        ("trace".into(), u8::from(trace).to_string()),
        ("nproc".into(), nproc.to_string()),
        ("pinned_cpu".into(), cpu.to_string()),
        (
            "simd".into(),
            format!("{:?}", qmarl_qsim::simd::level()).to_lowercase(),
        ),
        ("profile".into(), profile.into()),
        ("commit".into(), git_commit()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }
}
