//! A host speed probe. The reference host is a virtual machine on a
//! shared physical host, and the speed of its CPUs swings by ±20% within
//! seconds: the same single-threaded work costs that much more or less
//! CPU time from one stretch to the next. The probe runs a fixed
//! arithmetic kernel on a thread of its own every [`PERIOD`] while a
//! chunk of work is measured. The benchmark process is pinned to one CPU,
//! so probe and workload share that CPU, interleaved, and see the same
//! host speed. A chunk's CPU time is then scaled by the kernel's
//! reference time over its mean measured time, which removes the host's
//! speed from the chunk's cost.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::report::thread_cpu_s;

/// Time between two kernel runs.
const PERIOD: Duration = Duration::from_millis(10);
/// Rotation rounds in one kernel run.
const KERNEL_ROUNDS: usize = 10_000;
/// CPU seconds one kernel run takes on the reference host at the median
/// of its speed: a fixed constant, so that calibrated costs read in the
/// reference host's microseconds.
pub const KERNEL_REF_S: f64 = 2.3e-4;

/// The kernel: plane rotations of a 16-amplitude complex vector, the
/// size of a 4-qubit state, in the shape of a statevector gate sweep.
fn kernel() -> f64 {
    let mut re = [0.25f64; 16];
    let mut im = [0.0f64; 16];
    let (c, s) = (0.8f64, 0.6f64);
    for _ in 0..KERNEL_ROUNDS {
        for k in (0..16).step_by(2) {
            let (a, b) = (re[k], re[k + 1]);
            re[k] = c * a - s * b;
            re[k + 1] = s * a + c * b;
            let (a, b) = (im[k], im[k + 1]);
            im[k] = c * a - s * b + 0.01 * re[k];
            im[k + 1] = s * a + c * b;
        }
        std::hint::black_box((&mut re, &mut im));
    }
    re.iter().chain(&im).sum()
}

#[derive(Default)]
struct Samples {
    /// CPU seconds of each kernel run so far.
    kernel_s: Vec<f64>,
    /// CPU seconds the probe thread has used so far.
    thread_s: f64,
}

struct Shared {
    stop: AtomicBool,
    /// Kernel runs happen only while a chunk is measured.
    active: AtomicBool,
    samples: Mutex<Samples>,
}

impl Shared {
    fn samples(&self) -> MutexGuard<'_, Samples> {
        self.samples.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Where a chunk started: kernel runs and probe CPU seconds so far.
pub struct Mark {
    runs: usize,
    thread_s: f64,
}

/// What the probe saw during a chunk.
pub struct Seen {
    /// Mean CPU seconds of a kernel run; `None` when none completed.
    pub kernel_s: Option<f64>,
    /// CPU seconds the probe thread used, to subtract from the chunk.
    pub thread_s: f64,
}

pub struct SpeedProbe {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl SpeedProbe {
    /// Starts the probe thread, idle until [`SpeedProbe::mark`].
    pub fn start() -> Result<SpeedProbe, String> {
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            active: AtomicBool::new(false),
            samples: Mutex::new(Samples::default()),
        });
        let probe = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("speed-probe".into())
            .spawn(move || {
                let mut last = thread_cpu_s().unwrap_or(0.0);
                while !probe.stop.load(Ordering::Relaxed) {
                    std::thread::sleep(PERIOD);
                    if !probe.active.load(Ordering::Relaxed) {
                        continue;
                    }
                    let (Ok(k0), _, Ok(k1)) = (thread_cpu_s(), kernel(), thread_cpu_s()) else {
                        continue;
                    };
                    let mut samples = probe.samples();
                    samples.kernel_s.push(k1 - k0);
                    samples.thread_s += k1 - last;
                    last = k1;
                }
            })
            .map_err(|e| format!("start the speed probe: {e}"))?;
        Ok(SpeedProbe {
            shared,
            worker: Some(worker),
        })
    }

    /// Starts sampling for a chunk.
    pub fn mark(&self) -> Mark {
        let samples = self.shared.samples();
        self.shared.active.store(true, Ordering::Relaxed);
        Mark {
            runs: samples.kernel_s.len(),
            thread_s: samples.thread_s,
        }
    }

    /// Stops sampling and reports what the probe saw since `mark`.
    pub fn since(&self, mark: &Mark) -> Seen {
        self.shared.active.store(false, Ordering::Relaxed);
        let samples = self.shared.samples();
        let runs = &samples.kernel_s[mark.runs..];
        Seen {
            kernel_s: (!runs.is_empty()).then(|| runs.iter().sum::<f64>() / runs.len() as f64),
            thread_s: samples.thread_s - mark.thread_s,
        }
    }
}

impl Drop for SpeedProbe {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}
