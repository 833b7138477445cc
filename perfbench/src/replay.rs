//! Kernel replay: the workload's own basic windows fed back through the
//! `kernel::par` entry points at the workload's partition count, one
//! call at a time, to time each operator on its own.

use crate::gen::{Batch, S_G, S_J, S_V, S_X, T_J, X_THRESHOLD};
use datacell::kernel::algebra::{AggKind, Predicate};
use datacell::kernel::{par, Bat, ParConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Basic windows replayed per traced run.
pub const REPLAY_WINDOWS: usize = 256;

/// Mean µs per call of select, grouped aggregation, join, sort and fetch
/// over the first [`REPLAY_WINDOWS`] batches (cycled if fewer).
pub fn replay(batches: &[Batch], cfg: &ParConfig) -> Result<[f64; 5], String> {
    let mut total = [Duration::ZERO; 5];
    let err = |op: &str, e: datacell::kernel::KernelError| format!("replay {op}: {e}");
    for k in 0..REPLAY_WINDOWS {
        let b = &batches[k % batches.len()];
        let other = &batches[(k + 1) % batches.len()];
        let x = Bat::new(0, b.s[S_X].clone());
        let g = Bat::new(0, b.s[S_G].clone());
        let v = Bat::new(0, b.s[S_V].clone());
        let sj = Bat::new(0, b.s[S_J].clone());
        // Single-stream workloads have no `t`: join with the next basic
        // window of `s` instead.
        let tj = Bat::new(0, other.t.get(T_J).unwrap_or(&other.s[S_J]).clone());

        let t0 = Instant::now();
        let cands =
            par::select(&x, &Predicate::gt(X_THRESHOLD), cfg).map_err(|e| err("select", e))?;
        let t1 = Instant::now();
        let specs = [(AggKind::Sum, Some(&v)), (AggKind::Count, None), (AggKind::Avg, Some(&v))];
        let grouped = par::grouped_agg_multi(&g, &specs, cfg).map_err(|e| err("group_agg", e))?;
        let t2 = Instant::now();
        let joined = par::hashjoin(&sj, &tj, cfg).map_err(|e| err("join", e))?;
        let t3 = Instant::now();
        let perm = par::sort_perm(&v, true, cfg).map_err(|e| err("sort", e))?;
        let t4 = Instant::now();
        let fetched = par::fetch(&cands, &v, cfg).map_err(|e| err("fetch", e))?;
        let t5 = Instant::now();

        black_box((&grouped, &joined, &perm, &fetched));
        for (slot, d) in total.iter_mut().zip([t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4]) {
            *slot += d;
        }
    }
    Ok(total.map(|d| d.as_secs_f64() * 1e6 / REPLAY_WINDOWS as f64))
}
