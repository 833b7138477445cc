//! `mix_p1` / `mix_p2`: the four standing queries in process, closed
//! loop. Each round appends one batch per stream, runs the scheduler
//! until idle and drains every query; every query slides once per round.

use crate::gen::{self, Batch, Query, SLIDE, WARM_STEPS};
use crate::harness::{
    build_engine, expected, Block, Built, Checker, Counters, EndToEnd, Outcome, PerLayer, Probe,
    SETUPS,
};
use crate::measure::{median, median_s, per};
use crate::reference::canon_result;
use crate::sys::{peak_rss_mb, process_cpu_ns};
use crate::trace::{Name, Tracer};
use datacell::kernel::ParConfig;
use datacell::plan::ResultSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// Distinct input batches per run; the stream cycles through them.
pub const POOL_STEPS: usize = 1024;
/// Rounds per block of the timed phase. Results are held for one block
/// and checked in the pause after it, so the memory they take does not
/// depend on the engine's speed.
const BLOCK_ROUNDS: usize = 128;
/// Timed rounds after which `peak_rss_mb` is read. A fixed round count,
/// not the end of a fixed-time run: every query keeps one metrics record
/// per slide, so memory at the end of a run grows with the engine's speed.
/// The timed phase runs at least this many rounds.
const RSS_ROUNDS: usize = 1024;

/// Results of one round, per query in [`Query::MIX`] order.
type Round = Vec<Vec<ResultSet>>;

/// One closed-loop round over batch `k` (stream `t` only when the batch
/// has rows for it). Latency samples (seconds from the first append to
/// the drain of each window) go to `lat`.
pub fn round(
    b: &mut Built,
    batch: &Batch,
    k: usize,
    tracer: &mut Tracer,
    lat: &mut Vec<f64>,
) -> Result<Round, String> {
    let t0 = Instant::now();
    b.engine.append("s", &batch.s).map_err(|e| format!("append s: {e}"))?;
    let t1 = Instant::now();
    if !batch.t.is_empty() {
        b.engine.append("t", &batch.t).map_err(|e| format!("append t: {e}"))?;
    }
    let t2 = Instant::now();
    b.engine.run_until_idle().map_err(|e| format!("run_until_idle: {e}"))?;
    let t3 = Instant::now();
    let mut out = Vec::with_capacity(b.ids.len());
    for &id in &b.ids {
        let rs = b.engine.drain_results(id).map_err(|e| format!("drain: {e}"))?;
        let done = (Instant::now() - t0).as_secs_f64();
        lat.extend(std::iter::repeat_n(done, rs.len()));
        out.push(rs);
    }
    let t4 = Instant::now();
    if tracer.on() {
        let p = tracer.record(k, Name::Step, None, t0, t4);
        tracer.record(k, Name::AppendS, p, t0, t1);
        if !batch.t.is_empty() {
            tracer.record(k, Name::AppendT, p, t1, t2);
        }
        tracer.record(k, Name::Run, p, t2, t3);
        tracer.record(k, Name::Drain, p, t3, t4);
    }
    Ok(out)
}

/// Check stored rounds against the reference and, when `shadow` is
/// given, against a sequential engine fed the same batches in lockstep.
fn check(
    rounds: &[(usize, Round)],
    pool: &[Batch],
    checker: &mut Checker,
    mut shadow: Option<&mut Built>,
    received: &mut [usize],
) -> Result<(), String> {
    let mut off = Tracer::new(false);
    let mut scratch = Vec::new();
    for (k, res) in rounds {
        let k = *k;
        let seq = match shadow.as_deref_mut() {
            Some(sh) => Some(round(sh, &pool[k % pool.len()], k, &mut off, &mut scratch)?),
            None => None,
        };
        for (qi, &q) in Query::MIX.iter().enumerate() {
            let want = usize::from(k + 1 >= q.basic_windows());
            let got = &res[qi];
            received[qi] += got.len();
            if got.len() != want {
                for _ in 0..want.max(got.len()) {
                    checker.window(false, || {
                        format!("{} round {k}: {} windows, expected {want}", q.name(), got.len())
                    });
                }
                continue;
            }
            if want == 0 {
                continue;
            }
            let rows = canon_result(&got[0]);
            let mut ok = rows.as_ref() == Some(&expected(q, pool, k));
            let mut why = "differs from the reference";
            if let Some(seq) = &seq {
                if seq[qi].len() != 1 || canon_result(&seq[qi][0]) != rows {
                    ok = false;
                    why = "differs from the sequential engine";
                }
            }
            checker.window(ok, || format!("{} window closing at round {k} {why}", q.name()));
        }
    }
    Ok(())
}

/// Run one mix workload at `p` workers = partitions = shards.
pub fn run(
    p: usize,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: &Path,
) -> Result<Outcome, String> {
    let pool = gen::batches(seed, POOL_STEPS, true);
    let mut tracer = Tracer::new(trace);
    let mut checker = Checker::default();
    let mut notes = Vec::new();
    let probe = Probe::new();

    // Set-up: engine, streams, queries and warm-up to every query's
    // first full window, several times, each scaled by the probe taken
    // around it; the last engine runs on.
    let (mut setups, mut raw_setups) = (Vec::new(), Vec::new());
    let (mut parses, mut regs) = (Vec::new(), Vec::new());
    let mut live = None;
    for i in 0..SETUPS {
        let (built, scale) = probe.around(|| -> Result<_, String> {
            let t0 = Instant::now();
            let mut b = build_engine(p, &Query::MIX, true)?;
            let mut warm = Vec::with_capacity(WARM_STEPS);
            let (mut off, mut scratch) = (Tracer::new(false), Vec::new());
            for (k, batch) in pool.iter().enumerate().take(WARM_STEPS) {
                warm.push((k, round(&mut b, batch, k, &mut off, &mut scratch)?));
            }
            Ok((b, warm, t0.elapsed()))
        });
        let (b, warm, took) = built?;
        setups.push(took.as_secs_f64() * scale);
        raw_setups.push(took);
        parses.push(b.parse);
        regs.push(b.register);
        if i + 1 == SETUPS {
            live = Some((b, warm));
        }
    }
    let (mut b, mut pending) = live.expect("at least one set-up");

    // Timed phase, in blocks of BLOCK_ROUNDS rounds separated by pauses
    // that check and free the stored results; the clocks stop during a
    // pause. The host-speed probe runs at both ends of every block.
    let limit = Duration::from_secs_f64(seconds);
    let mut blocks = Vec::new();
    let mut timed = Duration::ZERO;
    let mut counters = Counters::default();
    let mut shadow = if p > 1 { Some(build_engine(1, &Query::MIX, true)?) } else { None };
    let mut received = [0usize; 4];
    let mut k = WARM_STEPS;
    let mut rss = None;
    while timed < limit || rss.is_none() {
        let probe_before = probe.time_ns();
        let before = trace.then(|| Counters::read(&b.engine));
        let mut lat = Vec::with_capacity(BLOCK_ROUNDS * Query::MIX.len());
        let k0 = k;
        let (w0, c0) = (Instant::now(), process_cpu_ns());
        while k < k0 + BLOCK_ROUNDS {
            let r = round(&mut b, &pool[k % POOL_STEPS], k, &mut tracer, &mut lat)?;
            pending.push((k, r));
            k += 1;
        }
        let c1 = process_cpu_ns();
        let wall = w0.elapsed();
        timed += wall;
        let rows = ((k - k0) * 2 * SLIDE) as u64;
        let probe_ns = (probe_before + probe.time_ns()) / 2.0;
        blocks.push(Block { rows, wall, cpu_ns: c1 - c0, lat, probe_ns: Some(probe_ns) });
        if let Some(before) = before {
            counters.add_delta(&before, &Counters::read(&b.engine));
        }
        check(&pending, &pool, &mut checker, shadow.as_mut(), &mut received)?;
        pending.clear();
        if rss.is_none() && k >= WARM_STEPS + RSS_ROUNDS {
            rss = Some(peak_rss_mb());
        }
    }
    let steps = (k - WARM_STEPS) as u64;

    // Property: (N − W)/slide + 1 windows per query, each exactly once.
    let mut correct = true;
    for (qi, &q) in Query::MIX.iter().enumerate() {
        if received[qi] != q.windows_after(k) {
            correct = false;
            notes.push(format!(
                "{}: {} windows, expected {}",
                q.name(),
                received[qi],
                q.windows_after(k)
            ));
        }
    }
    let rows = steps * 2 * SLIDE as u64;
    let mut e2e = EndToEnd::from_blocks(&blocks, median(setups), rss.unwrap_or_default());
    e2e.raw_setup_s = median_s(&raw_setups);
    if e2e.samples < 1000 {
        notes.push(format!("only {} latency samples", e2e.samples));
    }
    let mut layers = PerLayer::default();
    if trace {
        layers = engine_layers(&tracer, &b, &Query::MIX, rows, steps, p, &pool)?;
        layers.counters = counters;
        layers.e2e_extra = e2e.extra();
        layers.sql_parse_us = median_s(&parses) * 1e6;
        layers.core_register_us = median_s(&regs) * 1e6;
        let spans: Duration = [Name::AppendS, Name::AppendT, Name::Run, Name::Drain]
            .into_iter()
            .map(|n| tracer.total(n).0)
            .sum();
        layers.ledger_unattributed_pct = 100.0 * (1.0 - spans.as_secs_f64() / timed.as_secs_f64());
        layers.trace_overhead_pct =
            100.0 * Tracer::cost_per_span_ns() * tracer.spans().len() as f64
                / timed.as_nanos() as f64;
        tracer.write(trace_out).map_err(|e| format!("writing {}: {e}", trace_out.display()))?;
    }
    notes.extend(checker.notes.iter().cloned());
    Ok(Outcome {
        correct: correct && checker.failed == 0,
        attempted: checker.attempted,
        failed: checker.failed,
        e2e,
        layers,
        notes,
    })
}

/// The engine-side ledger from traced rounds of `b` (after warm-up):
/// append cost per row, run and drain time per round, the Fig. 7 split
/// per query, the scheduler's overhead, and the kernel replay at `p`.
pub fn engine_layers(
    tracer: &Tracer,
    b: &Built,
    queries: &[Query],
    rows: u64,
    steps: u64,
    p: usize,
    pool: &[Batch],
) -> Result<PerLayer, String> {
    let mut layers = PerLayer { steps, ..PerLayer::default() };
    let (append_s, _) = tracer.total(Name::AppendS);
    let (append_t, _) = tracer.total(Name::AppendT);
    layers.basket_append_ns_per_row = per((append_s + append_t).as_nanos() as f64, rows);
    let (run, runs) = tracer.total(Name::Run);
    let (drain, drains) = tracer.total(Name::Drain);
    layers.core_run_until_idle_us = per(run.as_secs_f64() * 1e6, runs);
    layers.core_drain_us = per(drain.as_secs_f64() * 1e6, drains);

    // Fig. 7 split over the traced windows, and the scheduler's overhead:
    // each round's run time minus the slides it fired.
    let mut slides = Vec::new();
    for (&q, &id) in queries.iter().zip(&b.ids) {
        let ms = b.engine.metrics(id).map_err(|e| format!("metrics: {e}"))?;
        let slot = Query::MIX.iter().position(|&m| m == q).expect("every query is in MIX");
        layers.splits[slot].add(&ms[q.windows_after(WARM_STEPS).min(ms.len())..]);
        slides.push((q, ms));
    }
    let mut overhead = 0.0;
    for s in tracer.spans().iter().filter(|s| s.name == Name::Run) {
        let step = s.step as usize;
        let fired: Duration = slides
            .iter()
            .filter_map(|(q, ms)| ms.get((step + 1).checked_sub(q.basic_windows())?))
            .map(|m| m.total)
            .sum();
        overhead += s.dur().as_secs_f64() - fired.as_secs_f64();
    }
    layers.core_sched_overhead_us = per(overhead * 1e6, runs);

    let cfg = ParConfig::new(p).with_placement(b.engine.placement());
    layers.kernel_us = crate::replay::replay(pool, &cfg)?;
    Ok(layers)
}
