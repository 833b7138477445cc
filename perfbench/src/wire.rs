//! `wire_p1`: the single-stream queries served by `NetServer` on
//! loopback. One client thread drives one `INGEST` connection on an
//! open-loop schedule and one `SUBSCRIBE` connection to Q1; with the
//! server's loop thread that makes two threads, one per core.

use crate::gen::{self, Batch, Query, SLIDE, WARM_STEPS};
use crate::harness::{
    build_engine, expected, Block, Checker, Counters, EndToEnd, Outcome, Probe, SETUPS,
};
use crate::measure::{median, median_s, per, quantile};
use crate::mix::{engine_layers, round};
use crate::reference::{parse_q1_lines, render_lines, Row};
use crate::sys::{peak_rss_mb, thread_cpu_ns, thread_named};
use crate::trace::{Name, Tracer};
use datacell::net::{NetConfig, NetServer, NetStats};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Offered load of the open loop, rows per second: a small share of what
/// the server sustains on two cores, so the backlog stays flat even when
/// the host lends the server less than a core.
pub const RATE: f64 = 64_000.0;
/// Latency blocks: a second holds 250 windows, enough for a p90 with 25
/// samples beyond it.
const WIRE_BLOCK: Duration = Duration::from_secs(1);
/// Rows per scheduled send; four chunks make one slide.
const CHUNK: usize = 64;
/// Longest wait for results before the run is declared stuck.
const WAIT_LIMIT: Duration = Duration::from_secs(30);

/// The query the subscriber watches (registered first, label `q0`).
const WATCHED: Query = Query::Q1GroupBy;

/// Everything made before timing: rows, their CSV bytes, and the
/// reference result of every watched window.
struct Input {
    batches: Vec<Batch>,
    csv: Vec<u8>,
    /// Byte offset just past each `CHUNK`-row chunk.
    chunk_end: Vec<usize>,
    /// Reference rows per watched window.
    expect: Vec<Vec<Row>>,
    /// Result lines through each watched window (running sum).
    cum: Vec<usize>,
}

impl Input {
    fn new(seed: u64, steps: usize) -> Input {
        let batches = gen::batches(seed, steps, false);
        let mut csv = Vec::with_capacity(steps * SLIDE * 24);
        let mut chunk_end = Vec::with_capacity(steps * SLIDE / CHUNK);
        for b in &batches {
            let cols: Vec<&[i64]> = (0..b.s.len()).map(|c| b.s_col(c)).collect();
            for i in 0..SLIDE {
                let row: Vec<String> = cols.iter().map(|c| c[i].to_string()).collect();
                csv.extend_from_slice(row.join(",").as_bytes());
                csv.push(b'\n');
                if (i + 1) % CHUNK == 0 {
                    chunk_end.push(csv.len());
                }
            }
        }
        let nb = WATCHED.basic_windows();
        let expect: Vec<Vec<Row>> = (0..WATCHED.windows_after(steps))
            .map(|w| expected(WATCHED, &batches, nb - 1 + w))
            .collect();
        let cum = expect
            .iter()
            .scan(0, |acc, rows| {
                *acc += rows.len();
                Some(*acc)
            })
            .collect();
        Input { batches, csv, chunk_end, expect, cum }
    }
}

/// The `SUBSCRIBE` side: reads lines and marks watched windows complete.
struct Subscriber {
    sock: TcpStream,
    buf: Vec<u8>,
    lines: Vec<String>,
    /// Watched windows whose last line has arrived.
    done: usize,
}

impl Subscriber {
    /// Read everything available without blocking. Returns bytes read and
    /// calls `on_done` for every window the read completes.
    fn read(&mut self, cum: &[usize], mut on_done: impl FnMut(usize)) -> Result<usize, String> {
        let mut tmp = [0u8; 1 << 16];
        let mut total = 0;
        loop {
            match self.sock.read(&mut tmp) {
                Ok(0) => return Err("the server closed the subscription".into()),
                Ok(n) => {
                    self.buf.extend_from_slice(&tmp[..n]);
                    total += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("subscriber read: {e}")),
            }
        }
        let mut start = 0;
        while let Some(pos) = self.buf[start..].iter().position(|&b| b == b'\n') {
            self.lines.push(String::from_utf8_lossy(&self.buf[start..start + pos]).into_owned());
            start += pos + 1;
            while self.done < cum.len() && self.lines.len() >= cum[self.done] {
                on_done(self.done);
                self.done += 1;
            }
        }
        self.buf.drain(..start);
        Ok(total)
    }
}

/// The `INGEST` side: a nonblocking writer over the pre-rendered bytes.
struct Sender {
    sock: TcpStream,
    /// Bytes handed to the kernel so far.
    pos: usize,
    writes: u64,
    write_time: Duration,
}

impl Sender {
    /// Write what the socket takes of `csv[pos..target]`; true on progress.
    fn push(&mut self, csv: &[u8], target: usize) -> Result<bool, String> {
        let mut progressed = false;
        while self.pos < target {
            let t = Instant::now();
            let r = self.sock.write(&csv[self.pos..target]);
            self.write_time += t.elapsed();
            self.writes += 1;
            match r {
                Ok(0) => return Err("the server closed the ingest connection".into()),
                Ok(n) => {
                    self.pos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("ingest write: {e}")),
            }
        }
        Ok(progressed)
    }
}

/// A served engine with both client connections, warmed up.
struct Live {
    // Field order is drop order: the server stops first, then the sockets close.
    server: NetServer,
    sub: Subscriber,
    snd: Sender,
}

struct SetupTimes {
    total: Duration,
    parse: Duration,
    register: Duration,
    ack: Duration,
}

/// Build, serve, subscribe (waiting for the `OK` ack before any row is
/// sent), connect the ingest side, and warm up to every query's first
/// full window.
fn setup(input: &Input) -> Result<(Live, SetupTimes), String> {
    let t0 = Instant::now();
    let b = build_engine(1, &Query::WIRE, false)?;
    let server = NetServer::spawn(b.engine, "127.0.0.1:0", NetConfig::default())
        .map_err(|e| format!("spawn server: {e}"))?;
    let addr = server.local_addr();
    let io = |e: std::io::Error| format!("client socket: {e}");

    let mut sub = TcpStream::connect(addr).map_err(io)?;
    sub.set_nodelay(true).map_err(io)?;
    sub.set_read_timeout(Some(Duration::from_secs(10))).map_err(io)?;
    let ta = Instant::now();
    sub.write_all(b"SUBSCRIBE q0\n").map_err(io)?;
    let mut ack = Vec::new();
    let mut byte = [0u8; 1];
    while ack.last() != Some(&b'\n') {
        sub.read_exact(&mut byte).map_err(io)?;
        ack.push(byte[0]);
    }
    let ack_time = ta.elapsed();
    if !ack.starts_with(b"OK") {
        return Err(format!("SUBSCRIBE answered {:?}", String::from_utf8_lossy(&ack)));
    }
    sub.set_nonblocking(true).map_err(io)?;

    let mut ing = TcpStream::connect(addr).map_err(io)?;
    ing.set_nodelay(true).map_err(io)?;
    ing.write_all(b"INGEST s\n").map_err(io)?;
    ing.set_nonblocking(true).map_err(io)?;
    let mut live = Live {
        server,
        sub: Subscriber { sock: sub, buf: Vec::new(), lines: Vec::new(), done: 0 },
        snd: Sender { sock: ing, pos: 0, writes: 0, write_time: Duration::ZERO },
    };

    let warm_end = input.chunk_end[WARM_STEPS * SLIDE / CHUNK - 1];
    let warm_windows = WATCHED.windows_after(WARM_STEPS);
    let deadline = Instant::now() + WAIT_LIMIT;
    while live.sub.done < warm_windows {
        live.snd.push(&input.csv, warm_end)?;
        live.sub.read(&input.cum, |_| {})?;
        if Instant::now() > deadline {
            return Err("warm-up windows did not arrive".into());
        }
    }
    let times =
        SetupTimes { total: t0.elapsed(), parse: b.parse, register: b.register, ack: ack_time };
    Ok((live, times))
}

fn net_counts(s: &NetStats) -> [f64; 6] {
    [
        s.ingest_rows.get(),
        s.rx_bytes.get(),
        s.tx_bytes.get(),
        s.fanout_rows.get(),
        s.backpressure_ticks.get(),
        s.subscriber_overflows.get(),
    ]
    .map(|c| c as f64)
}

/// Run the wire workload.
pub fn run(seed: u64, seconds: f64, trace: bool, trace_out: &Path) -> Result<Outcome, String> {
    let timed_steps = ((RATE * seconds) as usize / SLIDE).max(1);
    let steps = WARM_STEPS + timed_steps;
    let input = Input::new(seed, steps);
    let mut tracer = Tracer::new(trace);
    let mut checker = Checker::default();
    let mut notes = Vec::new();
    let mut correct = true;

    // Set-ups, each scaled by the probe taken around it; the last one
    // serves the timed phase.
    let probe = Probe::new();
    let (mut setups, mut scaled_setups) = (Vec::new(), Vec::new());
    let mut live = None;
    for i in 0..SETUPS {
        let (built, scale) = probe.around(|| setup(&input));
        let (l, times) = built?;
        scaled_setups.push(times.total.as_secs_f64() * scale);
        setups.push(times);
        if i + 1 == SETUPS {
            live = Some(l);
        }
    }
    let mut live = live.expect("at least one set-up");

    // Open loop: chunk c is due at t0 + (c − first)·CHUNK/RATE, whether or
    // not the server keeps up; latency runs from the due time of the row
    // that completes a window to the arrival of that window's last line.
    let first = WARM_STEPS * SLIDE / CHUNK;
    let n_chunks = input.chunk_end.len();
    let n_windows = input.cum.len();
    let stats0 = net_counts(live.server.stats());
    let (writes0, write_time0) = (live.snd.writes, live.snd.write_time);
    let server_tid = thread_named("datacell-net").ok_or("no server thread")?;
    let server_cpu = || thread_cpu_ns(server_tid).ok_or("server thread CPU clock unreadable");
    let cpu0 = server_cpu()?;
    let t0 = Instant::now();
    let due = |c: usize| t0 + Duration::from_secs_f64((c - first) as f64 * CHUNK as f64 / RATE);
    let mut next = first;
    let mut sent = first;
    let mut late = Vec::with_capacity(n_chunks - first);
    let mut done_at: Vec<Option<Instant>> = vec![None; n_windows];
    let mut idle_since = None;
    loop {
        let now = Instant::now();
        while next < n_chunks && due(next) <= now {
            next += 1;
        }
        let progressed = live.snd.push(&input.csv, input.chunk_end[next - 1].max(live.snd.pos))?;
        let tw = Instant::now();
        while sent < next && live.snd.pos >= input.chunk_end[sent] {
            late.push(tw.saturating_duration_since(due(sent)).as_secs_f64());
            sent += 1;
        }
        let n = live.sub.read(&input.cum, |w| done_at[w] = Some(Instant::now()))?;
        let tr = Instant::now();
        if progressed || n > 0 {
            if let Some(idle) = idle_since.take() {
                tracer.record(sent, Name::GenWait, None, idle, now);
            }
            if progressed {
                tracer.record(sent, Name::GenSend, None, now, tw);
            }
            if n > 0 {
                tracer.record(sent, Name::SubRead, None, tw, tr);
            }
        } else if idle_since.is_none() {
            idle_since = Some(now);
        }
        if live.sub.done >= n_windows {
            break;
        }
        if next == n_chunks && tr > due(n_chunks - 1) + WAIT_LIMIT {
            return Err(format!("{} of {n_windows} windows arrived", live.sub.done));
        }
        // The client polls instead of sleeping: a virtual core that goes
        // idle waits for the hypervisor when woken, which adds
        // milliseconds of run-dependent delay to every measurement.
        std::thread::yield_now();
    }
    let end = Instant::now();
    let cpu = server_cpu()? - cpu0;
    let stats1 = net_counts(live.server.stats());
    let (writes, write_time) = (live.snd.writes - writes0, live.snd.write_time - write_time0);

    // Exactly once: no line may follow the last expected one.
    std::thread::sleep(Duration::from_millis(20));
    live.sub.read(&input.cum, |_| {})?;
    let lines = std::mem::take(&mut live.sub.lines);
    if lines.len() != input.cum[n_windows - 1] {
        correct = false;
        notes.push(format!("{} result lines, expected {}", lines.len(), input.cum[n_windows - 1]));
    }
    drop(live);

    // Latency of every window completed by a timed row.
    let nb = WATCHED.basic_windows();
    // Blocks by scheduled time: the rows due in each and the latency of
    // the windows those rows completed.
    let block_of = |t: Instant| (t - t0).as_secs_f64() / WIRE_BLOCK.as_secs_f64();
    let n_blocks = (due(n_chunks - 1) - t0).as_secs_f64() / WIRE_BLOCK.as_secs_f64();
    let mut blocks: Vec<Block> = (0..=n_blocks as usize)
        .map(|_| Block { rows: 0, wall: WIRE_BLOCK, cpu_ns: 0, lat: Vec::new(), probe_ns: None })
        .collect();
    for c in first..n_chunks {
        if let Some(b) = blocks.get_mut(block_of(due(c)) as usize) {
            b.rows += CHUNK as u64;
        }
    }
    for w in (0..n_windows).filter(|w| nb - 1 + w >= WARM_STEPS) {
        let sent = due((nb + w) * SLIDE / CHUNK - 1);
        if let (Some(done), Some(b)) = (done_at[w], blocks.get_mut(block_of(sent) as usize)) {
            b.lat.push(done.saturating_duration_since(sent).as_secs_f64());
        }
    }

    // Check: each window against the reference, and the wire lines
    // against the same queries run in process at P = 1.
    let mut shadow = build_engine(1, &Query::WIRE, false)?;
    let mut off = Tracer::new(false);
    let mut scratch = Vec::new();
    let before = Counters::read(&shadow.engine);
    let mut lo = 0;
    for (k, batch) in input.batches.iter().enumerate() {
        let t = if k < WARM_STEPS { &mut off } else { &mut tracer };
        let res = round(&mut shadow, batch, k, t, &mut scratch)?;
        let Some(w) = (k + 1).checked_sub(nb) else { continue };
        let hi = input.cum[w];
        let wire = &lines[lo.min(lines.len())..hi.min(lines.len())];
        let ok = parse_q1_lines(wire).as_ref() == Some(&input.expect[w])
            && res[0].len() == 1
            && render_lines(&res[0][0]) == wire;
        checker.window(ok, || format!("{} window {w} differs on the wire", WATCHED.name()));
        lo = hi;
    }

    let rows = (timed_steps * SLIDE) as u64;
    let mut e2e = EndToEnd::from_blocks(&blocks, median(scaled_setups), peak_rss_mb());
    e2e.raw_setup_s = median_s(&setups.iter().map(|s| s.total).collect::<Vec<_>>());
    // Blocks hold a fixed share of the schedule, so the rate comes from
    // the whole phase: rows over the time until their results arrived.
    // CPU is the server thread's alone (the client polls a whole core),
    // also over the whole phase: its clock is read only at the ends.
    e2e.rows_per_s = rows as f64 / (end - t0).as_secs_f64();
    e2e.cpu_ns_per_row = cpu as f64 / rows as f64;
    e2e.raw_rows_per_s = e2e.rows_per_s;
    if e2e.samples < 1000 {
        notes.push(format!("only {} latency samples", e2e.samples));
    }
    let mut layers = Default::default();
    if trace {
        let mut l = engine_layers(
            &tracer,
            &shadow,
            &Query::WIRE,
            rows,
            timed_steps as u64,
            1,
            &input.batches,
        )?;
        l.counters.add_delta(&before, &Counters::read(&shadow.engine));
        l.e2e_extra = e2e.extra();
        l.sql_parse_us = median_s(&setups.iter().map(|s| s.parse).collect::<Vec<_>>()) * 1e6;
        l.core_register_us = median_s(&setups.iter().map(|s| s.register).collect::<Vec<_>>()) * 1e6;
        l.net_subscribe_ack_ms = median_s(&setups.iter().map(|s| s.ack).collect::<Vec<_>>()) * 1e3;
        l.net_write_block_us = per(write_time.as_secs_f64() * 1e6, writes);
        for (i, c) in l.net_counts.iter_mut().enumerate() {
            *c = stats1[i] - stats0[i];
        }
        late.sort_by(f64::total_cmp);
        l.gen_late_ms = [late.last().copied().unwrap_or(0.0) * 1e3, quantile(&late, 0.99) * 1e3];
        let client = [Name::GenSend, Name::GenWait, Name::SubRead];
        let covered: Duration = client.iter().map(|&n| tracer.total(n).0).sum();
        let spans: u64 = client.iter().map(|&n| tracer.total(n).1).sum();
        let wall = (end - t0).as_secs_f64();
        l.ledger_unattributed_pct = 100.0 * (1.0 - covered.as_secs_f64() / wall);
        l.trace_overhead_pct = 100.0 * Tracer::cost_per_span_ns() * spans as f64 / (wall * 1e9);
        tracer.write(trace_out).map_err(|e| format!("writing {}: {e}", trace_out.display()))?;
        layers = l;
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
