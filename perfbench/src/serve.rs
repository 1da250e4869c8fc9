//! The serving workload: an in-process durable `dogmatixd`
//! (`serve_durable`) over the CD corpus, driven over TCP by two clients
//! for the run's duration:
//!
//! * **closed-loop ingest** — one connection sends the seeded delta
//!   script (70 % update, 20 % insert, 10 % remove), each `INGEST`
//!   after the previous acknowledgement;
//! * **open-loop probes** — one connection sends `PROBE` at a fixed
//!   rate regardless of replies; each probe is timed from the moment it
//!   was due, so a stall is charged to every probe queued behind it.
//!
//! Afterwards the server's `STATS` must equal an in-process replay of
//! the acknowledged script. The traced run replays a fixed prefix of the
//! same script in-process in the writer's order — WAL append → commit →
//! `detect_delta` → `publish_snapshot` (+ periodic checkpoint) — with
//! probes against the latest snapshot, so its counts repeat exactly.

use crate::batch::{self, PROBE_K};
use crate::report::{
    peak_rss_mib, percentile, quality, reset_peak_rss, result_fingerprint, Report, Summary,
};
use crate::speed;
use crate::trace::Tracer;
use crate::workload::{self, eids_after, Data, DeltaClass, Setup, Step, Workload};
use crate::Args;
use dogmatix_core::probe::ProbeScratch;
use dogmatix_core::{DocumentDelta, FsyncPolicy, Wal};
use dogmatix_server::{serve_durable, ServerConfig, ServerHandle};
use dogmatix_xml::Document;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Server boots per run; `setup_s` and `detect_s` are their medians.
const BOOTS: usize = 9;
/// Length of the generated delta script (more than a run consumes).
const SCRIPT_LEN: usize = 3000;
/// Distinct probe records, cycled through by the open-loop client.
const PROBE_POOL: usize = 1000;
/// The open-loop probe rate: one probe every 20 ms (50 probes/s). A
/// probe costs ~3–5 ms while the writer keeps one of two cores busy; at
/// this rate the generator stays on schedule (its p99 lateness must not
/// exceed one interval), and a 20 s run sends the 1000 probes p99 needs.
pub const PROBE_INTERVAL: Duration = Duration::from_millis(20);
/// How often the traffic phase samples the machine's speed.
const SPEED_EVERY: Duration = Duration::from_millis(250);
/// Auto-checkpoint cadence of the server and of the traced replay.
const CHECKPOINT_EVERY: u64 = 40;
/// Script prefix the traced run replays in-process.
const TRACE_DELTAS: usize = 120;
/// Probes answered after each replayed delta.
const TRACE_PROBES_PER_DELTA: usize = 4;
/// Untraced replays the traced one is compared against.
const TRACE_BASELINE_REPS: usize = 2;
/// Fields the ingest script puts typos into.
const UPDATE_FIELDS: [&str; 3] = ["title", "artist", "tracks/title"];
/// A client gives up on a reply after this long (counted as failed).
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// A scratch directory under the output directory, removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Result<TempDir, String> {
        let dir = crate::out_dir().join(format!("tmp-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

pub fn run(w: &Workload, args: &Args) -> Result<Report, String> {
    let setup = w.setup();
    let data = w.generate(args.seed);
    let mut rng = workload::rng(args.seed, 1);
    let classes = workload::mixed_classes(SCRIPT_LEN);
    let steps = workload::script(
        &data,
        classes.into_iter(),
        &UPDATE_FIELDS,
        w.insert_parent(),
        &mut rng,
    );
    let probes = data.probes(w.probe_parent(), PROBE_POOL, &mut rng);
    let tmp = TempDir::new(w.name)?;
    let mut report = Report::new();
    reset_peak_rss()?;

    let live = live_run(&setup, &data, &steps, &probes, args, &tmp.0, &mut report)?;
    if args.trace {
        traced(
            w,
            &setup,
            &data,
            &steps,
            &probes,
            args,
            &live,
            &tmp.0,
            &mut report,
        )?;
    } else {
        report.set("detect_s", live.detect.median);
        report.set("setup_s", live.boot.median);
        report.set("recall", live.recall);
        report.set("precision", live.precision);
        report.set(
            "probe_p50_ms",
            percentile(&live.probe_ms, 0.5) * live.factor,
        );
        report.set("ingest_per_s", live.ingest_rate / live.factor);
    }
    report.set("peak_rss_mb", peak_rss_mib()?);
    Ok(report)
}

/// What the live (TCP) phase measured.
struct Live {
    /// Boot-time detection and whole boot, at the reference speed.
    detect: Summary,
    boot: Summary,
    /// Scales the traffic phase's wall times to the reference speed.
    factor: f64,
    /// Acknowledged deltas per wall second.
    ingest_rate: f64,
    boot_fingerprint: u64,
    ingest_ms: Vec<(DeltaClass, f64)>,
    probe_ms: Vec<f64>,
    late_ms: Vec<f64>,
    shed: u64,
    recall: f64,
    precision: f64,
}

/// Boots a durable server over `xml`: parse → session → initial
/// detection → WAL → `serve_durable` (first snapshot, bind). Returns the
/// handle, the detection and total boot times and the detection's
/// fingerprint.
fn boot(
    setup: &Setup,
    xml: &str,
    wal_path: &Path,
) -> Result<(ServerHandle, f64, f64, u64), String> {
    let t = Instant::now();
    let doc = Document::parse(xml).map_err(err)?;
    let mut session = setup
        .dx
        .incremental_session_inferred(doc, setup.rw_type)
        .map_err(err)?;
    let result = setup.dx.detect_delta(&mut session, &[]).map_err(err)?;
    let detect_s = t.elapsed().as_secs_f64();
    let wal = Wal::create(wal_path, &session, FsyncPolicy::Batch).map_err(err)?;
    let config = ServerConfig {
        blocking: setup.probe_blocking,
        checkpoint_every: CHECKPOINT_EVERY,
        ..ServerConfig::default()
    };
    let handle = serve_durable(setup.dx.clone(), session, wal, config).map_err(err)?;
    Ok((
        handle,
        detect_s,
        t.elapsed().as_secs_f64(),
        result_fingerprint(&result),
    ))
}

fn live_run(
    setup: &Setup,
    data: &Data,
    steps: &[Step],
    probes: &[String],
    args: &Args,
    tmp: &Path,
    report: &mut Report,
) -> Result<Live, String> {
    // Boot-time detection and whole boot, wall and at the reference speed.
    let (mut detect, mut detect_wall) = (Vec::new(), Vec::new());
    let (mut boots, mut boots_wall) = (Vec::new(), Vec::new());
    let mut server = None;
    let mut boot_fingerprint = 0;
    for k in 0..BOOTS {
        if let Some(old) = server.take() {
            ServerHandle::shutdown(old);
        }
        let (booted, _, factor) =
            speed::timed(|| boot(setup, &data.xml, &tmp.join(format!("boot-{k}.log"))));
        let (handle, d, b, fp) = booted?;
        if k > 0 && fp != boot_fingerprint {
            report.fail_check("boot detections differ between boots");
        }
        boot_fingerprint = fp;
        detect.push(d * factor);
        detect_wall.push(d);
        boots.push(b * factor);
        boots_wall.push(b);
        server = Some(handle);
    }
    let server = server.ok_or("no server booted")?;
    let addr = server.addr();

    let probe_lines: Vec<String> = probes
        .iter()
        .map(|p| format!("PROBE {PROBE_K} {p}\n"))
        .collect();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (ingest, probe, traffic_kernel_s) = std::thread::scope(|s| {
        let ingest = s.spawn(|| ingest_client(addr, steps, deadline));
        let probe = s.spawn(|| probe_client(addr, &probe_lines, deadline));
        // The machine's speed during the traffic: the reference kernel
        // every SPEED_EVERY (a few percent of one core).
        let sampler = s.spawn(|| {
            let mut samples = Vec::new();
            while Instant::now() < deadline {
                samples.push(speed::sample());
                std::thread::sleep(SPEED_EVERY);
            }
            samples
        });
        (ingest.join(), probe.join(), sampler.join())
    });
    server.shutdown();
    let traffic_kernel_s = traffic_kernel_s.map_err(|_| "speed sampler panicked")?;
    let ingest = ingest.map_err(|_| "ingest client panicked")?;
    let probe = probe.map_err(|_| "probe client panicked")?;

    report.attempted += (ingest.sent + probe.sent) as u64;
    report.failed += (ingest.failed + probe.failed) as u64;
    if let Some(e) = &ingest.error {
        report.fail_check(e);
    }
    let stats = ingest.stats.ok_or("the server never answered STATS")?;

    // Open-loop honesty: a generator that fell behind its schedule did
    // not offer the load the run claims.
    let late_p99 = percentile(&probe.late_ms, 0.99);
    let interval_ms = PROBE_INTERVAL.as_secs_f64() * 1e3;
    if late_p99 > interval_ms {
        return Err(format!(
            "invalid run: the probe generator ran {late_p99:.3} ms late at p99, \
             more than one inter-arrival interval ({interval_ms} ms)"
        ));
    }
    if probe.sent < 1000 {
        eprintln!(
            "perfbench: only {} probes sent; a p99 needs 1000 (at least ten beyond it)",
            probe.sent
        );
    }

    // The server's final state must equal an in-process replay of the
    // acknowledged script.
    let acked = &steps[..ingest.acked];
    let doc = Document::parse(&data.xml).map_err(err)?;
    let mut session = setup
        .dx
        .incremental_session_inferred(doc, setup.rw_type)
        .map_err(err)?;
    let deltas = acked
        .iter()
        .map(|s| DocumentDelta::parse(&s.line))
        .collect::<Result<Vec<_>, _>>()
        .map_err(err)?;
    let result = setup.dx.detect_delta(&mut session, &deltas).map_err(err)?;
    let want = (
        1 + acked.len() as u64,
        result.candidates.len() as u64,
        result.duplicate_pairs.len() as u64,
    );
    if (stats.seq, stats.objects, stats.pairs) != want || stats.ingests != acked.len() as u64 {
        report.fail_check(&format!(
            "STATS seq={} objects={} pairs={} ingests={} but the replay of {} acked deltas gives \
             seq={} objects={} pairs={}",
            stats.seq,
            stats.objects,
            stats.pairs,
            stats.ingests,
            acked.len(),
            want.0,
            want.1,
            want.2
        ));
    }
    let eids = eids_after(data.eids(), acked);
    if eids.len() != result.candidates.len() {
        report.fail_check("the generator's object count disagrees with the replay");
    }
    let (recall, precision, true_found, gold) = quality(&result.duplicate_pairs, &eids);

    let detect_raw = Summary::of(&detect_wall);
    let boot_raw = Summary::of(&boots_wall);
    let detect = Summary::of(&detect);
    let boot = Summary::of(&boots);
    let kernel = Summary::of(&traffic_kernel_s);
    let factor = speed::factor(kernel.median);
    let ingest_rate = ingest.acked as f64 / ingest.elapsed_s;
    let by_class = |c: DeltaClass| -> Vec<f64> {
        ingest
            .latencies
            .iter()
            .filter(|(k, _)| *k == c)
            .map(|&(_, ms)| ms)
            .collect()
    };
    let all_ingest: Vec<f64> = ingest.latencies.iter().map(|&(_, ms)| ms).collect();
    eprintln!(
        "perfbench: serve seed {} objects {}",
        args.seed,
        data.objects.len()
    );
    eprintln!(
        "  speed           reference kernel {kernel}; factor {factor:.4} to the reference speed ({} s)",
        speed::NOMINAL_S
    );
    eprintln!("  boot_s          {boot}; wall {boot_raw}");
    eprintln!("  boot detect_s   {detect}; wall {detect_raw}");
    eprintln!(
        "  ingest (wall)   {} acked in {:.3} s ({ingest_rate:.2}/s), p50 {:.3} ms p90 {:.3} ms",
        ingest.acked,
        ingest.elapsed_s,
        percentile(&all_ingest, 0.5),
        percentile(&all_ingest, 0.9)
    );
    for c in DeltaClass::ALL {
        eprintln!("    {c:?}: {}", Summary::of(&by_class(c)));
    }
    eprintln!(
        "  probes (wall)   {} sent at {:.0}/s, p50 {:.3} ms p99 {:.3} ms; generator late p99 {late_p99:.3} ms",
        probe.sent,
        1.0 / PROBE_INTERVAL.as_secs_f64(),
        percentile(&probe.latencies, 0.5),
        percentile(&probe.latencies, 0.99)
    );
    eprintln!(
        "  STATS           seq={} objects={} pairs={} shed={}; failures {} of {}",
        stats.seq,
        stats.objects,
        stats.pairs,
        stats.shed,
        ingest.failed + probe.failed,
        ingest.sent + probe.sent
    );
    eprintln!("  quality         recall {recall:.4} precision {precision:.4} ({true_found} of {gold} gold pairs)");
    Ok(Live {
        detect,
        boot,
        factor,
        ingest_rate,
        boot_fingerprint,
        ingest_ms: ingest.latencies,
        probe_ms: probe.latencies,
        late_ms: probe.late_ms,
        shed: stats.shed,
        recall,
        precision,
    })
}

/// `STATS` as the server answered it.
#[derive(Debug, Default)]
struct Stats {
    seq: u64,
    objects: u64,
    pairs: u64,
    ingests: u64,
    shed: u64,
}

fn parse_stats(line: &str) -> Option<Stats> {
    let rest = line.trim_end().strip_prefix("OK ")?;
    let mut s = Stats::default();
    for word in rest.split_whitespace() {
        let (key, value) = word.split_once('=')?;
        let value: u64 = value.parse().ok()?;
        match key {
            "seq" => s.seq = value,
            "objects" => s.objects = value,
            "pairs" => s.pairs = value,
            "ingests" => s.ingests = value,
            "shed" => s.shed = value,
            _ => {}
        }
    }
    Some(s)
}

fn connect(addr: SocketAddr) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    Ok((BufReader::new(stream.try_clone()?), stream))
}

struct IngestOutcome {
    latencies: Vec<(DeltaClass, f64)>,
    sent: usize,
    acked: usize,
    failed: usize,
    elapsed_s: f64,
    stats: Option<Stats>,
    /// An acknowledgement out of order.
    error: Option<String>,
}

/// The closed-loop ingest client: sends the script in order until the
/// deadline, each delta after the previous acknowledgement, then asks
/// for `STATS`. Stops at the first failure, so the acknowledged deltas
/// are always a prefix of the script.
fn ingest_client(addr: SocketAddr, steps: &[Step], deadline: Instant) -> IngestOutcome {
    let mut out = IngestOutcome {
        latencies: Vec::new(),
        sent: 0,
        acked: 0,
        failed: 0,
        elapsed_s: 0.0,
        stats: None,
        error: None,
    };
    let Ok((mut reader, mut writer)) = connect(addr) else {
        out.failed += 1;
        out.sent += 1;
        return out;
    };
    let start = Instant::now();
    let mut line = String::new();
    for (i, step) in steps.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        out.sent += 1;
        let t = Instant::now();
        line.clear();
        let ok = writer
            .write_all(format!("INGEST {}\n", step.line).as_bytes())
            .and_then(|()| reader.read_line(&mut line))
            .is_ok_and(|n| n > 0);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let want = format!("OK ingested seq={} ", i + 2);
        if !ok || !line.starts_with("OK ingested ") {
            eprintln!("perfbench: ingest {i} failed: {:?}", line.trim_end());
            out.failed += 1;
            out.latencies.push((step.class, f64::INFINITY));
            break;
        }
        if !line.starts_with(&want) {
            out.error = Some(format!(
                "ingest {i} acknowledged out of order: {}",
                line.trim_end()
            ));
        }
        out.acked += 1;
        out.latencies.push((step.class, ms));
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    line.clear();
    if writer.write_all(b"STATS\n").is_ok() && reader.read_line(&mut line).is_ok() {
        out.stats = parse_stats(&line);
    }
    out
}

struct ProbeOutcome {
    /// Latency of every probe from its due time (failures: infinity).
    latencies: Vec<f64>,
    /// How late the generator sent each probe.
    late_ms: Vec<f64>,
    sent: usize,
    failed: usize,
}

/// The open-loop probe client: a sender on this thread writes `PROBE`
/// lines on schedule, a reader thread times each reply from its due
/// time.
fn probe_client(addr: SocketAddr, lines: &[String], deadline: Instant) -> ProbeOutcome {
    let mut out = ProbeOutcome {
        latencies: Vec::new(),
        late_ms: Vec::new(),
        sent: 0,
        failed: 0,
    };
    let Ok((mut reader, mut writer)) = connect(addr) else {
        out.failed += 1;
        out.sent += 1;
        return out;
    };
    let (tx, rx) = mpsc::channel::<Instant>();
    let start = Instant::now();
    let (latencies, unanswered) = std::thread::scope(|s| {
        let reply_reader = s.spawn(move || {
            let mut latencies = Vec::new();
            let mut line = String::new();
            let mut broken = false;
            for due in rx.iter() {
                if broken {
                    latencies.push(f64::INFINITY);
                    continue;
                }
                line.clear();
                let read = reader.read_line(&mut line);
                let ms = due.elapsed().as_secs_f64() * 1e3;
                match read {
                    Ok(n) if n > 0 && line.starts_with("OK n=") => latencies.push(ms),
                    Ok(n) if n > 0 => {
                        eprintln!("perfbench: probe failed: {}", line.trim_end());
                        latencies.push(f64::INFINITY);
                    }
                    _ => {
                        broken = true;
                        latencies.push(f64::INFINITY);
                    }
                }
            }
            latencies
        });
        for i in 0.. {
            let due = start + PROBE_INTERVAL * i;
            if due >= deadline {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            out.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
            let line = &lines[i as usize % lines.len()];
            out.sent += 1;
            // A probe that cannot be sent is never answered: it counts
            // as failed below.
            if writer.write_all(line.as_bytes()).is_err() || tx.send(due).is_err() {
                break;
            }
        }
        drop(tx);
        let latencies = reply_reader.join().unwrap_or_default();
        let unanswered = out.sent.saturating_sub(latencies.len());
        (latencies, unanswered)
    });
    out.failed += latencies.iter().filter(|l| l.is_infinite()).count() + unanswered;
    out.latencies = latencies;
    out.latencies
        .extend(std::iter::repeat_n(f64::INFINITY, unanswered));
    out
}

/// Sets the server-layer metrics of a workload that runs no server.
pub fn not_served(report: &mut Report) {
    for name in [
        "server.shed",
        "server.probe_p99_ms",
        "server.ingest_p50_ms",
        "server.ingest_p90_ms",
        "server.error_rate",
        "gen.late_p99_ms",
    ] {
        report.set(name, 0.0);
    }
}

#[allow(clippy::too_many_arguments)]
fn traced(
    w: &Workload,
    setup: &Setup,
    data: &Data,
    steps: &[Step],
    probes: &[String],
    args: &Args,
    live: &Live,
    tmp: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let ingest: Vec<f64> = live.ingest_ms.iter().map(|&(_, ms)| ms).collect();
    report.set("server.shed", live.shed as f64);
    report.set("server.probe_p99_ms", percentile(&live.probe_ms, 0.99));
    report.set("server.ingest_p50_ms", percentile(&ingest, 0.5));
    report.set("server.ingest_p90_ms", percentile(&ingest, 0.9));
    report.set(
        "server.error_rate",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set("gen.late_p99_ms", percentile(&live.late_ms, 0.99));

    let prefix = &steps[..TRACE_DELTAS];
    let probes: Vec<String> = probes
        .iter()
        .cycle()
        .take(TRACE_DELTAS * TRACE_PROBES_PER_DELTA)
        .cloned()
        .collect();
    // Replay times are compared at the reference speed (see batch.rs).
    let mut baseline = Vec::new();
    let mut want = None;
    for _ in 0..TRACE_BASELINE_REPS {
        let (r, _, factor) = speed::timed(|| {
            replay_stream(
                setup,
                data,
                prefix,
                &probes,
                &mut Tracer::off(),
                None,
                0,
                tmp,
            )
        });
        let r = r?;
        baseline.push(r.total_s * factor);
        want = Some(r.fingerprint);
    }
    let baseline = Summary::of(&baseline);

    let mut tracer = Tracer::on();
    let boot = batch::replay_pipeline(setup, &data.xml, &data.eids(), &mut tracer, 0, report)?;
    if boot.fingerprint != live.boot_fingerprint {
        report.fail_check("the traced pipeline replay differs from the server's boot detection");
    }
    let (traced, _, factor) = speed::timed(|| {
        replay_stream(
            setup,
            data,
            prefix,
            &probes,
            &mut tracer,
            Some(report),
            1,
            tmp,
        )
    });
    let traced = traced?;
    if Some(traced.fingerprint) != want {
        report.fail_check("the traced delta replay differs from the untraced one");
    }
    let overhead = traced.total_s * factor / baseline.median - 1.0;
    report.set("trace.overhead_frac", overhead);
    let per_probe_ms = ["probe.record", "probe.probe"]
        .iter()
        .map(|name| Summary::of(&tracer.all_secs(name)).median * 1e3)
        .sum::<f64>();
    eprintln!(
        "perfbench: one probe costs {per_probe_ms:.3} ms in-process: {:.0} % of the open-loop interval",
        per_probe_ms / (PROBE_INTERVAL.as_secs_f64() * 1e3) * 100.0
    );
    eprintln!(
        "perfbench: untraced replay of {TRACE_DELTAS} deltas {baseline}; traced {:.6} s \
         (overhead {:+.2} %, at the reference speed)",
        traced.total_s * factor,
        overhead * 100.0
    );
    tracer.write(&crate::out_dir().join(format!("spans-{}-seed{}.jsonl", w.name, args.seed)))
}

/// What an in-process replay of a delta script produced.
pub struct StreamReplay {
    /// Fingerprint of the final detection.
    pub fingerprint: u64,
    pub total_s: f64,
}

#[derive(Default)]
struct ClassCounts {
    scored: usize,
    considered: usize,
}

/// Replays `steps` in-process through the writer's path — WAL append →
/// commit → `detect_delta` → `publish_snapshot`, a checkpoint every
/// `CHECKPOINT_EVERY` deltas — answering `probes` (evenly spread)
/// against the latest snapshot, with the WAL under `tmp`. With a
/// `report`, records the incremental, probe and WAL metrics from the
/// tracer's spans and the session's counters.
#[allow(clippy::too_many_arguments)]
pub fn replay_stream(
    setup: &Setup,
    data: &Data,
    steps: &[Step],
    probes: &[String],
    tr: &mut Tracer,
    report: Option<&mut Report>,
    request_base: u64,
    tmp: &Path,
) -> Result<StreamReplay, String> {
    let dx = &setup.dx;
    let t0 = Instant::now();
    let doc = Document::parse(&data.xml).map_err(err)?;
    let mut session = dx
        .incremental_session_inferred(doc, setup.rw_type)
        .map_err(err)?;
    let mut last = tr
        .time("incremental.boot", request_base, None, || {
            dx.detect_delta(&mut session, &[])
        })
        .map_err(err)?;
    let wal_path = tmp.join(format!("replay-{request_base}.log"));
    let mut wal = Wal::create(&wal_path, &session, FsyncPolicy::Batch).map_err(err)?;
    let mut scratch = ProbeScratch::new();
    let mut classes: [ClassCounts; 3] = Default::default();
    let (mut extractions, mut wal_bytes, mut checkpoints) = (0usize, 0u64, 0usize);
    let (mut examined, mut objects) = (0usize, 0usize);
    let per_delta = probes.len() / steps.len().max(1);
    let file_len = |p: &Path| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);

    for (k, step) in steps.iter().enumerate() {
        let req = request_base + 1 + k as u64;
        let delta = DocumentDelta::parse(&step.line).map_err(err)?;
        let root = tr.open("ingest", req, None);
        let before_len = file_len(&wal_path);
        tr.time("wal.append", req, root, || wal.append(&delta))
            .map_err(err)?;
        tr.time("wal.commit", req, root, || wal.commit())
            .map_err(err)?;
        wal_bytes += file_len(&wal_path).saturating_sub(before_len);
        let name = match step.class {
            DeltaClass::Update => "incremental.update",
            DeltaClass::Insert => "incremental.insert",
            DeltaClass::Remove => "incremental.remove",
        };
        let before = session.counters();
        last = tr
            .time(name, req, root, || {
                dx.detect_delta(&mut session, std::slice::from_ref(&delta))
            })
            .map_err(err)?;
        let after = session.counters();
        let c = &mut classes[step.class.index()];
        c.scored += after.pairs_scored - before.pairs_scored;
        c.considered +=
            after.pairs_scored + after.pairs_reused - before.pairs_scored - before.pairs_reused;
        extractions += after.extractions - before.extractions;
        let snap = tr
            .time("probe.publish", req, root, || {
                session.publish_snapshot(dx, setup.probe_blocking)
            })
            .map_err(err)?;
        if wal.appended_since_checkpoint() >= CHECKPOINT_EVERY {
            tr.time("wal.checkpoint", req, root, || wal.checkpoint(&session))
                .map_err(err)?;
            checkpoints += 1;
        }
        tr.close(root);
        for p in &probes[k * per_delta..(k + 1) * per_delta] {
            let record = tr
                .time("probe.record", req, None, || snap.record_from_xml(p))
                .map_err(err)?;
            let answer = tr
                .time("probe.probe", req, None, || {
                    snap.probe(&record, PROBE_K, &mut scratch)
                })
                .map_err(err)?;
            examined += answer.stats.candidates_examined;
            objects += answer.stats.total_objects;
        }
    }
    if checkpoints == 0 {
        // Short scripts never reach the cadence; checkpoint once so the
        // cost is still measured.
        tr.time("wal.checkpoint", request_base, None, || {
            wal.checkpoint(&session)
        })
        .map_err(err)?;
        checkpoints = 1;
    }
    let total_s = t0.elapsed().as_secs_f64();
    let fingerprint = result_fingerprint(&last);

    if let Some(report) = report {
        let ms = |name: &str| {
            let v: Vec<f64> = tr.all_secs(name).iter().map(|s| s * 1e3).collect();
            if v.is_empty() {
                0.0
            } else {
                Summary::of(&v).median
            }
        };
        report.set(
            "incremental.detect_delta_ms.update",
            ms("incremental.update"),
        );
        report.set(
            "incremental.detect_delta_ms.insert",
            ms("incremental.insert"),
        );
        report.set(
            "incremental.detect_delta_ms.remove",
            ms("incremental.remove"),
        );
        for (c, (frac, scored, considered)) in DeltaClass::ALL.iter().zip([
            (
                "incremental.rescore_frac.update",
                "incremental.scored.update",
                "incremental.considered.update",
            ),
            (
                "incremental.rescore_frac.insert",
                "incremental.scored.insert",
                "incremental.considered.insert",
            ),
            (
                "incremental.rescore_frac.remove",
                "incremental.scored.remove",
                "incremental.considered.remove",
            ),
        ]) {
            let counts = &classes[c.index()];
            report.ratio(
                frac,
                scored,
                counts.scored as f64,
                considered,
                counts.considered as f64,
            );
        }
        report.ratio(
            "incremental.extractions_per_delta",
            "incremental.extractions",
            extractions as f64,
            "incremental.deltas",
            steps.len() as f64,
        );
        report.set("probe.record_ms", ms("probe.record"));
        report.set("probe.probe_ms", ms("probe.probe"));
        report.ratio(
            "probe.examined_frac",
            "probe.examined",
            examined as f64,
            "probe.objects",
            objects as f64,
        );
        report.set("probe.publish_ms", ms("probe.publish"));
        report.set("wal.append_us", ms("wal.append") * 1e3);
        report.set("wal.commit_ms", ms("wal.commit"));
        report.set("wal.checkpoint_ms", ms("wal.checkpoint"));
        report.set("wal.checkpoints", checkpoints as f64);
        report.set("wal.bytes", wal_bytes as f64);
        report.set(
            "wal.bytes_per_delta",
            wal_bytes as f64 / steps.len().max(1) as f64,
        );
    }
    Ok(StreamReplay {
        fingerprint,
        total_s,
    })
}
