//! `dogmatixd` binary: boot the resident dedup server over one corpus.

use dogmatix_core::{Dogmatix, FsyncPolicy, IncrementalSession, Mapping, Wal};
use dogmatix_server::{serve, serve_durable, ServerConfig};
use dogmatix_xml::Document;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

const HELP: &str = "dogmatixd — resident DogmatiX dedup server

USAGE:
    dogmatixd <doc.xml> <mapping.txt> <rw_type> [OPTIONS]

OPTIONS:
    --addr <host:port>        bind address (default 127.0.0.1:0, ephemeral)
    --workers <n>             probe worker threads (default 4)
    --ingest-queue <n>        bounded ingest queue depth (default 64)
    --read-timeout-ms <n>     idle-connection timeout (default 30000)
    --max-line-bytes <n>      request size cap (default 1048576)
    --wal <path>              write-ahead-log every ingested delta to <path>
                              (enables the CHECKPOINT command)
    --recover                 boot from <wal path>'s checkpoint + log instead
                              of <doc.xml> (requires --wal; <doc.xml> is
                              ignored, <rw_type> must match the logged one)
    --wal-fsync <policy>      fsync policy: always | batch | never
                              (default batch = one fsync per ingest batch)
    --checkpoint-every <n>    auto-checkpoint after n logged deltas
                              (default 1024; 0 disables auto-checkpoints)
    --help                    print this help

On startup the server prints one line to stdout:
    dogmatixd listening on <addr>
then serves the newline-delimited protocol (PROBE / INGEST / STATS /
CHECKPOINT / INDEX-SAVE / SHUTDOWN) until a client sends SHUTDOWN.";

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("dogmatixd: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{HELP}");
        return Ok(());
    }
    let mut positional: Vec<&str> = Vec::new();
    let mut config = ServerConfig::default();
    let mut wal_path: Option<String> = None;
    let mut recover = false;
    let mut fsync = FsyncPolicy::Batch;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let mut flag_value = |name: &str| -> Result<String, String> {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value (see --help)"))
        };
        match arg {
            "--addr" => config.addr = flag_value("--addr")?,
            "--workers" => config.workers = parse_num(&flag_value("--workers")?, "--workers")?,
            "--ingest-queue" => {
                config.ingest_queue = parse_num(&flag_value("--ingest-queue")?, "--ingest-queue")?;
            }
            "--read-timeout-ms" => {
                config.read_timeout = Duration::from_millis(parse_num(
                    &flag_value("--read-timeout-ms")?,
                    "--read-timeout-ms",
                )? as u64);
            }
            "--max-line-bytes" => {
                config.max_line_bytes =
                    parse_num(&flag_value("--max-line-bytes")?, "--max-line-bytes")?;
            }
            "--wal" => wal_path = Some(flag_value("--wal")?),
            "--recover" => recover = true,
            "--wal-fsync" => {
                fsync = FsyncPolicy::parse(&flag_value("--wal-fsync")?)
                    .map_err(|e| format!("--wal-fsync: {e}"))?;
            }
            "--checkpoint-every" => {
                config.checkpoint_every =
                    parse_num(&flag_value("--checkpoint-every")?, "--checkpoint-every")? as u64;
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag '{other}' (see --help)"));
            }
            _ => positional.push(arg),
        }
        i += 1;
    }
    let [doc_path, mapping_path, rw_type] = positional[..] else {
        return Err("expected <doc.xml> <mapping.txt> <rw_type> (see --help)".to_string());
    };
    if recover && wal_path.is_none() {
        return Err("--recover needs --wal <path> to recover from (see --help)".to_string());
    }

    let mapping_text = std::fs::read_to_string(mapping_path)
        .map_err(|e| format!("cannot read mapping {mapping_path}: {e}"))?;
    let mapping = Mapping::parse(&mapping_text).map_err(|e| format!("{mapping_path}: {e}"))?;
    let dx = Dogmatix::builder().mapping(mapping.clone()).build();

    let handle = if let Some(path) = wal_path {
        let (session, wal) = if recover {
            let rec = IncrementalSession::recover(&path, &mapping, None, fsync)
                .map_err(|e| format!("cannot recover from {path}: {e}"))?;
            if rec.session.rw_type() != rw_type {
                return Err(format!(
                    "log {path} holds rw_type '{}', not '{rw_type}'",
                    rec.session.rw_type()
                ));
            }
            eprintln!(
                "dogmatixd: recovered from {path}: checkpoint lsn={} replayed={} skipped={}{}",
                rec.report.checkpoint_lsn,
                rec.report.replayed,
                rec.report.skipped,
                match &rec.report.dropped_tail {
                    Some(e) => format!(" (dropped torn tail: {e})"),
                    None => String::new(),
                },
            );
            (rec.session, rec.wal)
        } else {
            let session = fresh_session(&dx, doc_path, rw_type)?;
            let wal = Wal::create(&path, &session, fsync)
                .map_err(|e| format!("cannot create log {path}: {e}"))?;
            (session, wal)
        };
        serve_durable(dx, session, wal, config).map_err(|e| e.to_string())?
    } else {
        let session = fresh_session(&dx, doc_path, rw_type)?;
        serve(dx, session, config).map_err(|e| e.to_string())?
    };

    // Parseable startup line (flushed — stdout may be a pipe).
    let mut out = std::io::stdout();
    let _ = writeln!(out, "dogmatixd listening on {}", handle.addr());
    let _ = out.flush();

    handle.join();
    Ok(())
}

fn fresh_session(
    dx: &Dogmatix,
    doc_path: &str,
    rw_type: &str,
) -> Result<IncrementalSession, String> {
    let xml = std::fs::read_to_string(doc_path)
        .map_err(|e| format!("cannot read document {doc_path}: {e}"))?;
    let doc = Document::parse(&xml).map_err(|e| format!("{doc_path}: {e}"))?;
    dx.incremental_session_inferred(doc, rw_type)
        .map_err(|e| e.to_string())
}

fn parse_num(value: &str, flag: &str) -> Result<usize, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} needs an unsigned number, got '{value}'"))
}
