//! The serve/query wire protocol, self-contained: starts the daemon on an
//! ephemeral port inside this process, then drives a full client session
//! (INGEST → BATCH INGEST → QUERY → MQUERY → STATS → SHUTDOWN) and prints
//! the transcript — the same exchange `kastio serve` / `kastio query`
//! perform across processes. See docs/PROTOCOL.md for the wire spec.
//!
//! ```sh
//! cargo run --example serve_query
//! ```

use std::io::{BufReader, Write};
use std::net::TcpStream;

use kastio::index::protocol::{encode_trace_inline, read_reply};
use kastio::workloads::generators::{flash_io, random_posix, FlashIoParams, RandomPosixParams};
use kastio::{IndexOptions, PatternIndex, Server};

fn send(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, request: &str) {
    println!("> {request}");
    stream.write_all(format!("{request}\n").as_bytes()).expect("request sent");
    stream.flush().expect("request flushed");
    for line in read_reply(reader).expect("reply read").lines() {
        println!("< {line}");
    }
}

fn main() -> std::io::Result<()> {
    let server = Server::bind("127.0.0.1:0", PatternIndex::new(IndexOptions::default()))?;
    let addr = server.local_addr()?;
    println!("# kastio serve listening on {addr}");
    let daemon = std::thread::spawn(move || server.serve().expect("daemon runs"));

    let mut stream = TcpStream::connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone()?);

    let checkpoint = flash_io(&FlashIoParams { files: 2, blocks: 10, ..Default::default() });
    let mix = random_posix(
        &RandomPosixParams { write_iterations: 8, read_iterations: 8, ..Default::default() },
        7,
    );
    send(
        &mut stream,
        &mut reader,
        &format!("INGEST flash-io {}", encode_trace_inline(&checkpoint)),
    );
    send(&mut stream, &mut reader, &format!("INGEST random-posix {}", encode_trace_inline(&mix)));

    // Batched ingestion: one count header, then one `<label> <trace>`
    // line per entry, one reply for the whole batch.
    let extra: Vec<String> = (0..3)
        .map(|i| {
            let t = flash_io(&FlashIoParams { files: 2, blocks: 11 + i, ..Default::default() });
            format!("flash-io {}", encode_trace_inline(&t))
        })
        .collect();
    send(&mut stream, &mut reader, &format!("BATCH INGEST {}\n{}", extra.len(), extra.join("\n")));

    let probe = flash_io(&FlashIoParams { files: 2, blocks: 14, ..Default::default() });
    send(&mut stream, &mut reader, &format!("QUERY k=2 {}", encode_trace_inline(&probe)));

    // Multi-trace query: k and a count header, then one trace per line;
    // the reply carries one RESULT block per trace.
    let probe2 = random_posix(
        &RandomPosixParams { write_iterations: 9, read_iterations: 9, ..Default::default() },
        11,
    );
    send(
        &mut stream,
        &mut reader,
        &format!("MQUERY k=1 2\n{}\n{}", encode_trace_inline(&probe), encode_trace_inline(&probe2)),
    );
    send(&mut stream, &mut reader, "STATS");
    send(&mut stream, &mut reader, "SHUTDOWN");

    let index = daemon.join().expect("daemon joins");
    println!("# daemon stopped with {} entries in memory", index.len());
    Ok(())
}
