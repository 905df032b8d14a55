//! Framing under adversarial read/write boundaries: replies parsed
//! through a one-byte reader, and requests delivered to a live server
//! byte by byte (headers and batch items split across TCP segments).
//! The line protocol must frame on `\n` alone — any hidden reliance on
//! "one request arrives in one read" breaks here.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

use kastio::index::protocol::read_reply;

/// A reader that returns at most one byte per `read` call, forcing every
/// line-assembly path to cope with maximal fragmentation.
struct OneByte<R: Read>(R);

impl<R: Read> Read for OneByte<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        self.0.read(&mut buf[..1])
    }
}

#[test]
fn read_reply_frames_correctly_at_one_byte_per_read() {
    let wire = "OK id=0 name=e0 entries=1\n\
                OK matches=2 label=flash\nMATCH 1 e0 flash 1\nMATCH 2 e1 flash 0.5\nEND\n\
                STAT entries 2\nSTAT shards 1\nEND\n\
                OK queries=1\nRESULT 1 matches=0 label=-\nEND\n\
                ERR unknown verb `FROB`\n";
    // Capacity 1 defeats BufReader's internal buffering too: every
    // read_line call sees single bytes from both layers.
    let mut reader = BufReader::with_capacity(1, OneByte(wire.as_bytes()));
    assert_eq!(read_reply(&mut reader).unwrap(), "OK id=0 name=e0 entries=1\n");
    assert_eq!(
        read_reply(&mut reader).unwrap(),
        "OK matches=2 label=flash\nMATCH 1 e0 flash 1\nMATCH 2 e1 flash 0.5\nEND\n"
    );
    assert_eq!(read_reply(&mut reader).unwrap(), "STAT entries 2\nSTAT shards 1\nEND\n");
    assert_eq!(read_reply(&mut reader).unwrap(), "OK queries=1\nRESULT 1 matches=0 label=-\nEND\n");
    assert_eq!(read_reply(&mut reader).unwrap(), "ERR unknown verb `FROB`\n");
    let eof = read_reply(&mut reader).unwrap_err();
    assert_eq!(eof.kind(), std::io::ErrorKind::UnexpectedEof);
}

#[test]
fn read_reply_detects_mid_reply_eof_at_any_boundary() {
    // Truncate a multi-line reply at every byte: each prefix must yield
    // either the error (mid-reply cut) — never a partial "success".
    let wire = "OK matches=1 label=x\nMATCH 1 e0 x 1\nEND\n";
    for cut in 0..wire.len() {
        let mut reader = BufReader::with_capacity(1, OneByte(&wire.as_bytes()[..cut]));
        let result = read_reply(&mut reader);
        assert!(
            result.is_err(),
            "cut at byte {cut}: a truncated reply must not parse, got {result:?}"
        );
    }
    let mut reader = BufReader::with_capacity(1, OneByte(wire.as_bytes()));
    assert_eq!(read_reply(&mut reader).unwrap(), wire, "the full reply still parses");
}

struct ServerGuard {
    child: Child,
    addr: String,
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Drop for ServerGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn start_server() -> ServerGuard {
    let mut child = Command::new(env!("CARGO_BIN_EXE_kastio"))
        .args(["serve", "--port", "0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("serve starts");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("serve announces its address");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement {line:?}"))
        .to_string();
    ServerGuard { child, addr, _stdout: stdout }
}

/// Writes the request one byte per syscall, with TCP_NODELAY so each
/// byte really goes out as its own segment instead of coalescing in the
/// kernel's Nagle buffer.
fn send_byte_at_a_time(writer: &mut TcpStream, wire: &str) {
    for byte in wire.as_bytes() {
        writer.write_all(std::slice::from_ref(byte)).expect("byte sent");
        writer.flush().expect("byte flushed");
    }
}

#[test]
fn server_reassembles_requests_split_to_single_bytes() {
    let server = start_server();
    let stream = TcpStream::connect(&server.addr).expect("client connects");
    stream.set_nodelay(true).expect("nodelay");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    // HELLO, one byte at a time.
    send_byte_at_a_time(&mut writer, "HELLO 1 split-test\n");
    let hello = read_reply(&mut reader).expect("hello reply");
    assert!(hello.starts_with("OK kastio proto=1 "), "{hello}");

    // INGEST with an inline trace, split to single bytes.
    send_byte_at_a_time(&mut writer, "INGEST flash h0 open 0;h0 write 64;h0 close 0\n");
    assert_eq!(read_reply(&mut reader).unwrap(), "OK id=0 name=e0 entries=1\n");

    // A batched request whose header AND item lines all arrive
    // fragmented: the server must frame on newlines, not on reads.
    send_byte_at_a_time(
        &mut writer,
        "BATCH INGEST 2\nflash h0 write 64;h0 write 64\nposix h0 read 8;h0 read 8\n",
    );
    assert_eq!(read_reply(&mut reader).unwrap(), "OK batch=2 entries=3\n");

    send_byte_at_a_time(&mut writer, "MQUERY k=1 2\nh0 write 64;h0 write 64\nh0 read 8\n");
    let mquery = read_reply(&mut reader).unwrap();
    assert!(mquery.starts_with("OK queries=2\n"), "{mquery}");
    assert!(mquery.ends_with("END\n"), "{mquery}");

    send_byte_at_a_time(&mut writer, "SHUTDOWN\n");
    assert_eq!(read_reply(&mut reader).unwrap(), "OK bye\n");
}

#[test]
fn server_handles_pipelined_requests_in_one_segment() {
    // The inverse failure mode of fragmentation: several requests
    // coalesced into a single write must still get one reply each, in
    // order.
    let server = start_server();
    let stream = TcpStream::connect(&server.addr).expect("client connects");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);

    writer
        .write_all(
            "HELLO 1 pipelined\nINGEST flash h0 write 64;h0 write 64\nSTATS\nSHUTDOWN\n".as_bytes(),
        )
        .expect("pipelined write");
    writer.flush().expect("flush");

    assert!(read_reply(&mut reader).unwrap().starts_with("OK kastio proto=1 "));
    assert_eq!(read_reply(&mut reader).unwrap(), "OK id=0 name=e0 entries=1\n");
    let stats = read_reply(&mut reader).unwrap();
    assert!(stats.starts_with("STAT entries 1\n"), "{stats}");
    assert_eq!(read_reply(&mut reader).unwrap(), "OK bye\n");
}
