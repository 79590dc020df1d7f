//! The TCP front end: accept loop, connection threads, graceful drain.
//!
//! Pure `std::net` — no async runtime. The listener runs nonblocking
//! so the accept loop can poll two shutdown signals between accepts:
//! the process-level stop flag (SIGTERM, see [`crate::signal`]) and
//! the protocol-level `shutdown` op. Either way the sequence is the
//! same: stop accepting, reject new submits, let queued and running
//! jobs finish ([`ServeHandle::shutdown`] + [`ServeHandle::join`]),
//! then return so the process can exit 0.
//!
//! Each connection gets a thread reading newline-delimited requests
//! and writing newline-delimited responses ([`protocol`]); a slow or
//! blocked client never stalls the acceptor or other connections. A
//! reply and its newline leave in one write: written apart, the lone
//! newline would wait in Nagle's buffer until the client acknowledged
//! the reply, and clients delay that acknowledgement by up to 40 ms.
//! With one write per reply, `TCP_NODELAY` is not needed: Linux holds a
//! small segment back only while an earlier *small* one is
//! unacknowledged, and the client's next request acknowledges the tail
//! of the previous reply before the next reply is written.

use crate::handle::ServeHandle;
use crate::protocol::{self, Reply};
use crate::ServeError;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// How often the accept loop polls the stop signals while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// Longest request line the daemon accepts, in bytes, newline excluded.
/// A line is held whole before it is parsed, so this bounds what one
/// client can make a connection buffer; job lines in use are tens of
/// kilobytes.
pub const MAX_LINE: usize = 16 << 20;

/// Serves requests on `listener` until `stop` becomes true or an
/// authorized `shutdown` request arrives, then drains and returns.
///
/// # Errors
///
/// Propagates listener configuration failures; per-connection I/O
/// errors only end that connection.
pub fn serve(
    handle: &ServeHandle,
    listener: TcpListener,
    stop: &'static AtomicBool,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    loop {
        if stop.load(Ordering::Acquire) || handle.is_draining() {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let handle = handle.clone();
                std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || connection(&handle, stream, stop))
                    .expect("spawn connection thread");
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    handle.shutdown();
    handle.join();
    Ok(())
}

/// One TCP connection, served by [`serve_lines`].
fn connection(handle: &ServeHandle, stream: TcpStream, stop: &AtomicBool) {
    // Blocking I/O on the connection itself; `result` ops legitimately
    // park until the job finishes.
    if stream.set_nonblocking(false).is_err() {
        return;
    }
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    serve_lines(handle, BufReader::new(stream), writer, stop);
}

/// Reads request lines from `reader` and writes one reply line each to
/// `writer`. Returns on EOF, I/O error, a line that is not UTF-8, a line
/// longer than [`MAX_LINE`] (after answering it with `too_large`), or
/// after answering a `shutdown` request (the accept loop notices
/// `is_draining` on its next poll).
fn serve_lines(
    handle: &ServeHandle,
    mut reader: impl BufRead,
    mut writer: impl Write,
    stop: &AtomicBool,
) {
    loop {
        let mut buf = Vec::new();
        // One byte past the cap tells an over-long line from one that
        // fits exactly, without ever holding more than that.
        match (&mut reader)
            .take(MAX_LINE as u64 + 1)
            .read_until(b'\n', &mut buf)
        {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        let raw = buf.strip_suffix(b"\n").unwrap_or(&buf);
        if raw.len() > MAX_LINE {
            handle.count("serve.conn.too_large");
            let _ = send(&mut writer, Reply::err(&ServeError::TooLarge(MAX_LINE)));
            return;
        }
        let Ok(line) = std::str::from_utf8(raw) else {
            return;
        };
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.trim().is_empty() {
            continue;
        }
        let reply = protocol::handle_request(handle, line);
        let shutdown = reply.shutdown;
        if send(&mut writer, reply).is_err() {
            return;
        }
        if shutdown {
            stop.store(true, Ordering::Release);
            return;
        }
    }
}

/// Writes `reply` and its newline with a single `write_all`.
fn send(writer: &mut impl Write, reply: Reply) -> std::io::Result<()> {
    let mut line = reply.line;
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use ams_sweep::json::{parse, Json};

    /// A reply sink that keeps every `write` call apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_reply_is_one_write_ending_in_a_newline() {
        let handle = ServeHandle::start(ServeConfig::default());
        let admin = handle.admin_token().to_string();
        let input = format!(
            "{{\"op\":\"hello\",\"admin\":\"{admin}\",\"tenant\":{{\"name\":\"a\"}}}}\n\
             \n\
             not json\r\n\
             {{\"op\":\"stats\",\"admin\":\"{admin}\"}}\n\
             {{\"op\":\"shutdown\",\"admin\":\"{admin}\"}}\n\
             {{\"op\":\"stats\",\"admin\":\"{admin}\"}}\n"
        );
        let stop = AtomicBool::new(false);
        let mut out = Writes::default();
        serve_lines(&handle, input.as_bytes(), &mut out, &stop);

        // The blank line gets no reply and nothing is read after the
        // shutdown; each of the four answers is exactly one write.
        let oks: Vec<Option<bool>> = out
            .0
            .iter()
            .map(|w| {
                assert_eq!(w.iter().filter(|&&b| b == b'\n').count(), 1);
                assert_eq!(w.last(), Some(&b'\n'));
                let reply = parse(std::str::from_utf8(&w[..w.len() - 1]).unwrap()).unwrap();
                reply.get("ok").and_then(Json::as_bool)
            })
            .collect();
        assert_eq!(oks, [Some(true), Some(false), Some(true), Some(true)]);
        assert!(stop.load(Ordering::Acquire));
        handle.join();
    }
}
