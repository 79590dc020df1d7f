//! End-to-end daemon tests over real TCP: two concurrent tenants on an
//! ephemeral port, authority-pair enforcement on the wire, the
//! shutdown → drain → exit path, line reassembly and the line cap.

use ams_serve::{daemon, JobSpec, ServeConfig, ServeHandle};
use ams_sweep::json::{parse, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;

struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Wire {
    fn connect(addr: &std::net::SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect");
        Wire {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    /// One request/response round trip, the request sent in one write;
    /// the raw reply object.
    fn roundtrip(&mut self, line: &str) -> Json {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write");
        self.read_reply()
    }

    fn read_reply(&mut self) -> Json {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read");
        parse(reply.trim_end()).expect("reply is JSON")
    }

    fn ok(&mut self, line: &str) -> Json {
        let reply = self.roundtrip(line);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "request {line} failed: {}",
            reply.render()
        );
        reply
    }

    fn str_field(reply: &Json, key: &str) -> String {
        reply
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("reply lacks {key:?}"))
            .to_string()
    }
}

/// Daemon on an ephemeral port, driven by a private stop flag (the
/// process-global SIGTERM flag belongs to the example binary).
fn start_daemon(
    config: ServeConfig,
) -> (
    std::net::SocketAddr,
    ServeHandle,
    std::thread::JoinHandle<()>,
) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr");
    let handle = ServeHandle::start(config);
    let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
    let server = {
        let handle = handle.clone();
        std::thread::spawn(move || daemon::serve(&handle, listener, stop).expect("serve"))
    };
    (addr, handle, server)
}

#[test]
fn two_tenants_submit_over_tcp_and_get_identical_reports() {
    let (addr, handle, server) = start_daemon(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let admin = handle.admin_token().to_string();

    // Two tenants on two independent connections, same job.
    let job = JobSpec::demo_rc(12, 0xD0E).to_json().render();
    let run = |name: &'static str| {
        let admin = admin.clone();
        let job = job.clone();
        std::thread::spawn(move || {
            let mut wire = Wire::connect(&addr);
            let hello = wire.ok(&format!(
                r#"{{"op":"hello","admin":"{admin}","tenant":{{"name":"{name}"}}}}"#
            ));
            let tenant = Wire::str_field(&hello, "tenant_token");
            let submit = wire.ok(&format!(
                r#"{{"op":"submit","tenant":"{tenant}","job":{job}}}"#
            ));
            let token = Wire::str_field(&submit, "job_token");
            let result = wire.ok(&format!(
                r#"{{"op":"result","tenant":"{tenant}","job":"{token}"}}"#
            ));
            (tenant, token, Wire::str_field(&result, "fingerprint"))
        })
    };
    let a = run("alice");
    let b = run("bob");
    let (tenant_a, job_a, fp_a) = a.join().expect("alice");
    let (_, _, fp_b) = b.join().expect("bob");
    assert_eq!(fp_a, fp_b, "same job ⇒ same fingerprint for both tenants");

    // Authority boundary on the wire: a fresh connection with a random
    // tenant token, or the wrong (tenant, job) pair, is rejected.
    let mut wire = Wire::connect(&addr);
    let reply = wire.roundtrip(&format!(
        r#"{{"op":"submit","tenant":"tenant-0000","job":{job}}}"#
    ));
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(reply.get("code").and_then(Json::as_str), Some("auth"));

    let hello = wire.ok(&format!(
        r#"{{"op":"hello","admin":"{admin}","tenant":{{"name":"mallory"}}}}"#
    ));
    let mallory = Wire::str_field(&hello, "tenant_token");
    let reply = wire.roundtrip(&format!(
        r#"{{"op":"status","tenant":"{mallory}","job":"{job_a}"}}"#
    ));
    assert_eq!(
        reply.get("code").and_then(Json::as_str),
        Some("auth"),
        "mallory must not see alice's job: {}",
        reply.render()
    );
    // ...while the rightful owner still can.
    let mut wire = Wire::connect(&addr);
    let reply = wire.ok(&format!(
        r#"{{"op":"status","tenant":"{tenant_a}","job":"{job_a}"}}"#
    ));
    assert_eq!(reply.get("state").and_then(Json::as_str), Some("done"));

    // Wrong admin token cannot mint tenants or stop the service.
    let reply = wire.roundtrip(r#"{"op":"hello","admin":"admin-bogus","tenant":{"name":"x"}}"#);
    assert_eq!(reply.get("code").and_then(Json::as_str), Some("auth"));
    let reply = wire.roundtrip(r#"{"op":"shutdown","admin":"admin-bogus"}"#);
    assert_eq!(reply.get("code").and_then(Json::as_str), Some("auth"));

    // Authorized shutdown: the daemon acknowledges, drains, and the
    // accept loop exits.
    let reply = wire.ok(&format!(r#"{{"op":"shutdown","admin":"{admin}"}}"#));
    assert_eq!(reply.get("draining").and_then(Json::as_bool), Some(true));
    server.join().expect("daemon thread exits cleanly");
    assert!(handle.is_draining());
}

#[test]
fn split_requests_are_reassembled_and_over_long_lines_are_refused() {
    let (addr, handle, server) = start_daemon(ServeConfig::default());
    let admin = handle.admin_token().to_string();

    // A request whose bytes arrive in two writes is one request.
    let mut wire = Wire::connect(&addr);
    let hello = format!(r#"{{"op":"hello","admin":"{admin}","tenant":{{"name":"split"}}}}"#);
    let (head, tail) = hello.split_at(hello.len() / 2);
    wire.writer.write_all(head.as_bytes()).expect("write head");
    wire.writer.flush().expect("flush head");
    wire.writer
        .write_all(format!("{tail}\n").as_bytes())
        .expect("write tail");
    let reply = wire.read_reply();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    assert!(reply.get("tenant_token").is_some());

    // A line one byte over the cap is answered once with `too_large`,
    // then the connection closes. The line is sent unterminated so the
    // daemon has read every byte before it closes.
    let mut wire = Wire::connect(&addr);
    wire.writer
        .write_all(&vec![b'x'; daemon::MAX_LINE + 1])
        .expect("write over-long line");
    let reply = wire.read_reply();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(reply.get("code").and_then(Json::as_str), Some("too_large"));
    let mut rest = String::new();
    assert_eq!(wire.reader.read_line(&mut rest).expect("read EOF"), 0);
    assert_eq!(handle.metrics().counter("serve.conn.too_large"), 1);

    // The daemon still serves new connections.
    let mut wire = Wire::connect(&addr);
    wire.ok(&format!(r#"{{"op":"shutdown","admin":"{admin}"}}"#));
    server.join().expect("daemon thread exits cleanly");
}
