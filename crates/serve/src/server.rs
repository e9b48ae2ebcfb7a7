//! The socket front-end: a blocking accept loop around one
//! [`ServeSession`], plus the `/metrics` HTTP listener.
//!
//! One session spans many client connections. The accept loop is
//! deliberately single-client (the ingest protocol is a single ordered
//! stream; admission is single-producer by design): when the current
//! client disconnects — EOF or a read/write error — the sink detaches
//! (terminating the departing stream with a `Detached` marker) and the
//! loop goes back to `accept`. Response lines produced in between
//! buffer in the sink and flush, in order, to the next client; the
//! engine keeps draining the admitted queue throughout. Each accepted
//! connection runs with `TCP_NODELAY` (replies are small writes; see the
//! [`crate::session`] docs for when they happen). The session
//! ends when a client sends `{"kind":"Finish"}` (or on a fatal
//! protocol error).
//!
//! The metrics listener is a minimal HTTP/1.1 responder on its own
//! thread: any request gets a `200 OK` with the Prometheus rendering of
//! [`ServeMetrics`] — enough for `curl`/Prometheus scrapes without an
//! HTTP dependency.

use crate::metrics::ServeMetrics;
use crate::proto::ServeStats;
use crate::session::{serve_reader, Ingested, ServeOptions, ServeSession, Sink};
use std::io::{BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Run a session over stdin/stdout (`flowsched serve` with no
/// `--listen`): a dumped trace pipes straight in.
pub fn serve_stdio(opts: ServeOptions) -> Result<ServeStats, String> {
    let metrics = Arc::new(ServeMetrics::new());
    let stdin = std::io::stdin();
    serve_reader(
        opts,
        stdin.lock(),
        Sink::to_writer(std::io::stdout()),
        metrics,
    )
}

/// Serve one session on an already-bound listener, optionally exposing
/// metrics on a second listener. Returns the final accounting once a
/// client sends `Finish`.
pub fn run_server_on(
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    opts: ServeOptions,
) -> Result<ServeStats, String> {
    let metrics = Arc::new(ServeMetrics::new());
    let stop = Arc::new(AtomicBool::new(false));
    let scraper =
        metrics_listener.map(|l| spawn_metrics_server(l, Arc::clone(&metrics), Arc::clone(&stop)));
    let sink = Sink::detached();
    let mut session = ServeSession::new(opts, sink.clone(), Arc::clone(&metrics));

    let result = accept_until_finish(&listener, &mut session, &sink, &metrics);
    let stats = match result {
        Ok(()) => session.finish(),
        Err(e) => Err(e),
    };
    stop.store(true, Ordering::Relaxed);
    if let Some(h) = scraper {
        let _ = h.join();
    }
    stats
}

fn accept_until_finish(
    listener: &TcpListener,
    session: &mut ServeSession,
    sink: &Sink,
    metrics: &ServeMetrics,
) -> Result<(), String> {
    let mut first = true;
    let mut buf = String::new();
    loop {
        let (stream, _addr) = listener
            .accept()
            .map_err(|e| format!("accept ingest client: {e}"))?;
        if !first {
            metrics.reconnects.inc();
        }
        first = false;
        // No Nagle on the reply path: a reply is a handful of small
        // writes (an idle flush, a `Paused`, a `Resumed`), and each would
        // otherwise wait for the previous one's ACK.
        let Ok(mut out) = stream.set_nodelay(true).and_then(|()| stream.try_clone()) else {
            continue; // client already gone; wait for the next
        };
        // The banner goes to the connection directly, *before* the sink
        // attaches: a reconnecting client must see `Started` first and
        // the buffered backlog after, never interleaved.
        let banner = session.banner().to_frame();
        if out.write_all(&banner).and_then(|()| out.flush()).is_err() {
            continue;
        }
        sink.attach(Box::new(out));
        let mut reader = BufReader::new(stream);
        loop {
            match fss_dist::framing::next_line_into(&mut reader, &mut buf) {
                Ok(None) | Err(_) => {
                    // Client went away mid-session: detach and wait for
                    // a reconnect. The engine keeps draining.
                    sink.detach();
                    break;
                }
                Ok(Some(line)) => match session.ingest_line(line)? {
                    Ingested::Continue => {}
                    Ingested::Finish => return Ok(()),
                },
            }
        }
    }
}

/// Spawn the `/metrics` responder thread on an already-bound listener.
/// It answers every HTTP request with the current Prometheus rendering
/// until `stop` is set.
pub(crate) fn spawn_metrics_server(
    listener: TcpListener,
    metrics: Arc<ServeMetrics>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    listener
        .set_nonblocking(true)
        .expect("metrics listener nonblocking");
    std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            match listener.accept() {
                Ok((stream, _)) => {
                    let _ = answer_scrape(stream, &metrics);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(_) => break,
            }
        }
    })
}

fn answer_scrape(mut stream: TcpStream, metrics: &ServeMetrics) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    // Read the request head (scrapers send well under 1 KiB); only the
    // path matters for routing.
    let mut head = [0u8; 1024];
    let n = stream.read(&mut head).unwrap_or(0);
    let head = String::from_utf8_lossy(&head[..n]);
    let path = head
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .unwrap_or("/metrics");
    let (status, ctype, body) = if path.starts_with("/trace") {
        match metrics.trace_json() {
            Some(Ok(json)) => ("200 OK", "application/json", json),
            Some(Err(e)) => (
                "500 Internal Server Error",
                "text/plain",
                format!("trace export failed: {e}\n"),
            ),
            None => (
                "404 Not Found",
                "text/plain",
                "tracing is off: start the session with --flight-trace\n".to_string(),
            ),
        }
    } else {
        ("200 OK", "text/plain; version=0.0.4", metrics.render())
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{ServeKind, ServeMsg};
    use std::io::BufRead;
    use std::net::Shutdown;

    fn read_msgs(reader: &mut impl BufRead) -> Vec<ServeMsg> {
        let mut out = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) if line.trim().is_empty() => continue,
                Ok(_) => out.push(ServeMsg::parse(line.trim()).expect("response parses")),
            }
        }
        out
    }

    #[test]
    fn a_socket_session_with_a_reconnect_delivers_every_line_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || run_server_on(listener, None, ServeOptions::default()));

        // Connection 1: header + two arrivals, then half-close and
        // read to EOF (the server detaches with a marker).
        let conn1 = TcpStream::connect(addr).unwrap();
        let mut w1 = conn1.try_clone().unwrap();
        w1.write_all(b"{\"ports\":4}\n").unwrap();
        w1.write_all(b"{\"release\":0,\"src\":0,\"dst\":1}\n")
            .unwrap();
        w1.write_all(b"{\"release\":0,\"src\":1,\"dst\":0}\n")
            .unwrap();
        w1.flush().unwrap();
        conn1.shutdown(Shutdown::Write).unwrap();
        let msgs1 = read_msgs(&mut BufReader::new(conn1));
        assert_eq!(msgs1[0].kind, ServeKind::Started);
        assert_eq!(msgs1.last().unwrap().kind, ServeKind::Detached);

        // Connection 2: two more arrivals and a clean finish.
        let conn2 = TcpStream::connect(addr).unwrap();
        let mut w2 = conn2.try_clone().unwrap();
        w2.write_all(b"{\"release\":1,\"src\":2,\"dst\":3}\n")
            .unwrap();
        w2.write_all(b"{\"release\":2,\"src\":3,\"dst\":2}\n")
            .unwrap();
        w2.write_all(b"{\"kind\":\"Finish\"}\n").unwrap();
        w2.flush().unwrap();
        let msgs2 = read_msgs(&mut BufReader::new(conn2));
        assert_eq!(msgs2[0].kind, ServeKind::Started, "fresh banner first");

        let stats = server.join().unwrap().expect("server session succeeds");
        assert_eq!(stats.arrived, 4);
        assert_eq!(stats.dispatched, 4);
        assert_eq!(stats.dropped, 0);

        // Every dispatch reaches exactly one of the two connections.
        let all: Vec<&ServeMsg> = msgs1
            .iter()
            .chain(msgs2.iter())
            .filter(|m| m.kind == ServeKind::Dispatch)
            .collect();
        assert_eq!(all.len(), 4);
        let stats_line = msgs2.last().unwrap();
        assert_eq!(stats_line.kind, ServeKind::Stats);
        assert_eq!(stats_line.dispatched, Some(4));
    }

    /// A client that never ends its line is cut off at the frame cap
    /// like any other read error: it is detached, the session (and the
    /// flow it had sent) survives, and a reconnect gets a fresh banner.
    #[test]
    fn an_oversized_line_detaches_the_client_and_the_session_survives() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || run_server_on(listener, None, ServeOptions::default()));

        // Exactly one byte over the cap: the server consumes all of it,
        // so the close it answers with is a clean FIN, not a reset. A
        // server with no cap waits for the newline: the read times out
        // and the `Detached` assertion fails instead of hanging.
        let conn1 = TcpStream::connect(addr).unwrap();
        conn1
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut w1 = conn1.try_clone().unwrap();
        w1.write_all(b"{\"ports\":4}\n{\"release\":0,\"src\":0,\"dst\":1}\n")
            .unwrap();
        w1.write_all(&vec![b'x'; fss_dist::framing::MAX_FRAME_BYTES + 1])
            .unwrap();
        let msgs1 = read_msgs(&mut BufReader::new(conn1));
        assert_eq!(msgs1[0].kind, ServeKind::Started);
        assert_eq!(msgs1.last().unwrap().kind, ServeKind::Detached);

        let conn2 = TcpStream::connect(addr).unwrap();
        let mut w2 = conn2.try_clone().unwrap();
        w2.write_all(b"{\"release\":1,\"src\":2,\"dst\":3}\n{\"kind\":\"Finish\"}\n")
            .unwrap();
        let msgs2 = read_msgs(&mut BufReader::new(conn2));
        assert_eq!(msgs2[0].kind, ServeKind::Started, "fresh banner first");
        assert_eq!(msgs2.last().unwrap().kind, ServeKind::Stats);

        let stats = server.join().unwrap().expect("server session succeeds");
        assert_eq!((stats.arrived, stats.dispatched), (2, 2));
    }

    /// A closed-loop client: it sends round 0 and the one line that
    /// closes it, then waits for round 0's decisions before sending
    /// anything else. The engine is by then asleep on an empty queue, so
    /// a `Dispatch` line still buffered on its side would never arrive —
    /// the read times out and the test fails rather than hangs.
    #[test]
    fn a_client_that_waits_for_its_dispatches_gets_them() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server =
            std::thread::spawn(move || run_server_on(listener, None, ServeOptions::default()));

        let conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        let mut w = conn.try_clone().unwrap();
        let mut reader = BufReader::new(conn);
        w.write_all(
            concat!(
                "{\"ports\":4}\n",
                "{\"release\":0,\"src\":0,\"dst\":1}\n",
                "{\"release\":0,\"src\":1,\"dst\":0}\n",
                "{\"release\":0,\"src\":2,\"dst\":3}\n",
                "{\"release\":1,\"src\":3,\"dst\":2}\n",
            )
            .as_bytes(),
        )
        .unwrap();

        let mut round0 = Vec::new();
        let mut line = String::new();
        while round0.len() < 3 {
            line.clear();
            let n = reader.read_line(&mut line).unwrap_or_else(|e| {
                panic!(
                    "{} of round 0's 3 dispatches arrived, then nothing for 2 s ({e}): \
                     lines were left buffered while the engine waited",
                    round0.len()
                )
            });
            assert_ne!(n, 0, "server closed the connection early");
            let msg = ServeMsg::parse(line.trim()).expect("response parses");
            if msg.kind == ServeKind::Dispatch {
                assert_eq!((msg.release, msg.round), (Some(0), Some(0)));
                round0.push(msg.id.unwrap());
            }
        }
        assert_eq!(round0, [0, 1, 2]);

        w.write_all(b"{\"kind\":\"Finish\"}\n").unwrap();
        let rest = read_msgs(&mut reader);
        let stats = rest.last().expect("a Stats line closes the stream");
        assert_eq!(stats.kind, ServeKind::Stats);
        assert_eq!((stats.arrived, stats.dispatched), (Some(4), Some(4)));
        assert_eq!(server.join().unwrap().unwrap().dispatched, 4);
    }

    #[test]
    fn the_metrics_listener_answers_http_scrapes() {
        let metrics = Arc::new(ServeMetrics::new());
        metrics.ingested.add(5);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let h = spawn_metrics_server(listener, Arc::clone(&metrics), Arc::clone(&stop));

        let mut conn = TcpStream::connect(addr).unwrap();
        write!(conn, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        conn.shutdown(Shutdown::Write).unwrap();
        let mut reply = String::new();
        conn.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
        assert!(reply.contains("fss_serve_flows_ingested_total{source=\"serve\"} 5"));

        stop.store(true, Ordering::Relaxed);
        h.join().unwrap();
    }
}
