//! The load generator: a closed loop over `cosmo_http::HttpClient` and a
//! pipelined open loop with its own minimal wire client.
//!
//! Both keep to at most `nproc` threads and `nproc` live connections, as
//! asserted at start, so the generator never outnumbers the cores the
//! server runs on.

use crate::util::{nproc, quantile, windowed};
use cosmo_http::{HttpClient, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Width of the windows that latency and throughput medians are taken over.
pub const WINDOW: Duration = Duration::from_millis(500);

/// A complete HTTP/1.1 request message.
pub fn http_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: cosmo\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn assert_within_nproc(threads: usize, connections: usize) {
    let n = nproc();
    assert!(
        threads <= n && connections <= n,
        "load generator wants {threads} threads and {connections} connections on {n} cores"
    );
}

/// Result of a closed-loop phase.
pub struct ClosedReport {
    pub completed: u64,
    pub failed: u64,
    /// Median over [`WINDOW`]s of completed requests per second.
    pub rps: f64,
    /// Median over each client's [`WINDOW`]s of the window's p50 and p99
    /// request latency.
    pub p50_us: f64,
    pub p99_us: f64,
}

/// One client's latencies in one window: `(window, count, p50, p99)`.
/// Each client reduces a window as it ends, so the loop's memory does not
/// grow with the number of requests and stays out of the measured peak.
type WindowStat = (usize, usize, f64, f64);

fn close_window(stats: &mut Vec<WindowStat>, window: usize, latencies: &mut Vec<f64>) {
    if !latencies.is_empty() {
        let (p50, p99) = (quantile(latencies, 0.5), quantile(latencies, 0.99));
        stats.push((window, latencies.len(), p50, p99));
        latencies.clear();
    }
}

/// `clients` keep-alive connections, each sending `bodies` round-robin to
/// `POST /v1/serve-intents` and waiting for every reply.
pub fn closed_loop(
    addr: SocketAddr,
    clients: usize,
    bodies: &[String],
    duration: Duration,
) -> ClosedReport {
    assert_within_nproc(clients, clients);
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let per_client: Vec<(Vec<WindowStat>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let stop = &stop;
                s.spawn(move || {
                    let mut stats = Vec::new();
                    let mut window = 0usize;
                    let mut latencies = Vec::with_capacity(1 << 16);
                    let mut failed = 0u64;
                    let Ok(mut client) = HttpClient::connect(addr) else {
                        return (stats, 1);
                    };
                    let mut next = c * 7919;
                    while !stop.load(Ordering::Relaxed) {
                        let body = &bodies[next % bodies.len()];
                        next += 1;
                        let sent = Instant::now();
                        match client.request("POST", "/v1/serve-intents", body) {
                            Ok(resp) if resp.status == 200 => {
                                let latency = sent.elapsed().as_secs_f64() * 1e6;
                                let w = ((sent - start).as_nanos() / WINDOW.as_nanos()) as usize;
                                if w != window {
                                    close_window(&mut stats, window, &mut latencies);
                                    window = w;
                                }
                                latencies.push(latency);
                            }
                            Ok(_) => failed += 1,
                            Err(_) => {
                                failed += 1;
                                match HttpClient::connect(addr) {
                                    Ok(fresh) => client = fresh,
                                    Err(_) => break,
                                }
                            }
                        }
                    }
                    close_window(&mut stats, window, &mut latencies);
                    (stats, failed)
                })
            })
            .collect();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let full_windows = (duration.as_nanos() / WINDOW.as_nanos()) as usize;
    let mut per_window = vec![0u64; full_windows];
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    let mut completed = 0u64;
    let mut failed = 0u64;
    for (stats, f) in &per_client {
        failed += f;
        for &(w, count, p50, p99) in stats {
            completed += count as u64;
            if w < full_windows {
                per_window[w] += count as u64;
                if count >= 10 {
                    p50s.push(p50);
                    p99s.push(p99);
                }
            }
        }
    }
    let rates: Vec<f64> = per_window
        .iter()
        .map(|&n| n as f64 / WINDOW.as_secs_f64())
        .collect();
    ClosedReport {
        completed,
        failed,
        rps: crate::util::median(&rates),
        p50_us: crate::util::median(&p50s),
        p99_us: crate::util::median(&p99s),
    }
}

/// An open-loop plan: distinct request messages and the order they are
/// sent in, one every `1 / rate` seconds.
pub struct Plan {
    pub requests: Vec<Vec<u8>>,
    /// Indexes into `requests`.
    pub schedule: Vec<u32>,
    pub rate: f64,
    /// How long before each due time the sender stops sleeping and
    /// yields the core until due instead. A sleep overshoots by the
    /// kernel's timer slack (tens of µs), which would show in every
    /// request's latency; zero sleeps all the way and leaves the cores
    /// to the server, for workloads whose timed operation is much longer
    /// than that.
    pub spin: Duration,
}

/// One scheduled request's fate. `status` 0 means a transport error or
/// no answer.
#[derive(Clone, Copy, Default)]
pub struct Outcome {
    pub request: u32,
    pub status: u16,
    /// Seconds from the start of the schedule to when it was due.
    pub due_s: f64,
    /// Answer time minus due time.
    pub latency_us: f64,
    /// Send time minus due time.
    pub late_us: f64,
    pub req_bytes: u32,
    pub resp_bytes: u32,
}

/// Result of an open-loop phase.
pub struct OpenReport {
    pub outcomes: Vec<Outcome>,
    pub sent: u64,
    pub completed: u64,
}

impl OpenReport {
    /// Answered with a 2xx.
    pub fn ok(o: &Outcome) -> bool {
        (200..300).contains(&o.status)
    }

    pub fn failed(&self) -> u64 {
        self.outcomes.iter().filter(|o| !Self::ok(o)).count() as u64
    }

    /// The `q` latency quantile in each `window` of due time, and the
    /// `over` quantile of those (see [`windowed`]). A failed request counts
    /// as missing every limit.
    pub fn latency_us(&self, q: f64, window: Duration, over: f64) -> f64 {
        let samples: Vec<(usize, f64)> = self
            .outcomes
            .iter()
            .map(|o| {
                let w = (o.due_s / window.as_secs_f64()) as usize;
                let lat = if Self::ok(o) {
                    o.latency_us
                } else {
                    f64::INFINITY
                };
                (w, lat)
            })
            .collect();
        windowed(&samples, q, 10, over)
    }

    pub fn late_p99_us(&self) -> f64 {
        let late: Vec<f64> = self.outcomes.iter().map(|o| o.late_us).collect();
        quantile(&late, 0.99)
    }
}

enum Msg {
    Conn(TcpStream),
    EndConn,
    Sent(usize, Instant, Instant),
    Unsent(usize, Instant),
}

/// Send `plan` open loop over pipelined keep-alive connections: one
/// sender thread writes each request when it is due without waiting for
/// replies, one reader thread takes the replies in order. Requests are
/// spaced one by one, never bunched, so at a rate the server keeps up
/// with, each reply is written before the next request arrives and none
/// waits on the server's unacknowledged previous reply. Each connection
/// carries as many requests as the server serves on one connection, so
/// the server's polite close never cuts a pipelined request.
///
/// `on_reply(index, request, status, body, at)` sees every answered
/// request on the reader thread.
pub fn open_loop<F>(addr: SocketAddr, plan: &Plan, mut on_reply: F) -> OpenReport
where
    F: FnMut(usize, u32, u16, &[u8], Instant) + Send,
{
    let max_conns = nproc();
    assert_within_nproc(2, max_conns);
    let per_conn = ServerConfig::default().max_requests_per_conn.max(1);
    let finished = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<Msg>();
    let start = Instant::now() + Duration::from_millis(20);
    let n = plan.schedule.len();
    let due_at = |i: usize| start + Duration::from_secs_f64(i as f64 / plan.rate);

    std::thread::scope(|s| {
        let finished_ref = &finished;
        s.spawn(move || {
            let connect = || {
                TcpStream::connect(addr).and_then(|c| {
                    c.set_nodelay(true)?;
                    Ok((c.try_clone()?, c))
                })
            };
            let mut conn: Option<TcpStream> = None;
            // the next connection, opened halfway through the current one
            // so the server has accepted it before it carries requests
            let mut spare: Option<(TcpStream, TcpStream)> = None;
            let mut opened = 0usize;
            let mut on_conn = 0usize;
            for (i, &r) in plan.schedule.iter().enumerate() {
                let due = due_at(i);
                wait_until(due, plan.spin);
                let live = |opened: usize| opened - finished_ref.load(Ordering::Acquire);
                if spare.is_none() && on_conn >= per_conn / 2 && live(opened) < max_conns {
                    if let Ok(pair) = connect() {
                        opened += 1;
                        spare = Some(pair);
                    }
                }
                if conn.is_none() || on_conn == per_conn {
                    if conn.take().is_some() {
                        let _ = tx.send(Msg::EndConn);
                    }
                    let next = match spare.take() {
                        Some(pair) => Ok(pair),
                        None => {
                            // keep at most `max_conns` connections open
                            while live(opened) >= max_conns {
                                std::thread::sleep(Duration::from_micros(50));
                            }
                            connect().inspect(|_| opened += 1)
                        }
                    };
                    match next {
                        Ok((read_half, write_half)) => {
                            on_conn = 0;
                            let _ = tx.send(Msg::Conn(read_half));
                            conn = Some(write_half);
                        }
                        Err(_) => {
                            let _ = tx.send(Msg::Unsent(i, due));
                            continue;
                        }
                    }
                }
                let sent = Instant::now();
                let stream = conn.as_mut().expect("connection opened above");
                if stream.write_all(&plan.requests[r as usize]).is_ok() {
                    on_conn += 1;
                    let _ = tx.send(Msg::Sent(i, due, sent));
                } else {
                    let _ = tx.send(Msg::Unsent(i, due));
                    conn = None;
                    let _ = tx.send(Msg::EndConn);
                }
            }
            if conn.is_some() {
                let _ = tx.send(Msg::EndConn);
            }
            if spare.is_some() {
                // opened but never carried a request: close it unread
                let _ = tx.send(Msg::Conn(spare.take().expect("checked").0));
                let _ = tx.send(Msg::EndConn);
            }
        });

        let mut outcomes = vec![Outcome::default(); n];
        for (i, o) in outcomes.iter_mut().enumerate() {
            o.request = plan.schedule[i];
            o.due_s = (due_at(i) - start).as_secs_f64();
            o.req_bytes = plan.requests[o.request as usize].len() as u32;
        }
        let mut reader: Option<BufReader<TcpStream>> = None;
        let mut body = Vec::new();
        let (mut sent_count, mut completed) = (0u64, 0u64);
        for msg in rx {
            match msg {
                Msg::Conn(stream) => {
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                    reader = Some(BufReader::with_capacity(1 << 16, stream));
                }
                Msg::EndConn => {
                    reader = None;
                    finished.fetch_add(1, Ordering::Release);
                }
                Msg::Unsent(i, due) => {
                    outcomes[i].late_us = (Instant::now() - due).as_secs_f64() * 1e6;
                }
                Msg::Sent(i, due, sent) => {
                    sent_count += 1;
                    let o = &mut outcomes[i];
                    o.late_us = (sent - due).as_secs_f64() * 1e6;
                    let answer = reader.as_mut().map(|r| read_response(r, &mut body));
                    let at = Instant::now();
                    match answer {
                        Some(Ok((status, head_bytes))) => {
                            completed += 1;
                            o.status = status;
                            o.latency_us = (at - due).as_secs_f64() * 1e6;
                            o.resp_bytes = (head_bytes + body.len()) as u32;
                            on_reply(i, o.request, status, &body, at);
                        }
                        // the connection is broken: fail the rest of it fast
                        _ => reader = None,
                    }
                }
            }
        }
        OpenReport {
            outcomes,
            sent: sent_count,
            completed,
        }
    })
}

/// Block until `due`: sleep until `spin` before it, then yield the core
/// until due (see [`Plan::spin`]).
fn wait_until(due: Instant, spin: Duration) {
    let now = Instant::now();
    if due > now + spin {
        std::thread::sleep(due - now - spin);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Read one response; returns the status and the header section's size
/// and leaves the body in `body`.
fn read_response(reader: &mut impl BufRead, body: &mut Vec<u8>) -> std::io::Result<(u16, usize)> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut line = Vec::with_capacity(64);
    if reader.read_until(b'\n', &mut line)? == 0 {
        return Err(bad("closed"));
    }
    let mut head = line.len();
    let status = std::str::from_utf8(&line)
        .ok()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("status line"))?;
    let mut length = 0usize;
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            return Err(bad("eof in headers"));
        }
        head += line.len();
        let text = std::str::from_utf8(&line)
            .map_err(|_| bad("header"))?
            .trim_end();
        if text.is_empty() {
            break;
        }
        if let Some((name, value)) = text.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().map_err(|_| bad("content-length"))?;
            }
        }
    }
    if length > cosmo_http::client::MAX_RESPONSE_BODY_BYTES {
        return Err(bad("body too large"));
    }
    body.resize(length, 0);
    reader.read_exact(body)?;
    Ok((status, head))
}
