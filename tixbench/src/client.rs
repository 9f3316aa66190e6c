//! The load generator: one blocking HTTP round trip per connection, a
//! closed loop (each client sends its next request when the previous one
//! completes) and an open loop (requests are due on a fixed schedule and
//! timed from when they were due).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::stream::{fnv1a, Req};

const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Client-side spans of one round trip, microseconds each.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timing {
    pub connect_us: f64,
    pub send_us: f64,
    /// Request written → first response byte.
    pub wait_us: f64,
    /// First response byte → connection closed by the server.
    pub read_us: f64,
}

impl Timing {
    /// The whole round trip.
    pub fn total_us(&self) -> f64 {
        self.connect_us + self.send_us + self.wait_us + self.read_us
    }
}

/// Whether `status` is a success (0 stands for a transport error).
pub fn is_ok(status: u16) -> bool {
    (200..300).contains(&status)
}

/// One response: `buf[body_at..]` is the body.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub status: u16,
    pub body_at: usize,
}

fn micros(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e6
}

/// Send `wire` on a fresh connection and read the whole response into
/// `buf`. With `timed`, the four client-side spans are measured too.
pub fn roundtrip(
    addr: SocketAddr,
    wire: &[u8],
    buf: &mut Vec<u8>,
    timed: bool,
) -> io::Result<(Reply, Timing)> {
    buf.clear();
    let now = || if timed { Some(Instant::now()) } else { None };
    let start = now();
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let connected = now();
    stream.write_all(wire)?;
    let sent = now();
    let mut chunk = [0u8; 8192];
    let n = stream.read(&mut chunk)?;
    let first_byte = now();
    buf.extend_from_slice(&chunk[..n]);
    stream.read_to_end(buf)?;
    let done = now();
    let reply = parse_reply(buf)?;
    let timing = match (start, connected, sent, first_byte, done) {
        (Some(a), Some(b), Some(c), Some(d), Some(e)) => Timing {
            connect_us: micros(a, b),
            send_us: micros(b, c),
            wait_us: micros(c, d),
            read_us: micros(d, e),
        },
        _ => Timing::default(),
    };
    Ok((reply, timing))
}

fn parse_reply(buf: &[u8]) -> io::Result<Reply> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let status = buf
        .get(9..12)
        .filter(|_| buf.starts_with(b"HTTP/1."))
        .and_then(|digits| std::str::from_utf8(digits).ok())
        .and_then(|digits| digits.parse::<u16>().ok())
        .ok_or_else(|| bad("no status line"))?;
    let body_at = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header end"))?
        + 4;
    Ok(Reply { status, body_at })
}

/// A round trip that returns status and body text (set-up, checks).
pub fn call(addr: SocketAddr, wire: &[u8]) -> io::Result<(u16, String)> {
    let mut buf = Vec::new();
    let (reply, _) = roundtrip(addr, wire, &mut buf, false)?;
    Ok((
        reply.status,
        String::from_utf8_lossy(&buf[reply.body_at..]).into_owned(),
    ))
}

/// One measured request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Position in the stream (taken modulo its length).
    pub pos: usize,
    /// Seconds since the phase began when the request was due (open loop)
    /// or started (closed loop).
    pub at_s: f64,
    /// From due time (open loop) or start (closed loop) to the last byte.
    pub latency_us: f64,
    /// How long after its due time the generator started it.
    pub late_us: f64,
    /// 0 for a transport error.
    pub status: u16,
    pub body_bytes: usize,
    /// FNV-1a of the body for positions inside the checked sample, else 0.
    pub body_hash: u64,
    pub timing: Timing,
}

impl Sample {
    pub fn ok(&self) -> bool {
        is_ok(self.status)
    }
}

/// A finished phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub elapsed_s: f64,
}

impl Phase {
    pub fn ok_count(&self) -> usize {
        self.samples.iter().filter(|s| s.ok()).count()
    }

    pub fn ok_per_s(&self) -> f64 {
        self.ok_count() as f64 / self.elapsed_s.max(1e-9)
    }
}

/// Where the load goes and what is kept of each response.
#[derive(Debug, Clone, Copy)]
pub struct Load<'a> {
    pub addr: SocketAddr,
    pub stream: &'a [Req],
    /// Measure the client-side spans of every round trip.
    pub timed: bool,
    /// Hash the bodies of stream positions (modulo the cycle) below this.
    pub hash_below: usize,
}

impl Load<'_> {
    fn send(&self, pos: usize, buf: &mut Vec<u8>) -> (u16, usize, u64, Timing) {
        let slot = pos % self.stream.len();
        match roundtrip(self.addr, &self.stream[slot].wire, buf, self.timed) {
            Ok((reply, timing)) => {
                let body = &buf[reply.body_at..];
                let hash = if slot < self.hash_below {
                    fnv1a(body)
                } else {
                    0
                };
                (reply.status, body.len(), hash, timing)
            }
            Err(_) => (0, 0, 0, Timing::default()),
        }
    }

    /// `clients` threads, each sending its next request when its previous
    /// one completed, for `span`. Positions are handed out in stream
    /// order starting at `first_pos`.
    pub fn closed_loop(&self, first_pos: usize, clients: usize, span: Duration) -> Phase {
        let next = AtomicUsize::new(first_pos);
        let start = Instant::now();
        let end = start + span;
        let per_client: Vec<Vec<Sample>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients.max(1))
                .map(|_| {
                    scope.spawn(|| {
                        let mut buf = Vec::with_capacity(64 * 1024);
                        let mut samples = Vec::new();
                        loop {
                            let begin = Instant::now();
                            if begin >= end {
                                break;
                            }
                            let pos = next.fetch_add(1, Ordering::Relaxed);
                            let (status, body_bytes, body_hash, timing) = self.send(pos, &mut buf);
                            samples.push(Sample {
                                pos,
                                at_s: micros(start, begin) / 1e6,
                                latency_us: micros(begin, Instant::now()),
                                late_us: 0.0,
                                status,
                                body_bytes,
                                body_hash,
                                timing,
                            });
                            if status == 0 {
                                // Do not spin on a dead socket.
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                        samples
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        Phase {
            samples: per_client.into_iter().flatten().collect(),
            elapsed_s: start.elapsed().as_secs_f64(),
        }
    }

    /// `senders` threads share one schedule of `rate` requests per second
    /// for `span`: request `i` is due at `i / rate` and goes to sender
    /// `i % senders`, which sends it when it is due, or as soon after as
    /// its previous request allows.
    pub fn open_loop(&self, first_pos: usize, senders: usize, rate: f64, span: Duration) -> Phase {
        let senders = senders.max(1);
        let period = Duration::from_secs_f64(1.0 / rate.max(1e-3));
        let start = Instant::now();
        let per_sender: Vec<Vec<Sample>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..senders)
                .map(|sender| {
                    scope.spawn(move || {
                        let mut buf = Vec::with_capacity(64 * 1024);
                        run_schedule(start, period, span, sender, senders, |i| {
                            self.send(first_pos + i, &mut buf)
                        })
                        .into_iter()
                        .map(|tick| {
                            let (status, body_bytes, body_hash, timing) = tick.out;
                            Sample {
                                pos: first_pos + tick.i,
                                at_s: tick.due_s,
                                latency_us: tick.latency_us,
                                late_us: tick.late_us,
                                status,
                                body_bytes,
                                body_hash,
                                timing,
                            }
                        })
                        .collect::<Vec<Sample>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sender thread"))
                .collect()
        });
        Phase {
            samples: per_sender.into_iter().flatten().collect(),
            elapsed_s: start.elapsed().as_secs_f64(),
        }
    }
}

/// One request of an open-loop schedule.
#[derive(Debug, Clone, Copy)]
pub struct Tick<R> {
    pub i: usize,
    /// Seconds after `start` at which it was due.
    pub due_s: f64,
    /// Start of sending minus due time.
    pub late_us: f64,
    /// Completion minus **due time**: a stall is charged to every request
    /// that was due during it, not only to the one that hit it.
    pub latency_us: f64,
    pub out: R,
}

/// Run requests `first, first + stride, …` of the schedule "request `i`
/// is due at `start + i × period`" until a due time reaches `span`. The
/// schedule never slips: a sender that falls behind sends at once and
/// records how late it was.
pub fn run_schedule<R>(
    start: Instant,
    period: Duration,
    span: Duration,
    first: usize,
    stride: usize,
    mut send: impl FnMut(usize) -> R,
) -> Vec<Tick<R>> {
    let mut ticks = Vec::new();
    let mut i = first;
    loop {
        let offset = period.mul_f64(i as f64);
        if offset >= span {
            return ticks;
        }
        let due = start + offset;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let begin = Instant::now();
        let out = send(i);
        ticks.push(Tick {
            i,
            due_s: offset.as_secs_f64(),
            late_us: micros(due, begin),
            latency_us: micros(due, Instant::now()),
            out,
        });
        i += stride.max(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_times_from_due_and_charges_a_stall_to_later_requests() {
        let period = Duration::from_millis(5);
        let ticks = run_schedule(
            Instant::now(),
            period,
            Duration::from_millis(100),
            0,
            1,
            |i| {
                // Request 3 stalls for six periods; the others are instant.
                if i == 3 {
                    std::thread::sleep(Duration::from_millis(30));
                }
            },
        );
        assert_eq!(ticks.len(), 20, "one request per period, none dropped");
        for (n, tick) in ticks.iter().enumerate() {
            assert_eq!(tick.i, n);
            assert!((tick.due_s - 0.005 * n as f64).abs() < 1e-9);
            assert!(tick.latency_us >= tick.late_us);
        }
        // Before the stall the generator is on time (sleep granularity).
        assert!(ticks[2].late_us < 3000.0, "{}", ticks[2].late_us);
        // The stalled request itself was sent on time but took 30 ms.
        assert!(ticks[3].late_us < 3000.0);
        assert!(ticks[3].latency_us >= 30_000.0);
        // Requests 4..8 were due during the stall: each started late by
        // what was left of it, and that wait is in their latency.
        assert!(ticks[4].late_us >= 24_000.0, "{}", ticks[4].late_us);
        assert!(ticks[4].latency_us >= 24_000.0);
        assert!(ticks[8].late_us >= 4_000.0, "{}", ticks[8].late_us);
        // The backlog drains and the schedule is met again, unshifted.
        assert!(ticks[15].late_us < 3000.0, "{}", ticks[15].late_us);
        let late = ticks.iter().filter(|t| t.late_us >= 1000.0).count();
        assert!((5..=8).contains(&late), "{late} late requests");
    }

    #[test]
    fn senders_split_one_schedule_between_them() {
        let period = Duration::from_millis(2);
        let span = Duration::from_millis(20);
        let start = Instant::now();
        let a = run_schedule(start, period, span, 0, 2, |i| i);
        let b = run_schedule(start + span, period, span, 1, 2, |i| i);
        let mut all: Vec<usize> = a.iter().chain(&b).map(|t| t.out).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn replies_are_parsed_from_the_raw_bytes() {
        let raw = b"HTTP/1.1 201 Created\r\nContent-Length: 2\r\n\r\nok";
        let reply = parse_reply(raw).unwrap();
        assert_eq!(reply.status, 201);
        assert_eq!(&raw[reply.body_at..], b"ok");
        assert!(parse_reply(b"garbage").is_err());
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\nno end").is_err());
    }
}
