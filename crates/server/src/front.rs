//! The front door: the one serving shell under both the query node
//! ([`crate::Server`]) and the cluster coordinator. It owns bind, the
//! accept loop, the bounded admission queue and its 503s, the worker
//! pool, reading each request and writing its response, and the
//! admission counters ([`AdmissionMetrics`]). It knows nothing about
//! what a request means: the handler is any `Fn(&Request, Instant) ->
//! Response`, called with the admission instant so a deadline can count
//! the queue wait. DESIGN.md §9 states the admission discipline.

use std::io::{BufReader, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{self, Limits, Request, Response, MAX_HEADER_BYTES, MAX_REQUEST_LINE};
use crate::metrics::AdmissionMetrics;
use crate::queue::{BoundedQueue, PushError};

/// Read and write timeout on an admitted connection.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);
/// How long a connection answered before its request was fully read may
/// linger while [`close_unread`] drains the rest, from the answer on.
const LINGER: Duration = Duration::from_secs(1);
/// Bytes [`close_unread`] discards beyond the body limit: the most a
/// request line and header section can take.
const LINGER_HEADROOM: usize = MAX_REQUEST_LINE + MAX_HEADER_BYTES;
/// Refused connections waiting for the reaper; past this the accept loop
/// closes a refused connection at once.
const REAPER_CAPACITY: usize = 64;

/// One admitted connection waiting for a worker.
struct Job {
    stream: TcpStream,
    admitted: Instant,
}

/// One refused connection, its 503 written and its write side shut,
/// waiting for the reaper to drain it until `deadline`.
struct Refused {
    stream: TcpStream,
    deadline: Instant,
}

/// State the accept loop, the reaper and every worker share.
struct Door {
    queue: BoundedQueue<Job>,
    /// The accept loop's hand-off to the reaper, so a refused client that
    /// neither sends nor closes never blocks the acceptor.
    refused: BoundedQueue<Refused>,
    metrics: Arc<AdmissionMetrics>,
    limits: Limits,
    /// Set once the workers have drained the closed queue: the next
    /// accepted connection (the wake-up sent by [`FrontDoor::shutdown`])
    /// ends the accept loop, which closes the listener.
    stopped: AtomicBool,
}

/// A bound listener with its accept thread, reaper and worker pool.
/// Dropping the handle detaches the threads; call [`FrontDoor::shutdown`]
/// for a graceful stop or [`FrontDoor::join`] to serve until the process
/// exits.
pub struct FrontDoor {
    addr: SocketAddr,
    door: Arc<Door>,
    acceptor: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl FrontDoor {
    /// Bind `addr` and serve it with `handler`: one worker per
    /// `metrics.workers_total` (so the gauge and the pool agree) behind a
    /// queue of `queue_capacity` (minimum 1) admitted connections.
    /// Returns once the listener and the workers are running.
    pub fn start<H>(
        addr: &str,
        queue_capacity: usize,
        limits: Limits,
        metrics: Arc<AdmissionMetrics>,
        handler: H,
    ) -> std::io::Result<FrontDoor>
    where
        H: Fn(&Request, Instant) -> Response + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let door = Arc::new(Door {
            queue: BoundedQueue::new(queue_capacity),
            refused: BoundedQueue::new(REAPER_CAPACITY),
            metrics,
            limits,
            stopped: AtomicBool::new(false),
        });
        let handler = Arc::new(handler);
        let workers = (0..door.metrics.workers_total)
            .map(|_| {
                let door = Arc::clone(&door);
                let handler = Arc::clone(&handler);
                std::thread::spawn(move || worker_loop(&door, &*handler))
            })
            .collect();
        let reap_door = Arc::clone(&door);
        let reaper = std::thread::spawn(move || reap_loop(&reap_door));
        let accept_door = Arc::clone(&door);
        let acceptor = std::thread::spawn(move || accept_loop(&listener, &accept_door));
        Ok(FrontDoor {
            addr,
            door,
            acceptor: Some(acceptor),
            reaper: Some(reaper),
            workers,
        })
    }

    /// The bound address (with the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop admitting (new connections are answered
    /// 503 from here on), let the workers finish every admitted request,
    /// then close the listener, let the reaper finish its drains (each
    /// at most 1 s) and join every thread.
    pub fn shutdown(mut self) {
        self.door.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.door.stopped.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a no-op connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        self.stop_reaper();
    }

    /// Serve until the process exits (a CLI's main loop). Never returns
    /// under normal operation.
    pub fn join(mut self) {
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        self.door.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.stop_reaper();
    }

    /// Once the accept loop has ended: let the reaper drain what it holds,
    /// then join it.
    fn stop_reaper(&mut self) {
        self.door.refused.close();
        if let Some(handle) = self.reaper.take() {
            let _ = handle.join();
        }
    }
}

fn accept_loop(listener: &TcpListener, door: &Door) {
    let metrics = &door.metrics;
    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        if door.stopped.load(Ordering::SeqCst) {
            break;
        }
        metrics.requests_total.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            stream,
            admitted: Instant::now(),
        };
        match door.queue.try_push(job) {
            Ok(depth) => metrics.queue_depth.store(depth, Ordering::Relaxed),
            Err(PushError::Full(job)) => {
                metrics.rejected_saturated.fetch_add(1, Ordering::Relaxed);
                refuse(door, job.stream, "admission queue full", true);
            }
            Err(PushError::Closed(job)) => {
                metrics.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
                refuse(door, job.stream, "server is shutting down", false);
            }
        }
    }
}

/// Answer 503 directly from the accept loop — overload and shutdown never
/// touch the worker pool. The client's request is still unread, so the
/// write side is shut here, at once, and the drain is left to the reaper;
/// when its hand-off is full the connection closes now instead.
fn refuse(door: &Door, mut stream: TcpStream, message: &str, retryable: bool) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut response = Response::error(503, message);
    if retryable {
        response = response.with_header("Retry-After", "1".to_string());
    }
    door.metrics.record_status(503);
    let _ = response.write_to(&mut stream);
    let _ = stream.shutdown(Shutdown::Write);
    let refused = Refused {
        stream,
        deadline: Instant::now() + LINGER,
    };
    let _ = door.refused.try_push(refused);
}

fn reap_loop(door: &Door) {
    while let Some(refused) = door.refused.pop() {
        close_unread(refused.stream, refused.deadline, &door.limits);
    }
}

/// Close a connection whose response went out before its request was
/// fully read. Dropping it with request bytes unread makes the kernel
/// answer with RST, and an RST can reach the client before it has read
/// the response, which is then lost. So: shut the write side (FIN after
/// the response, so the client reads it and EOF; repeating the shutdown
/// [`refuse`] made is harmless), read and discard what the client still
/// sends until EOF, an error, `deadline`, or as many bytes as the largest
/// request `limits` admit, then drop. A plain loop: nothing read here is
/// ever parsed as a request.
fn close_unread(mut stream: TcpStream, deadline: Instant, limits: &Limits) {
    let _ = stream.shutdown(Shutdown::Write);
    let mut budget = LINGER_HEADROOM + limits.max_body;
    let mut scratch = [0u8; 4096];
    while budget > 0 {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        let want = budget.min(scratch.len());
        match stream.read(&mut scratch[..want]) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget -= n,
        }
    }
}

fn worker_loop<H: Fn(&Request, Instant) -> Response>(door: &Door, handler: &H) {
    let metrics = &door.metrics;
    while let Some(job) = door.queue.pop() {
        metrics
            .queue_depth
            .store(door.queue.len(), Ordering::Relaxed);
        metrics.queue_wait.record(job.admitted.elapsed());
        metrics.workers_busy.fetch_add(1, Ordering::Relaxed);
        // A panic inside one request must not kill the worker: catch it,
        // count a 500, and move on. The engine crates are panic-free by
        // lint policy; this is defense in depth.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_connection(door, handler, job);
        }));
        if result.is_err() {
            metrics.record_status(500);
        }
        metrics.workers_busy.fetch_sub(1, Ordering::Relaxed);
    }
}

fn handle_connection<H: Fn(&Request, Instant) -> Response>(door: &Door, handler: &H, job: Job) {
    let Job { stream, admitted } = job;
    let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
    // A parse error is answered before the request has been consumed.
    let (response, unread) = match http::read_request(&mut BufReader::new(&stream), &door.limits) {
        Ok(request) => (handler(&request, admitted), false),
        Err(e) => {
            let (status, _) = e.status();
            (Response::error(status, &e.to_string()), true)
        }
    };
    door.metrics.record_status(response.status);
    let _ = response.write_to(&mut &stream);
    door.metrics.latency.record(admitted.elapsed());
    if unread {
        close_unread(stream, Instant::now() + LINGER, &door.limits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::Barrier;

    /// One worker behind a queue of `queue_capacity`.
    fn start<H>(queue_capacity: usize, handler: H) -> (FrontDoor, Arc<AdmissionMetrics>)
    where
        H: Fn(&Request, Instant) -> Response + Send + Sync + 'static,
    {
        let metrics = Arc::new(AdmissionMetrics::new(1));
        let front = FrontDoor::start(
            "127.0.0.1:0",
            queue_capacity,
            Limits::default(),
            Arc::clone(&metrics),
            handler,
        )
        .unwrap();
        (front, metrics)
    }

    fn send(addr: SocketAddr, path: &str) -> TcpStream {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
            .unwrap();
        stream
    }

    /// Read to EOF and return the status code, `None` for no response.
    /// A reset in place of EOF fails the test: it can destroy a response.
    fn status_of(stream: &mut TcpStream) -> Option<u16> {
        let mut raw = Vec::new();
        stream
            .read_to_end(&mut raw)
            .expect("the connection ends in EOF, not a reset");
        let text = String::from_utf8_lossy(&raw);
        text.split(' ').nth(1).and_then(|s| s.parse().ok())
    }

    fn wait_until(what: &str, done: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn load(counter: &std::sync::atomic::AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// `/hold` keeps the only worker busy until the test meets it at the
    /// returned barrier; every other path answers 200 at once.
    fn start_holding(queue_capacity: usize) -> (FrontDoor, Arc<AdmissionMetrics>, Arc<Barrier>) {
        let release = Arc::new(Barrier::new(2));
        let held = Arc::clone(&release);
        let (front, metrics) = start(queue_capacity, move |request: &Request, _| {
            if request.path == "/hold" {
                held.wait();
            }
            Response::json(200, "{}".to_string())
        });
        (front, metrics, release)
    }

    #[test]
    fn a_connection_arriving_during_the_drain_is_refused_and_counted() {
        let (front, metrics, release) = start_holding(4);
        let addr = front.addr();
        let mut in_flight = send(addr, "/hold");
        wait_until("the worker to take /hold", || {
            metrics.workers_busy.load(Ordering::Relaxed) == 1
        });

        let door = Arc::clone(&front.door);
        let stopper = std::thread::spawn(move || front.shutdown());
        wait_until("shutdown to close the queue", || door.queue.is_closed());
        // A late client sends its whole request, as a real one does: the
        // refusal must reach it although the request is never read.
        let mut late = send(addr, "/late");
        assert_eq!(status_of(&mut late), Some(503));
        assert_eq!(load(&metrics.rejected_shutdown), 1);
        drop(late);

        release.wait();
        assert_eq!(status_of(&mut in_flight), Some(200));
        stopper.join().unwrap();
        // The wake-up connection that stops the accept loop is no refusal.
        assert_eq!(load(&metrics.rejected_shutdown), 1);
        assert_eq!(load(&metrics.rejected_saturated), 0);
        assert!(
            TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
            "listener still accepting after shutdown"
        );
    }

    #[test]
    fn a_panicking_handler_costs_one_request_not_the_worker() {
        let (front, metrics) = start(4, |request: &Request, _| {
            if request.path == "/panic" {
                panic!("handler panicked on purpose");
            }
            Response::json(200, "{}".to_string())
        });
        let addr = front.addr();
        assert_eq!(status_of(&mut send(addr, "/panic")), None);
        wait_until("the panic to be counted", || {
            load(&metrics.responses_by_class[4]) == 1
        });
        wait_until("the worker to be idle", || {
            metrics.workers_busy.load(Ordering::Relaxed) == 0
        });
        // The single worker survived and answers the next request.
        assert_eq!(status_of(&mut send(addr, "/ok")), Some(200));
        front.shutdown();
        assert_eq!(load(&metrics.responses_by_class[1]), 1);
        assert_eq!(load(&metrics.responses_by_class[4]), 1);
        assert_eq!(metrics.latency.count(), 1);
    }

    #[test]
    fn a_stalled_refused_client_is_drained_for_a_bounded_time_off_the_acceptor() {
        let (front, metrics, release) = start_holding(1);
        let addr = front.addr();
        let mut in_flight = send(addr, "/hold");
        wait_until("the worker to take /hold", || {
            metrics.workers_busy.load(Ordering::Relaxed) == 1
        });
        let mut queued = send(addr, "/queued");
        wait_until("the queue to fill", || {
            metrics.queue_depth.load(Ordering::Relaxed) == 1
        });

        // Half a request, then neither more bytes nor a close. The server
        // cannot refuse it before this instant, so it cannot let it go
        // before a full linger after it either.
        let connected = Instant::now();
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stalled
            .write_all(b"GET /stalled HTTP/1.1\r\nHost:")
            .unwrap();
        assert_eq!(status_of(&mut stalled), Some(503));

        // The acceptor is not waiting on the stalled client.
        let asked = Instant::now();
        assert_eq!(status_of(&mut send(addr, "/next")), Some(503));
        let answered = asked.elapsed();
        assert!(
            answered < Duration::from_millis(500),
            "the next refusal took {answered:?}"
        );

        // While the server drains the stalled socket it discards what it
        // is sent; once it has let go, the kernel answers a sent byte with
        // a reset, so a later write fails. That must happen after the
        // 1 s linger and not long after it.
        while stalled.write_all(b"x").is_ok() {
            let open = connected.elapsed();
            assert!(
                open < Duration::from_secs(3),
                "the stalled connection is still open after {open:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        let open = connected.elapsed();
        assert!(
            open >= Duration::from_millis(900),
            "the stalled connection was let go after {open:?}, before the linger ran out"
        );

        release.wait();
        assert_eq!(status_of(&mut in_flight), Some(200));
        assert_eq!(status_of(&mut queued), Some(200));
        front.shutdown();
        assert_eq!(load(&metrics.rejected_saturated), 2);
    }
}
