//! The front door: the one serving shell under both the query node
//! ([`crate::Server`]) and the cluster coordinator. It owns bind, the
//! accept loop, the bounded admission queue and its 503s, the worker
//! pool, reading each request and writing its response, and the
//! admission counters ([`AdmissionMetrics`]). It knows nothing about
//! what a request means: the handler is any `Fn(&Request, Instant) ->
//! Response`, called with the admission instant so a deadline can count
//! the queue wait. DESIGN.md §9 states the admission discipline.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::{self, Limits, Request, Response};
use crate::metrics::AdmissionMetrics;
use crate::queue::{BoundedQueue, PushError};

/// Read and write timeout on an admitted connection.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);

/// One admitted connection waiting for a worker.
struct Job {
    stream: TcpStream,
    admitted: Instant,
}

/// State the accept loop and every worker share.
struct Door {
    queue: BoundedQueue<Job>,
    metrics: Arc<AdmissionMetrics>,
    limits: Limits,
    /// Set once the workers have drained the closed queue: the next
    /// accepted connection (the wake-up sent by [`FrontDoor::shutdown`])
    /// ends the accept loop, which closes the listener.
    stopped: AtomicBool,
}

/// A bound listener with its accept thread and worker pool. Dropping the
/// handle detaches the threads; call [`FrontDoor::shutdown`] for a
/// graceful stop or [`FrontDoor::join`] to serve until the process exits.
pub struct FrontDoor {
    addr: SocketAddr,
    door: Arc<Door>,
    acceptor: Option<JoinHandle<()>>,
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
        let accept_door = Arc::clone(&door);
        let acceptor = std::thread::spawn(move || accept_loop(&listener, &accept_door));
        Ok(FrontDoor {
            addr,
            door,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (with the actual port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop admitting (new connections are answered
    /// 503 from here on), let the workers finish every admitted request,
    /// then close the listener and join every thread.
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
                refuse(metrics, job.stream, "admission queue full", true);
            }
            Err(PushError::Closed(job)) => {
                metrics.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
                refuse(metrics, job.stream, "server is shutting down", false);
            }
        }
    }
}

/// Answer 503 directly from the accept loop — overload and shutdown never
/// touch the worker pool.
fn refuse(metrics: &AdmissionMetrics, mut stream: TcpStream, message: &str, retryable: bool) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut response = Response::error(503, message);
    if retryable {
        response = response.with_header("Retry-After", "1".to_string());
    }
    metrics.record_status(503);
    let _ = response.write_to(&mut stream);
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
    let Ok(reader_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader_half);
    let mut stream = stream;
    let response = match http::read_request(&mut reader, &door.limits) {
        Ok(request) => handler(&request, admitted),
        Err(e) => {
            let (status, _) = e.status();
            Response::error(status, &e.to_string())
        }
    };
    door.metrics.record_status(response.status);
    let _ = response.write_to(&mut stream);
    door.metrics.latency.record(admitted.elapsed());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::Barrier;

    fn start<H>(handler: H) -> (FrontDoor, Arc<AdmissionMetrics>)
    where
        H: Fn(&Request, Instant) -> Response + Send + Sync + 'static,
    {
        let metrics = Arc::new(AdmissionMetrics::new(1));
        let front = FrontDoor::start(
            "127.0.0.1:0",
            4,
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
    fn status_of(stream: &mut TcpStream) -> Option<u16> {
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
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

    #[test]
    fn a_connection_arriving_during_the_drain_is_refused_and_counted() {
        // `/hold` keeps the only worker busy until the test meets it at
        // the barrier.
        let release = Arc::new(Barrier::new(2));
        let held = Arc::clone(&release);
        let (front, metrics) = start(move |request: &Request, _| {
            if request.path == "/hold" {
                held.wait();
            }
            Response::json(200, "{}".to_string())
        });
        let addr = front.addr();
        let mut in_flight = send(addr, "/hold");
        wait_until("the worker to take /hold", || {
            metrics.workers_busy.load(Ordering::Relaxed) == 1
        });

        let door = Arc::clone(&front.door);
        let stopper = std::thread::spawn(move || front.shutdown());
        wait_until("shutdown to close the queue", || door.queue.is_closed());
        // Sends nothing, so the refusal's close cannot turn into a reset
        // over unread request bytes.
        let mut late = TcpStream::connect(addr).unwrap();
        late.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(status_of(&mut late), Some(503));
        assert_eq!(load(&metrics.rejected_shutdown), 1);

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
        let (front, metrics) = start(|request: &Request, _| {
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
}
