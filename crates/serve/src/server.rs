//! The TCP daemon: accept loop, connection handlers, scheduler thread.
//!
//! Thread layout (all joined on shutdown):
//!
//! ```text
//! accept thread ──► one handler thread per connection
//!                      │  read frame → decode → prepare (parse +
//!                      │  canonicalize + key, off the scheduler)
//!                      ▼
//!                scheduler thread (owns the StageCache)
//! ```
//!
//! Handler threads read with a short socket timeout and poll the
//! shutdown flag between attempts, so a quiescing server never waits on
//! an idle peer. The threads here are service plumbing, not data
//! parallelism — each carries an `ncs-lint` waiver; all *compute*
//! parallelism stays on `ncs_par::par_map_queue` inside the scheduler.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::error::ServeError;
use crate::job::{self, Stage};
use crate::proto::{
    self, code, decode_request, encode_response, write_frame, ProtoError, Request, Response,
};
use crate::sched::{SchedOptions, Scheduler, SchedulerCore};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Max jobs admitted into one scheduler batch; at least 1.
    pub batch_limit: usize,
    /// Stage-cache capacity in entries.
    pub cache_capacity: usize,
    /// Capture per-request stage tables (defaults to the `NCS_TRACE`
    /// gate so `stats` shows stage rows exactly when tracing is on).
    pub trace_stages: bool,
    /// Handler read-poll interval; also the shutdown-latency bound.
    pub read_timeout: Duration,
    /// Concurrent-connection ceiling (`None` = unbounded).
    pub max_connections: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            batch_limit: 16,
            cache_capacity: 256,
            trace_stages: ncs_trace::enabled(),
            read_timeout: Duration::from_millis(50),
            max_connections: None,
        }
    }
}

/// A running flow service.
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    scheduler: Arc<Scheduler>,
    accept_handle: Option<JoinHandle<()>>,
    sched_handle: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds and starts serving. `addr` follows `std::net` syntax; use
    /// port 0 for an ephemeral port and read it back with
    /// [`Server::local_addr`].
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidOption`] for a zero `batch_limit` (the
    /// scheduler could never admit a job), before anything is bound;
    /// [`ServeError::Io`] when the bind fails.
    pub fn bind(addr: &str, options: ServeOptions) -> Result<Server, ServeError> {
        let Some(batch_limit) = NonZeroUsize::new(options.batch_limit) else {
            return Err(ServeError::InvalidOption {
                field: "batch_limit",
                requirement: "must be at least 1 for any job to be admitted",
            });
        };
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::io("bind", &e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| ServeError::io("local_addr", &e))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let scheduler = Arc::new(Scheduler::new(SchedOptions {
            batch_limit,
            cache_capacity: options.cache_capacity,
            trace_stages: options.trace_stages,
        }));
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let sched_for_loop = Arc::clone(&scheduler);
        let sched_options = SchedOptions {
            batch_limit,
            cache_capacity: options.cache_capacity,
            trace_stages: options.trace_stages,
        };
        // ncs-lint: allow(no-adhoc-threads) — service plumbing, not data parallelism; compute stays on ncs_par
        let sched_handle = std::thread::Builder::new()
            .name("ncs-serve-sched".into())
            .spawn(move || {
                let mut core = SchedulerCore::new(sched_options);
                sched_for_loop.run(&mut core);
            })
            .map_err(|e| ServeError::io("spawn scheduler", &e))?;

        let accept_shutdown = Arc::clone(&shutdown);
        let accept_sched = Arc::clone(&scheduler);
        let accept_handlers = Arc::clone(&handlers);
        let accept_options = options.clone();
        // ncs-lint: allow(no-adhoc-threads) — service plumbing, not data parallelism; compute stays on ncs_par
        let accept_handle = std::thread::Builder::new()
            .name("ncs-serve-accept".into())
            .spawn(move || {
                accept_loop(
                    &listener,
                    &accept_shutdown,
                    &accept_sched,
                    &accept_handlers,
                    &accept_options,
                );
            })
            .map_err(|e| ServeError::io("spawn accept loop", &e))?;

        Ok(Server {
            local_addr,
            shutdown,
            scheduler,
            accept_handle: Some(accept_handle),
            sched_handle: Some(sched_handle),
            handlers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, drains the scheduler, joins every thread.
    /// Queued jobs that never ran are answered with a shutdown error
    /// frame before their connections close. Idempotent.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept loop with a throwaway connection; if the
        // connect fails the listener is already gone, which is fine.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        self.scheduler.shutdown();
        if let Some(handle) = self.sched_handle.take() {
            let _ = handle.join();
        }
        let drained: Vec<JoinHandle<()>> = {
            let mut guard = self.handlers.lock().unwrap_or_else(|e| e.into_inner());
            guard.drain(..).collect()
        };
        for handle in drained {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shutdown: &Arc<AtomicBool>,
    scheduler: &Arc<Scheduler>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
    options: &ServeOptions,
) {
    let active = Arc::new(AtomicUsize::new(0));
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) if shutdown.load(Ordering::SeqCst) => return,
            Err(_) => continue,
        };
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Some(limit) = options.max_connections {
            if active.load(Ordering::SeqCst) >= limit {
                refuse_connection(stream);
                continue;
            }
        }
        active.fetch_add(1, Ordering::SeqCst);
        let conn_shutdown = Arc::clone(shutdown);
        let conn_sched = Arc::clone(scheduler);
        let conn_active = Arc::clone(&active);
        let read_timeout = options.read_timeout;
        // ncs-lint: allow(no-adhoc-threads) — service plumbing, not data parallelism; compute stays on ncs_par
        let spawned = std::thread::Builder::new()
            .name("ncs-serve-conn".into())
            .spawn(move || {
                handle_connection(stream, &conn_shutdown, &conn_sched, read_timeout);
                conn_active.fetch_sub(1, Ordering::SeqCst);
            });
        match spawned {
            Ok(handle) => {
                let mut guard = handlers.lock().unwrap_or_else(|e| e.into_inner());
                guard.push(handle);
            }
            Err(_) => {
                active.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }
}

/// Over the connection limit: one structured error frame, then close.
fn refuse_connection(mut stream: TcpStream) {
    let payload = encode_response(&Response::Error {
        code: code::SHUTDOWN,
        message: "connection limit reached".into(),
    });
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = write_frame(&mut stream, &payload);
}

/// Outcome of one interruptible buffered read.
enum ReadOutcome {
    /// The buffer was filled.
    Complete,
    /// The stream ended before the buffer filled.
    Eof,
    /// The shutdown flag was raised while waiting.
    Shutdown,
    /// The transport failed.
    Failed,
}

/// Fills `buf`, polling the shutdown flag on every read-timeout tick.
/// Partial data accumulated before a timeout is never lost — the next
/// tick resumes at the fill point.
fn read_full_interruptible(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
) -> ReadOutcome {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return ReadOutcome::Eof,
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shutdown.load(Ordering::SeqCst) {
                    return ReadOutcome::Shutdown;
                }
            }
            Err(_) => return ReadOutcome::Failed,
        }
    }
    ReadOutcome::Complete
}

/// One handler's frame-read result.
enum NextFrame {
    Payload(Vec<u8>),
    /// Close the connection without a response (clean EOF, mid-frame
    /// disconnect, transport failure, shutdown).
    Close,
    /// Send one final error response, then close.
    FatalProto(ProtoError),
}

fn next_frame(stream: &mut TcpStream, shutdown: &AtomicBool) -> NextFrame {
    let mut header = [0u8; 4];
    match read_full_interruptible(stream, &mut header, shutdown) {
        ReadOutcome::Complete => {}
        // EOF cleanly between frames → close; EOF inside the length
        // prefix → nothing to sync on, also close (the peer is gone).
        ReadOutcome::Eof | ReadOutcome::Shutdown | ReadOutcome::Failed => return NextFrame::Close,
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > proto::MAX_FRAME {
        return NextFrame::FatalProto(ProtoError::Oversize { len });
    }
    let mut payload = vec![0u8; len];
    match read_full_interruptible(stream, &mut payload, shutdown) {
        ReadOutcome::Complete => NextFrame::Payload(payload),
        ReadOutcome::Eof | ReadOutcome::Shutdown | ReadOutcome::Failed => NextFrame::Close,
    }
}

fn send(stream: &mut TcpStream, response: &Response) -> bool {
    write_frame(stream, &encode_response(response)).is_ok()
}

fn handle_connection(
    mut stream: TcpStream,
    shutdown: &AtomicBool,
    scheduler: &Scheduler,
    read_timeout: Duration,
) {
    if stream.set_read_timeout(Some(read_timeout)).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let _ = stream.set_nodelay(true);
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let payload = match next_frame(&mut stream, shutdown) {
            NextFrame::Payload(p) => p,
            NextFrame::Close => return,
            NextFrame::FatalProto(e) => {
                let _ = send(
                    &mut stream,
                    &Response::Error {
                        code: code::PROTOCOL,
                        message: e.to_string(),
                    },
                );
                return;
            }
        };
        let response = match decode_request(&payload) {
            // A fully-read frame that fails to decode leaves the framing
            // intact: answer with a structured error, keep the stream.
            Err(e) => Response::Error {
                code: code::PROTOCOL,
                message: e.to_string(),
            },
            Ok(request) => respond(&request, scheduler),
        };
        if !send(&mut stream, &response) {
            return;
        }
        let _ = stream.flush();
    }
}

fn respond(request: &Request, scheduler: &Scheduler) -> Response {
    match request {
        Request::Stats => match scheduler.stats() {
            Ok(json) => Response::Stats(json.into_bytes()),
            Err(e) => error_response(&e),
        },
        Request::ClearCache => match scheduler.clear_cache() {
            Ok(entries) => Response::Cleared { entries },
            Err(e) => error_response(&e),
        },
        Request::Gen(_) | Request::Map(_) | Request::Implement(_) => {
            let prepared = match job::prepare(request) {
                Ok(p) => p,
                Err(e) => return error_response(&e),
            };
            let stage = prepared.stage;
            match scheduler.run_job(prepared) {
                Ok(bytes) => {
                    let bytes = bytes.as_ref().clone();
                    match stage {
                        Stage::Gen => Response::Net(bytes),
                        Stage::Map => Response::Map(bytes),
                        Stage::Implement => Response::Implement(bytes),
                    }
                }
                Err(e) => error_response(&e),
            }
        }
    }
}

fn error_response(e: &ServeError) -> Response {
    Response::Error {
        code: e.wire_code(),
        message: e.to_string(),
    }
}
