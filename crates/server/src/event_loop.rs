//! The readiness-driven connection layer: one thread multiplexing every
//! connection through `poll(2)`, with route execution on the worker pool.
//!
//! ## Why poll, and why like this
//!
//! The PR-1 server dedicated a worker thread to each connection for the
//! whole keep-alive lifetime, so worker count capped *connections*, not
//! in-flight work. Here the loop owns every socket and workers own only
//! requests: thousands of idle keep-alive connections cost one `pollfd`
//! each, and a slow analyst query occupies a worker without stalling
//! accepts, reads, or writes on other connections.
//!
//! ## Per-connection state machine
//!
//! ```text
//!            ┌──────────────────────────────────────────────┐
//!            ▼                                              │ keep-alive
//!  accept → READING ──complete request──▶ EXECUTING ──▶ WRITING
//!            │  ▲                         (worker)          │
//!            │  └── partial request:                        │ close /
//!            │      wait for more bytes                     ▼ error
//!            └─ timeout / EOF / 400 ──────────────────▶ CLOSED
//! ```
//!
//! * **READING** — bytes accumulate in the connection buffer; the bounded
//!   HTTP parser runs incrementally ([`crate::http::parse_buffered`]).
//!   Malformed input answers 400 and closes, exactly like the blocking
//!   server did. Idle connections are closed after `read_timeout`.
//! * **EXECUTING** — the parsed request was handed to a worker; the loop
//!   polls the socket for errors only. Load shedding happens *before* this
//!   hop: when `queued >= max_pending` the loop answers 503 + `Retry-After`
//!   itself, so saturation costs no worker time.
//! * **WRITING** — the serialised response drains through nonblocking
//!   writes; on completion the connection goes back to READING (keep-alive)
//!   or closes.
//!
//! Workers signal completions through a shared queue plus a byte on a
//! `UnixStream` self-pipe, the only dependency-free way to interrupt
//! `poll(2)` from another thread.
//!
//! ## Drain
//!
//! Shutdown sets the stopping flag and wakes the loop: accepting stops,
//! idle connections close, in-flight requests complete and flush, and
//! queued-but-unstarted requests are answered `503 server is shutting
//! down` by the workers. The loop exits once nothing is executing and all
//! responses are flushed.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

use crate::http::{parse_buffered, write_response, Request, Response, MAX_HEAD};
use crate::routes;
use crate::state::AppState;

/// Raw `poll(2)` via the platform C library — `std::os::fd` gives us the
/// descriptors, but the readiness syscall itself is not wrapped by std.
mod sys {
    use std::io;
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_ulong};

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    impl PollFd {
        pub fn new(fd: RawFd, events: i16) -> Self {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Polls until readiness or `timeout_ms` (-1 blocks indefinitely),
    /// retrying on EINTR.
    pub fn wait(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let code = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms) };
            if code >= 0 {
                return Ok(code as usize);
            }
            let error = io::Error::last_os_error();
            if error.kind() != io::ErrorKind::Interrupted {
                return Err(error);
            }
        }
    }
}

/// One parsed request bound for a worker.
pub(crate) struct Job {
    pub token: u64,
    pub request: Request,
    /// True when the job was counted in the `queued` gauge (main pool);
    /// replication streams bypass the gauge and its shed threshold.
    pub counted: bool,
}

/// Worker → loop: the finished response for a connection token.
pub(crate) struct CompletionQueue {
    items: Mutex<Vec<(u64, Response)>>,
    /// Write end of the self-pipe; any byte wakes the poll loop.
    wake: UnixStream,
}

impl CompletionQueue {
    pub fn new(wake: UnixStream) -> Self {
        CompletionQueue {
            items: Mutex::new(Vec::new()),
            wake,
        }
    }

    /// Queues a completion. Only the push that finds the queue empty
    /// wakes the loop: the loop takes the whole queue per wake, so later
    /// pushes ride on the byte the first one wrote.
    pub fn push(&self, token: u64, response: Response) {
        let was_empty = {
            let mut items = self
                .items
                .lock()
                .unwrap_or_else(|poison| poison.into_inner());
            items.push((token, response));
            items.len() == 1
        };
        if was_empty {
            self.wake_loop();
        }
    }

    /// Wakes the poll loop without queueing anything (shutdown).
    pub fn wake_loop(&self) {
        let _ = (&self.wake).write(&[1u8]);
    }

    fn drain(&self) -> Vec<(u64, Response)> {
        std::mem::take(
            &mut *self
                .items
                .lock()
                .unwrap_or_else(|poison| poison.into_inner()),
        )
    }
}

/// Builds the shed/drain 503 with `Retry-After`, counting it.
pub(crate) fn overload_response(state: &AppState, reason: &str) -> Response {
    state.count_request();
    state.count_error();
    state.count_shed();
    Response::json(
        503,
        format!("{{\"error\":{{\"category\":\"overload\",\"message\":{reason:?}}}}}"),
    )
    .with_header("Retry-After", state.retry_after_secs.to_string())
}

fn protocol_error_response(state: &AppState, message: &str) -> Response {
    state.count_request();
    state.count_error();
    Response::json(
        400,
        format!("{{\"error\":{{\"category\":\"protocol\",\"message\":{message:?}}}}}"),
    )
}

/// The worker-pool loop: execute routes (or shed during drain), push the
/// completion, repeat until the sender side hangs up.
pub(crate) fn worker_loop(
    receiver: Arc<Mutex<mpsc::Receiver<Job>>>,
    state: Arc<AppState>,
    stopping: Arc<AtomicBool>,
    completions: Arc<CompletionQueue>,
) {
    loop {
        let job = {
            let guard = receiver.lock().unwrap_or_else(|poison| poison.into_inner());
            guard.recv()
        };
        match job {
            Ok(job) => {
                if job.counted {
                    state.queued.fetch_sub(1, Ordering::SeqCst);
                }
                let response = if stopping.load(Ordering::SeqCst) {
                    overload_response(&state, "server is shutting down")
                } else {
                    routes::dispatch(&state, &job.request)
                };
                completions.push(job.token, response);
            }
            Err(_) => break,
        }
    }
}

enum Phase {
    /// Accumulating request bytes.
    Reading,
    /// A request is with a worker; the response will arrive as a completion.
    Executing,
    /// Draining the serialised response.
    Writing { close_after: bool },
}

struct Conn {
    stream: TcpStream,
    phase: Phase,
    /// Unparsed inbound bytes (may hold pipelined requests).
    buf: Vec<u8>,
    /// Serialised response bytes not yet written.
    out: Vec<u8>,
    written: usize,
    /// Bytes of `buf` already scanned for the header terminator.
    scanned: usize,
    /// Set once a blank line ends the headers; parsing is attempted only
    /// after this so slow header arrival does not re-scan the buffer.
    headers_done: bool,
    /// Whether the in-flight request asked for keep-alive.
    keep_alive: bool,
    /// Peer closed its write side; close once the buffer is exhausted.
    read_eof: bool,
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            phase: Phase::Reading,
            buf: Vec::new(),
            out: Vec::new(),
            written: 0,
            scanned: 0,
            headers_done: false,
            keep_alive: true,
            read_eof: false,
            last_activity: Instant::now(),
        }
    }

    /// Incremental header-terminator scan: a newline followed by an
    /// (optionally `\r`-prefixed) newline. Only new bytes are scanned.
    fn scan_headers(&mut self) {
        if self.headers_done {
            return;
        }
        let start = self.scanned.saturating_sub(2);
        let mut index = start;
        while index + 1 < self.buf.len() {
            if self.buf[index] == b'\n' {
                let next = self.buf[index + 1];
                if next == b'\n' {
                    self.headers_done = true;
                    return;
                }
                if next == b'\r' && self.buf.get(index + 2) == Some(&b'\n') {
                    self.headers_done = true;
                    return;
                }
            }
            index += 1;
        }
        self.scanned = self.buf.len();
    }

    fn reset_parse_state(&mut self) {
        self.scanned = 0;
        self.headers_done = false;
    }
}

enum Verdict {
    Keep,
    Close,
}

pub(crate) struct EventLoop {
    pub listener: TcpListener,
    pub state: Arc<AppState>,
    pub stopping: Arc<AtomicBool>,
    /// Read end of the self-pipe.
    pub wake_rx: UnixStream,
    pub completions: Arc<CompletionQueue>,
    /// Main route pool (counted against `max_pending`).
    pub jobs: mpsc::Sender<Job>,
    /// Long-poll pool for `/replication/stream` so replica catch-up polls
    /// never starve analyst traffic.
    pub stream_jobs: mpsc::Sender<Job>,
}

impl EventLoop {
    pub fn run(self) {
        let EventLoop {
            listener,
            state,
            stopping,
            wake_rx,
            completions,
            jobs,
            stream_jobs,
        } = self;
        if listener.set_nonblocking(true).is_err() {
            return;
        }
        let _ = wake_rx.set_nonblocking(true);

        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut next_token: u64 = 1;
        let mut in_flight: usize = 0;
        // Tokens parallel to the pollfd array refilled each iteration; 0 is
        // the wake pipe, u64::MAX the listener.
        const WAKE: u64 = 0;
        const LISTENER: u64 = u64::MAX;
        let mut fds: Vec<sys::PollFd> = Vec::new();
        let mut tokens: Vec<u64> = Vec::new();

        loop {
            let draining = stopping.load(Ordering::SeqCst);
            if draining {
                // Idle keep-alive connections have nothing owed to them.
                conns.retain(|_, conn| {
                    !(matches!(conn.phase, Phase::Reading) && conn.out.is_empty())
                });
                if in_flight == 0 && conns.is_empty() {
                    break;
                }
            }

            fds.clear();
            tokens.clear();
            fds.push(sys::PollFd::new(wake_rx.as_raw_fd(), sys::POLLIN));
            tokens.push(WAKE);
            if !draining {
                fds.push(sys::PollFd::new(listener.as_raw_fd(), sys::POLLIN));
                tokens.push(LISTENER);
            }
            let mut nearest_deadline: Option<Instant> = None;
            for (token, conn) in &conns {
                let events = match conn.phase {
                    Phase::Reading => sys::POLLIN,
                    Phase::Executing => 0, // errors/HUP are always reported
                    Phase::Writing { .. } => sys::POLLOUT,
                };
                if !matches!(conn.phase, Phase::Executing) {
                    let deadline = conn.last_activity + state.read_timeout;
                    nearest_deadline = Some(match nearest_deadline {
                        Some(current) => current.min(deadline),
                        None => deadline,
                    });
                }
                fds.push(sys::PollFd::new(conn.stream.as_raw_fd(), events));
                tokens.push(*token);
            }
            let timeout_ms = match nearest_deadline {
                Some(deadline) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    remaining.as_millis().min(i32::MAX as u128) as i32 + 1
                }
                None => -1,
            };

            if sys::wait(&mut fds, timeout_ms).is_err() {
                // EBADF and friends mean a bookkeeping bug; bail rather
                // than spin. Connections close with the loop.
                break;
            }
            state.poll_wakeups.fetch_add(1, Ordering::Relaxed);

            // 1. Drain the wake pipe: a read that comes back short took
            //    every byte there was.
            if fds[0].revents & sys::POLLIN != 0 {
                let mut sink = [0u8; 64];
                while matches!((&wake_rx).read(&mut sink), Ok(n) if n == sink.len()) {}
            }

            // 2. Apply completions: serialise responses and start writing.
            for (token, response) in completions.drain() {
                in_flight -= 1;
                let Some(conn) = conns.get_mut(&token) else {
                    continue; // connection died while the worker ran
                };
                let keep_alive = conn.keep_alive && !stopping.load(Ordering::SeqCst);
                conn.out.clear();
                conn.written = 0;
                if write_response(&mut conn.out, &response, keep_alive).is_err() {
                    conns.remove(&token);
                    continue;
                }
                conn.phase = Phase::Writing {
                    close_after: !keep_alive,
                };
                conn.last_activity = Instant::now();
                if let Verdict::Close = advance_write(conn) {
                    conns.remove(&token);
                } else if matches!(conn.phase, Phase::Reading) {
                    // Response flushed synchronously; a pipelined request
                    // may already be buffered.
                    if let Verdict::Close = try_dispatch(
                        token,
                        conn,
                        &state,
                        &stopping,
                        &jobs,
                        &stream_jobs,
                        &mut in_flight,
                    ) {
                        conns.remove(&token);
                    }
                }
            }

            // 3. Accept new connections.
            if !draining
                && fds.len() > 1
                && tokens[1] == LISTENER
                && fds[1].revents & (sys::POLLIN | sys::POLLERR) != 0
            {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(true).is_err() {
                                continue;
                            }
                            let _ = stream.set_nodelay(true);
                            conns.insert(next_token, Conn::new(stream));
                            next_token += 1;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                        Err(_) => break,
                    }
                }
            }

            // 4. Per-connection readiness.
            for (index, token) in tokens.iter().enumerate() {
                if *token == WAKE || *token == LISTENER {
                    continue;
                }
                let revents = fds[index].revents;
                if revents == 0 {
                    continue;
                }
                let Some(conn) = conns.get_mut(token) else {
                    continue;
                };
                if revents & (sys::POLLERR | sys::POLLNVAL) != 0 {
                    conns.remove(token);
                    continue;
                }
                let verdict = match conn.phase {
                    Phase::Reading => {
                        if revents & (sys::POLLIN | sys::POLLHUP) != 0 {
                            match fill_read(conn) {
                                Ok(()) => try_dispatch(
                                    *token,
                                    conn,
                                    &state,
                                    &stopping,
                                    &jobs,
                                    &stream_jobs,
                                    &mut in_flight,
                                ),
                                Err(_) => Verdict::Close,
                            }
                        } else {
                            Verdict::Keep
                        }
                    }
                    Phase::Executing => {
                        // Only HUP/ERR arrive here. Note the EOF but keep
                        // the connection: the response may still be
                        // deliverable to a half-closed peer.
                        if revents & sys::POLLHUP != 0 {
                            conn.read_eof = true;
                        }
                        Verdict::Keep
                    }
                    Phase::Writing { .. } => {
                        if revents & (sys::POLLOUT | sys::POLLHUP) != 0 {
                            let verdict = advance_write(conn);
                            if let (Verdict::Keep, Phase::Reading) = (&verdict, &conn.phase) {
                                try_dispatch(
                                    *token,
                                    conn,
                                    &state,
                                    &stopping,
                                    &jobs,
                                    &stream_jobs,
                                    &mut in_flight,
                                )
                            } else {
                                verdict
                            }
                        } else {
                            Verdict::Keep
                        }
                    }
                };
                if let Verdict::Close = verdict {
                    conns.remove(token);
                }
            }

            // 5. Idle timeouts (slow-loris and abandoned keep-alives).
            let now = Instant::now();
            conns.retain(|_, conn| {
                matches!(conn.phase, Phase::Executing)
                    || now.duration_since(conn.last_activity) < state.read_timeout
            });
        }
        // `jobs`/`stream_jobs` drop here; workers drain remaining queued
        // jobs (answering 503 while stopping) and then exit on hangup.
    }
}

/// Reads until a read comes back short of its chunk, appending to the
/// connection buffer — or until an unterminated head outgrows
/// [`MAX_HEAD`], which `try_dispatch` then refuses. A short read took what
/// the socket held, so no second `read` is spent to learn `WouldBlock`;
/// poll is level-triggered and reports any later bytes again. An EOF sets
/// `read_eof`; hard errors propagate (connection closes).
fn fill_read(conn: &mut Conn) -> io::Result<()> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        match (&conn.stream).read(&mut chunk) {
            Ok(0) => {
                conn.read_eof = true;
                return Ok(());
            }
            Ok(n) => {
                conn.buf.extend_from_slice(&chunk[..n]);
                conn.last_activity = Instant::now();
                if n < chunk.len() {
                    return Ok(());
                }
                if conn.buf.len() > MAX_HEAD {
                    conn.scan_headers();
                    if !conn.headers_done {
                        return Ok(());
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => Err(e)?,
        }
    }
}

/// Writes as much pending output as the socket accepts. On completion the
/// connection closes or returns to READING.
fn advance_write(conn: &mut Conn) -> Verdict {
    let close_after = match conn.phase {
        Phase::Writing { close_after } => close_after,
        _ => return Verdict::Keep,
    };
    while conn.written < conn.out.len() {
        match (&conn.stream).write(&conn.out[conn.written..]) {
            Ok(0) => return Verdict::Close,
            Ok(n) => {
                conn.written += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Verdict::Keep,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Verdict::Close,
        }
    }
    if close_after {
        return Verdict::Close;
    }
    conn.out.clear();
    conn.written = 0;
    conn.phase = Phase::Reading;
    Verdict::Keep
}

/// Tries to parse one complete request from the buffer and route it:
/// dispatch to a worker, shed with 503, or answer 400 for garbage.
fn try_dispatch(
    token: u64,
    conn: &mut Conn,
    state: &Arc<AppState>,
    stopping: &AtomicBool,
    jobs: &mpsc::Sender<Job>,
    stream_jobs: &mpsc::Sender<Job>,
    in_flight: &mut usize,
) -> Verdict {
    if !matches!(conn.phase, Phase::Reading) {
        return Verdict::Keep;
    }
    conn.scan_headers();
    if !conn.headers_done && conn.buf.len() > MAX_HEAD {
        // No head the parser accepts is this long: answer its verdict now
        // rather than buffer the rest.
        let refusal = match parse_buffered(&conn.buf) {
            Err(e) => e.to_string(),
            Ok(_) => "request head too large".to_string(),
        };
        return refuse(conn, state, &refusal);
    }
    if !conn.headers_done {
        // No terminator yet: close on EOF (nothing answerable), else wait.
        return if conn.read_eof && conn.out.is_empty() {
            Verdict::Close
        } else {
            Verdict::Keep
        };
    }
    match parse_buffered(&conn.buf) {
        Ok(Some((request, consumed))) => {
            conn.buf.drain(..consumed);
            conn.reset_parse_state();
            conn.keep_alive = request.keep_alive();
            conn.last_activity = Instant::now();
            let response = if stopping.load(Ordering::SeqCst) {
                Some(overload_response(state, "server is shutting down"))
            } else if is_stream_route(&request) {
                *in_flight += 1;
                conn.phase = Phase::Executing;
                if stream_jobs
                    .send(Job {
                        token,
                        request,
                        counted: false,
                    })
                    .is_err()
                {
                    *in_flight -= 1;
                    return Verdict::Close;
                }
                None
            } else if state.queued.load(Ordering::SeqCst) >= state.max_pending {
                Some(overload_response(state, "worker queue is saturated"))
            } else {
                state.queued.fetch_add(1, Ordering::SeqCst);
                *in_flight += 1;
                conn.phase = Phase::Executing;
                if jobs
                    .send(Job {
                        token,
                        request,
                        counted: true,
                    })
                    .is_err()
                {
                    state.queued.fetch_sub(1, Ordering::SeqCst);
                    *in_flight -= 1;
                    return Verdict::Close;
                }
                None
            };
            if let Some(response) = response {
                // Shed and drain responses close the connection, exactly
                // like the blocking server's shed path did.
                conn.out.clear();
                conn.written = 0;
                if write_response(&mut conn.out, &response, false).is_err() {
                    return Verdict::Close;
                }
                conn.phase = Phase::Writing { close_after: true };
                return advance_write(conn);
            }
            Verdict::Keep
        }
        Ok(None) => {
            if conn.read_eof {
                Verdict::Close // peer hung up mid-request
            } else {
                Verdict::Keep
            }
        }
        Err(e) => refuse(conn, state, &e.to_string()),
    }
}

/// Answers a malformed request with the protocol 400, then closes.
fn refuse(conn: &mut Conn, state: &AppState, message: &str) -> Verdict {
    let response = protocol_error_response(state, message);
    conn.out.clear();
    conn.written = 0;
    if write_response(&mut conn.out, &response, false).is_err() {
        return Verdict::Close;
    }
    conn.phase = Phase::Writing { close_after: true };
    advance_write(conn)
}

fn is_stream_route(request: &Request) -> bool {
    request.path == "/replication/stream" || request.path == "/changes"
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn poll_wait_times_out() {
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut fds = [sys::PollFd::new(a.as_raw_fd(), sys::POLLIN)];
        let started = Instant::now();
        let ready = sys::wait(&mut fds, 30).unwrap();
        assert_eq!(ready, 0);
        assert!(started.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn a_batch_of_completions_wakes_the_loop_once() {
        let (rx, tx) = UnixStream::pair().unwrap();
        rx.set_nonblocking(true).unwrap();
        let queue = CompletionQueue::new(tx);
        let mut sink = [0u8; 8];
        for round in 0..2 {
            queue.push(1, Response::json(200, "{}"));
            queue.push(2, Response::json(200, "{}"));
            assert_eq!((&rx).read(&mut sink).unwrap(), 1, "round {round}");
            assert_eq!(queue.drain().len(), 2);
        }
    }

    #[test]
    fn poll_wait_sees_readable_pipe() {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        (&b).write_all(&[1]).unwrap();
        let mut fds = [sys::PollFd::new(a.as_raw_fd(), sys::POLLIN)];
        let ready = sys::wait(&mut fds, 1000).unwrap();
        assert_eq!(ready, 1);
        assert!(fds[0].revents & sys::POLLIN != 0);
    }
}
