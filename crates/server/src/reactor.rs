//! The event-driven front end: a minimal readiness loop over Linux
//! `epoll`, multiplexing thousands of connections per thread without an
//! async runtime (std only — the three `epoll` syscalls are declared
//! directly against libc, which std already links).
//!
//! Thread layout with `reactor_threads = R`:
//!
//! ```text
//! reactor 0 ──► owns the nonblocking listener, accepts, keeps every
//!               R-th connection, hands the rest to reactors 1..R via
//!               their injection queues (woken through a socketpair)
//! reactor i ──► epoll loop: reads lines, answers ping/stats/shutdown
//!               inline, admits queries to the shared AdmissionQueue
//! dispatcher ─► unchanged micro-batching over the queue; completions
//!               return to the owning reactor's completion queue
//! ```
//!
//! Each connection's requests are answered **in order** even though the
//! dispatcher completes them asynchronously: parsed requests take
//! sequence-numbered slots in a [`Conn`] and only the completed in-order
//! prefix is flushed (see [`crate::conn`]). The wire bytes are identical
//! to the thread-per-connection path because both go through the same
//! [`crate::server::process_line`] and serialize the same typed
//! [`gss_protocol::Response`] at the socket edge.
//!
//! Drain protocol: after `shutdown`, reactor 0 drops the listener; every
//! reactor keeps flushing until the dispatcher has exited (it owes no
//! more completions), its completion and injection queues are empty, and
//! every connection is idle — then it closes all sockets and exits. The
//! 50 ms `epoll_wait` timeout doubles as the drain poll.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};

use crate::conn::Conn;
use crate::server::{process_line, Outcome, Responder, Shared};

// ---------------------------------------------------------------------------
// epoll FFI: the kernel interface is three syscalls and one struct. std
// links libc, so plain `extern "C"` declarations suffice — no new deps.
// ---------------------------------------------------------------------------

/// One readiness notification. On x86-64 the kernel lays this struct out
/// packed (no padding between the 32-bit mask and the 64-bit payload).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn close(fd: i32) -> i32;
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;

/// `epoll_wait` timeout; doubles as the drain-condition poll interval.
const WAIT_MS: i32 = 50;

/// `data` value marking the listener (reactor 0 only).
const LISTENER_TOKEN: u64 = u64::MAX;
/// `data` value marking the wake socketpair's read end.
const WAKE_TOKEN: u64 = u64::MAX - 1;

fn ep_ctl(epfd: i32, op: i32, fd: i32, events: u32, token: u64) -> std::io::Result<()> {
    let mut ev = EpollEvent {
        events,
        data: token,
    };
    // SAFETY: `epfd` came from `epoll_create1` and `ev` outlives the call;
    // the kernel copies the struct before returning.
    let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
    if rc < 0 {
        Err(std::io::Error::last_os_error())
    } else {
        Ok(())
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Poison recovery mirrors the admission queue: a panicked thread must
    // not wedge the reactor, and the guarded state (plain Vec pushes)
    // stays structurally valid.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The dispatcher-facing half of one reactor: completion and injection
/// queues plus the wake handle that interrupts `epoll_wait`.
pub(crate) struct ReactorShared {
    /// `(connection token, request seq, serialized response line)`.
    completions: Mutex<Vec<(usize, u64, String)>>,
    /// Accepted connections assigned to this reactor by reactor 0.
    injected: Mutex<Vec<TcpStream>>,
    /// Write end of the wake socketpair (nonblocking; a full pipe means a
    /// wake byte is already pending, so `WouldBlock` is safely ignored).
    wake_tx: UnixStream,
}

impl ReactorShared {
    /// Interrupts the reactor's `epoll_wait`.
    pub(crate) fn wake(&self) {
        let _ = (&self.wake_tx).write(&[1u8]);
    }

    /// Queues a serialized response for connection `token` / request
    /// `seq` and wakes the reactor to flush it.
    pub(crate) fn complete(&self, token: usize, seq: u64, line: String) {
        lock(&self.completions).push((token, seq, line));
        self.wake();
    }

    fn inject(&self, stream: TcpStream) {
        lock(&self.injected).push(stream);
        self.wake();
    }
}

/// One connection slot in the slab. `stream` goes `None` when the socket
/// died while dispatcher responses were still outstanding: the slot stays
/// reserved (so late completions cannot alias a reused token) until the
/// last response arrives and is discarded.
struct Entry {
    stream: Option<TcpStream>,
    conn: Conn,
    /// Whether the epoll registration currently includes `EPOLLOUT`.
    interest_out: bool,
    dead: bool,
}

/// What [`spawn_reactors`] hands back: the dispatcher-facing handles and
/// the reactor threads' join handles.
type SpawnedReactors = (Vec<Arc<ReactorShared>>, Vec<std::thread::JoinHandle<()>>);

/// Spawns `threads` reactor loops sharing `listener` (owned by reactor 0)
/// and returns their dispatcher-facing handles plus join handles.
pub(crate) fn spawn_reactors(
    shared: &Arc<Shared>,
    listener: TcpListener,
    threads: usize,
) -> std::io::Result<SpawnedReactors> {
    let threads = threads.max(1);
    let mut shareds = Vec::with_capacity(threads);
    let mut wake_rxs = Vec::with_capacity(threads);
    for _ in 0..threads {
        let (tx, rx) = UnixStream::pair()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        shareds.push(Arc::new(ReactorShared {
            completions: Mutex::new(Vec::new()),
            injected: Mutex::new(Vec::new()),
            wake_tx: tx,
        }));
        wake_rxs.push(rx);
    }
    let mut handles = Vec::with_capacity(threads);
    let mut listener = Some(listener);
    for (index, wake_rx) in wake_rxs.into_iter().enumerate() {
        let own = match shareds.get(index) {
            Some(own) => Arc::clone(own),
            None => continue,
        };
        let mut reactor = Reactor::new(
            Arc::clone(shared),
            own,
            shareds.clone(),
            index,
            listener.take(),
            wake_rx,
        )?;
        handles.push(
            std::thread::Builder::new()
                .name(format!("gss-reactor-{index}"))
                .spawn(move || reactor.run())?,
        );
    }
    Ok((shareds, handles))
}

struct Reactor {
    epfd: i32,
    shared: Arc<Shared>,
    own: Arc<ReactorShared>,
    peers: Vec<Arc<ReactorShared>>,
    index: usize,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    slab: Vec<Option<Entry>>,
    free: Vec<usize>,
    /// Round-robin cursor for distributing accepted connections.
    next_peer: usize,
}

impl Drop for Reactor {
    fn drop(&mut self) {
        // SAFETY: `epfd` was returned by `epoll_create1` and is closed
        // exactly once, here.
        unsafe { close(self.epfd) };
    }
}

impl Reactor {
    fn new(
        shared: Arc<Shared>,
        own: Arc<ReactorShared>,
        peers: Vec<Arc<ReactorShared>>,
        index: usize,
        listener: Option<TcpListener>,
        wake_rx: UnixStream,
    ) -> std::io::Result<Reactor> {
        // SAFETY: plain syscall; a negative return is checked below.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        let reactor = Reactor {
            epfd,
            shared,
            own,
            peers,
            index,
            listener,
            wake_rx,
            slab: Vec::new(),
            free: Vec::new(),
            next_peer: 0,
        };
        ep_ctl(
            reactor.epfd,
            EPOLL_CTL_ADD,
            reactor.wake_rx.as_raw_fd(),
            EPOLLIN,
            WAKE_TOKEN,
        )?;
        if let Some(l) = &reactor.listener {
            ep_ctl(
                reactor.epfd,
                EPOLL_CTL_ADD,
                l.as_raw_fd(),
                EPOLLIN,
                LISTENER_TOKEN,
            )?;
        }
        Ok(reactor)
    }

    fn run(&mut self) {
        let mut events = vec![EpollEvent { events: 0, data: 0 }; 128];
        let mut scratch = [0u8; 16 * 1024];
        loop {
            let n = {
                // SAFETY: `events` stays alive and sized for the call; the
                // kernel writes at most `maxevents` entries.
                let rc = unsafe {
                    epoll_wait(self.epfd, events.as_mut_ptr(), events.len() as i32, WAIT_MS)
                };
                if rc < 0 {
                    let err = std::io::Error::last_os_error();
                    if err.kind() == std::io::ErrorKind::Interrupted {
                        continue;
                    }
                    // An unrecoverable epoll error: fall through to drain
                    // bookkeeping so shutdown still terminates.
                    0
                } else {
                    rc as usize
                }
            };
            for ev in events.iter().take(n).copied() {
                let (mask, token) = (ev.events, ev.data);
                match token {
                    WAKE_TOKEN => self.drain_wake(),
                    LISTENER_TOKEN => self.accept_ready(),
                    t => self.conn_ready(t as usize, mask, &mut scratch),
                }
            }
            self.adopt_injected();
            self.apply_completions();
            if self.drained() {
                return; // slab and epfd close via Drop
            }
        }
    }

    /// Swallows pending wake bytes so `epoll_wait` can block again.
    fn drain_wake(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.wake_rx).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock: drained
            }
        }
    }

    /// Accepts everything ready, keeping every R-th connection and
    /// injecting the rest round-robin into peer reactors.
    fn accept_ready(&mut self) {
        loop {
            let listener = match &self.listener {
                Some(l) => l,
                None => return,
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if self.shared.draining() {
                        continue; // accept-and-drop until the listener closes
                    }
                    let target = self.next_peer % self.peers.len().max(1);
                    self.next_peer = self.next_peer.wrapping_add(1);
                    if target == self.index {
                        self.register_conn(stream);
                    } else if let Some(peer) = self.peers.get(target) {
                        peer.inject(stream);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock or transient accept failure
            }
        }
    }

    /// Registers an accepted connection in the slab and with epoll.
    fn register_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.free.pop().unwrap_or(self.slab.len());
        if ep_ctl(
            self.epfd,
            EPOLL_CTL_ADD,
            stream.as_raw_fd(),
            EPOLLIN | EPOLLRDHUP,
            token as u64,
        )
        .is_err()
        {
            self.free.push(token);
            return;
        }
        let entry = Entry {
            stream: Some(stream),
            conn: Conn::new(),
            interest_out: false,
            dead: false,
        };
        if token == self.slab.len() {
            self.slab.push(Some(entry));
        } else if let Some(slot) = self.slab.get_mut(token) {
            *slot = Some(entry);
        }
    }

    /// Handles readiness on one connection: read, frame, process each
    /// complete line, then flush whatever became writable.
    fn conn_ready(&mut self, token: usize, mask: u32, scratch: &mut [u8]) {
        let shared = Arc::clone(&self.shared);
        let own = Arc::clone(&self.own);
        // Once the dispatcher has exited during drain no new work can be
        // answered, so stop consuming input and just finish flushing.
        let accepting_input =
            !(shared.draining() && shared.dispatcher_done.load(Ordering::Relaxed));
        if let Some(entry) = self.slab.get_mut(token).and_then(|s| s.as_mut()) {
            if mask & (EPOLLERR | EPOLLHUP) != 0 {
                entry.dead = true;
            }
            if !entry.dead && mask & (EPOLLIN | EPOLLRDHUP) != 0 {
                let overflowed_before = entry.conn.overflowed();
                let mut lines = Vec::new();
                if let Some(stream) = entry.stream.as_mut() {
                    loop {
                        match stream.read(scratch) {
                            Ok(0) => {
                                entry.dead = true;
                                break;
                            }
                            Ok(n) => {
                                if let Some(data) = scratch.get(..n) {
                                    lines.extend(entry.conn.push_bytes(data));
                                }
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(_) => {
                                entry.dead = true;
                                break;
                            }
                        }
                    }
                }
                for line in lines {
                    let trimmed = line.trim();
                    if trimmed.is_empty() || !accepting_input {
                        continue;
                    }
                    let seq = entry.conn.begin_request();
                    let outcome = process_line(trimmed, &shared, || Responder::Reactor {
                        reactor: Arc::clone(&own),
                        token,
                        seq,
                    });
                    match outcome {
                        Outcome::Immediate(response) => {
                            entry.conn.complete(seq, response.to_line());
                        }
                        Outcome::Enqueued => {}
                    }
                }
                // An over-long line takes the next response slot for its
                // error; `pump` hangs up once that has been written.
                if entry.conn.overflowed() && !overflowed_before {
                    let seq = entry.conn.begin_request();
                    entry
                        .conn
                        .complete(seq, gss_protocol::Response::line_too_long().to_line());
                }
            }
        }
        self.pump(token);
    }

    /// Adopts connections reactor 0 assigned to this thread.
    fn adopt_injected(&mut self) {
        let streams = std::mem::take(&mut *lock(&self.own.injected));
        for stream in streams {
            if self.shared.draining() {
                continue;
            }
            self.register_conn(stream);
        }
    }

    /// Applies dispatcher completions and flushes the affected conns.
    fn apply_completions(&mut self) {
        let completions = std::mem::take(&mut *lock(&self.own.completions));
        if completions.is_empty() {
            return;
        }
        let mut touched = Vec::new();
        for (token, seq, line) in completions {
            if let Some(entry) = self.slab.get_mut(token).and_then(|s| s.as_mut()) {
                entry.conn.complete(seq, line);
                if !touched.contains(&token) {
                    touched.push(token);
                }
            }
        }
        for token in touched {
            self.pump(token);
        }
    }

    /// Releases in-order responses into the write buffer, writes as much
    /// as the socket takes, keeps `EPOLLOUT` interest in sync, and frees
    /// the slot once a dead connection owes nothing more.
    fn pump(&mut self, token: usize) {
        let epfd = self.epfd;
        let mut free_slot = false;
        if let Some(entry) = self.slab.get_mut(token).and_then(|s| s.as_mut()) {
            let released = entry.conn.flush_ready();
            if released > 0 && entry.stream.is_some() {
                self.shared
                    .engine
                    .stats
                    .served
                    .fetch_add(released as u64, Ordering::Relaxed);
            }
            if !entry.dead {
                if let Some(stream) = entry.stream.as_mut() {
                    // Chaos testing: an injected reset (or crash) at the
                    // socket edge hangs up before the buffered response
                    // bytes leave, so the client observes a dead
                    // connection and must retry. Transient kinds fall
                    // through — the write loop below already absorbs
                    // interrupted/would-block, which is what they model.
                    if !entry.conn.unwritten().is_empty() {
                        if let Some(gss_store::FaultAction::Reset | gss_store::FaultAction::Crash) =
                            self.shared
                                .config
                                .faults
                                .fire(gss_store::fault::points::CONN_WRITE)
                        {
                            let _ = stream.shutdown(std::net::Shutdown::Both);
                            entry.dead = true;
                        }
                    }
                    loop {
                        if entry.dead {
                            break;
                        }
                        let written = {
                            let buf = entry.conn.unwritten();
                            if buf.is_empty() {
                                break;
                            }
                            match stream.write(buf) {
                                Ok(0) => {
                                    entry.dead = true;
                                    break;
                                }
                                Ok(n) => n,
                                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                                Err(_) => {
                                    entry.dead = true;
                                    break;
                                }
                            }
                        };
                        entry.conn.advance_written(written);
                    }
                    if entry.conn.overflowed() && entry.conn.idle() {
                        let _ = stream.shutdown(std::net::Shutdown::Both);
                        entry.dead = true;
                    }
                }
            }
            if !entry.dead {
                if let Some(stream) = &entry.stream {
                    let want_out = !entry.conn.unwritten().is_empty();
                    if want_out != entry.interest_out {
                        let events = if want_out {
                            EPOLLIN | EPOLLRDHUP | EPOLLOUT
                        } else {
                            EPOLLIN | EPOLLRDHUP
                        };
                        if ep_ctl(
                            epfd,
                            EPOLL_CTL_MOD,
                            stream.as_raw_fd(),
                            events,
                            token as u64,
                        )
                        .is_ok()
                        {
                            entry.interest_out = want_out;
                        }
                    }
                }
            }
            if entry.dead {
                // Closing the fd deregisters it from epoll; the slot stays
                // reserved while responses are still in flight so their
                // (token, seq) completions cannot alias a reused slot.
                drop(entry.stream.take());
                if entry.conn.outstanding() == 0 {
                    free_slot = true;
                }
            }
        }
        if free_slot {
            if let Some(slot) = self.slab.get_mut(token) {
                *slot = None;
            }
            self.free.push(token);
        }
    }

    /// The drain exit condition; also drops the listener once draining.
    fn drained(&mut self) -> bool {
        if !self.shared.draining() {
            return false;
        }
        // Stop accepting: dropping the listener closes the socket (and
        // deregisters it). Only reactor 0 holds one.
        drop(self.listener.take());
        if !self.shared.dispatcher_done.load(Ordering::Relaxed) {
            return false;
        }
        if !lock(&self.own.completions).is_empty() || !lock(&self.own.injected).is_empty() {
            return false;
        }
        self.slab.iter().flatten().all(|entry| entry.conn.idle())
    }
}
