//! The front end: a minimal readiness loop over portable `poll(2)`,
//! multiplexing thousands of connections per thread without an async
//! runtime (std only — the one `poll` syscall is declared directly
//! against libc, which std already links). Builds on any unix.
//!
//! Thread layout with `reactor_threads = R`:
//!
//! ```text
//! reactor 0 ──► owns the nonblocking listener, accepts, keeps every
//!               R-th connection, hands the rest to reactors 1..R via
//!               their injection queues (woken through a socketpair)
//! reactor i ──► poll loop: reads lines, answers ping/stats/shutdown
//!               inline, admits queries to the shared AdmissionQueue
//! dispatcher ─► micro-batching over the queue; completions return to
//!               the owning reactor's completion queue
//! ```
//!
//! Each connection's requests are answered **in order** even though the
//! dispatcher completes them asynchronously: parsed requests take
//! sequence-numbered slots in a [`Conn`] and only the completed in-order
//! prefix is flushed (see [`crate::conn`]).
//!
//! Readiness is level-triggered and stateless: every iteration rebuilds
//! the `pollfd` array from the wake fd, the listener and the live slab
//! entries (write interest = the connection has unwritten bytes), so
//! there is no registration to keep in sync. The price is that each wake
//! is O(connections this reactor owns): measured 0.62 µs per `poll` call
//! at 3 fds and 29 µs at 1 000, against requests that take milliseconds.
//!
//! Drain protocol: after `shutdown`, reactor 0 drops the listener; every
//! reactor keeps flushing until the dispatcher has exited (it owes no
//! more completions), its completion and injection queues are empty, and
//! every connection is idle — then it closes all sockets and exits. The
//! 50 ms `poll` timeout doubles as the drain poll.

use std::ffi::{c_int, c_short};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};

use gss_protocol::Response;
use gss_store::fault::points;
use gss_store::FaultAction;

use crate::conn::Conn;
use crate::server::{process_line, Responder, Shared};

// ---------------------------------------------------------------------------
// poll FFI: the kernel interface is one syscall and one struct. std links
// libc, so a plain `extern "C"` declaration suffices — no new deps.
// ---------------------------------------------------------------------------

/// `struct pollfd`: laid out identically on every unix.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Interest in `events` on `fd`; an absent socket gets the negative
    /// fd `poll` skips, which keeps positions fixed.
    fn new(fd: Option<c_int>, events: c_short) -> PollFd {
        PollFd {
            fd: fd.unwrap_or(-1),
            events,
            revents: 0,
        }
    }
}

/// `nfds_t` is `unsigned long` on Linux and `unsigned int` on macOS and the
/// BSDs; the const parameter picks the width from one `cfg!`.
type NfdsT = <Nfds<{ cfg!(target_os = "linux") }> as Width>::T;
struct Nfds<const LINUX: bool>;
trait Width {
    type T;
}
impl Width for Nfds<true> {
    type T = std::ffi::c_ulong;
}
impl Width for Nfds<false> {
    type T = std::ffi::c_uint;
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout_ms: c_int) -> c_int;
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const POLLERR: c_short = 0x008;
const POLLHUP: c_short = 0x010;
const POLLNVAL: c_short = 0x020;

/// `poll` timeout; doubles as the drain-condition poll interval.
const WAIT_MS: c_int = 50;

/// Poll-set layout: the wake socketpair's read end, the listener (reactor
/// 0 only, until drain), then one entry per slab slot — `pollfd`
/// `FIRST_CONN + t` is connection token `t`.
const WAKE_SLOT: usize = 0;
const LISTENER_SLOT: usize = 1;
const FIRST_CONN: usize = 2;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Poison recovery mirrors the admission queue: a panicked thread must
    // not wedge the reactor, and the guarded state (plain Vec pushes)
    // stays structurally valid.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The dispatcher-facing half of one reactor: completion and injection
/// queues plus the wake handle that interrupts `poll`.
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
    /// A reactor's dispatcher-facing half, plus the read end of its wake
    /// socketpair for the reactor thread itself.
    pub(crate) fn new() -> std::io::Result<(Arc<ReactorShared>, UnixStream)> {
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        let shared = ReactorShared {
            completions: Mutex::default(),
            injected: Mutex::default(),
            wake_tx,
        };
        Ok((Arc::new(shared), wake_rx))
    }

    /// Interrupts the reactor's `poll`.
    fn wake(&self) {
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
/// dies; if dispatcher responses are still outstanding then, the slot
/// stays reserved (so late completions cannot alias a reused token) until
/// the last one arrives and is discarded.
struct Entry {
    stream: Option<TcpStream>,
    conn: Conn,
}

impl Entry {
    /// Reads until the socket would block, framing what arrives into
    /// `lines`; end of stream or a read error drops the socket.
    fn read_lines(&mut self, scratch: &mut [u8], lines: &mut Vec<String>) {
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        loop {
            match stream.read(scratch) {
                Ok(n) if n > 0 => {
                    lines.extend(self.conn.push_bytes(scratch.get(..n).unwrap_or(&[])));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                _ => break,
            }
        }
        self.stream = None;
    }

    /// Writes as much of the owed output as the socket takes; a write
    /// error drops the socket.
    fn write_out(&mut self) {
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        loop {
            let buf = self.conn.unwritten();
            if buf.is_empty() {
                return;
            }
            match stream.write(buf) {
                Ok(n) if n > 0 => self.conn.advance_written(n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                _ => break,
            }
        }
        self.stream = None;
    }

    /// Closes the socket in both directions, deliberately.
    fn hang_up(&mut self) {
        if let Some(stream) = self.stream.take() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Spawns `reactor_threads` reactor loops (at least one) sharing
/// `listener` (owned by reactor 0) and returns their join handles.
pub(crate) fn spawn_reactors(
    shared: &Arc<Shared>,
    listener: TcpListener,
) -> std::io::Result<Vec<std::thread::JoinHandle<()>>> {
    let mut peers = Vec::new();
    let mut wake_rxs = Vec::new();
    for _ in 0..shared.config.reactor_threads.max(1) {
        let (peer, wake_rx) = ReactorShared::new()?;
        peers.push(peer);
        wake_rxs.push(wake_rx);
    }
    let mut listener = Some(listener);
    let mut handles = Vec::with_capacity(peers.len());
    for (index, (own, wake_rx)) in peers.iter().zip(wake_rxs).enumerate() {
        let mut reactor = Reactor {
            shared: Arc::clone(shared),
            own: Arc::clone(own),
            peers: peers.clone(),
            index,
            listener: listener.take(),
            wake_rx,
            slab: Vec::new(),
            free: Vec::new(),
            next_peer: 0,
        };
        handles.push(
            std::thread::Builder::new()
                .name(format!("gss-reactor-{index}"))
                .spawn(move || reactor.run())?,
        );
    }
    Ok(handles)
}

struct Reactor {
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

impl Reactor {
    fn run(&mut self) {
        let mut fds = Vec::new();
        let mut scratch = [0u8; 16 * 1024];
        loop {
            self.poll_set(&mut fds);
            // SAFETY: `fds` is a live, exclusively borrowed array of
            // `fds.len()` `pollfd`s for the whole call; the kernel only
            // writes their `revents`.
            let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, WAIT_MS) };
            // A failed `poll` (a signal, or something unrecoverable)
            // reports nothing ready: fall through to the drain bookkeeping
            // so shutdown still terminates.
            if rc > 0 {
                let ready = fds.iter().enumerate().filter(|(_, pfd)| pfd.revents != 0);
                for (slot, pfd) in ready {
                    match slot {
                        WAKE_SLOT => self.drain_wake(),
                        LISTENER_SLOT => self.accept_ready(),
                        _ => self.conn_ready(slot - FIRST_CONN, pfd.revents, &mut scratch),
                    }
                }
            }
            self.adopt_injected();
            self.apply_completions();
            if self.drained() {
                return; // the slab's sockets close on drop
            }
        }
    }

    /// Rebuilds the poll set: always readable interest, writable interest
    /// only while a connection is owed response bytes.
    fn poll_set(&self, fds: &mut Vec<PollFd>) {
        fds.clear();
        fds.push(PollFd::new(Some(self.wake_rx.as_raw_fd()), POLLIN));
        let listener = self.listener.as_ref().map(AsRawFd::as_raw_fd);
        fds.push(PollFd::new(listener, POLLIN));
        fds.extend(self.slab.iter().map(|slot| {
            let entry = slot.as_ref();
            let owed = entry.is_some_and(|e| !e.conn.unwritten().is_empty());
            let stream = entry.and_then(|e| e.stream.as_ref());
            let events = if owed { POLLIN | POLLOUT } else { POLLIN };
            PollFd::new(stream.map(AsRawFd::as_raw_fd), events)
        }));
    }

    /// Swallows pending wake bytes so `poll` can block again.
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
            let Some(listener) = &self.listener else {
                return;
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

    /// Puts an accepted connection into the slab.
    fn register_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let entry = Some(Entry {
            stream: Some(stream),
            conn: Conn::new(),
        });
        match self.free.pop().and_then(|token| self.slab.get_mut(token)) {
            Some(slot) => *slot = entry,
            None => self.slab.push(entry),
        }
    }

    /// Handles readiness on one connection: read, frame, process each
    /// complete line, then flush whatever became writable.
    fn conn_ready(&mut self, token: usize, revents: c_short, scratch: &mut [u8]) {
        // Once the dispatcher has exited during drain no new work can be
        // answered, so stop consuming input and just finish flushing.
        let accepting_input =
            !(self.shared.draining() && self.shared.dispatcher_done.load(Ordering::Relaxed));
        if let Some(entry) = self.slab.get_mut(token).and_then(|s| s.as_mut()) {
            if revents & (POLLERR | POLLHUP | POLLNVAL) != 0 {
                entry.stream = None;
            } else if revents & POLLIN != 0 {
                let overflowed_before = entry.conn.overflowed();
                let mut lines = Vec::new();
                entry.read_lines(scratch, &mut lines);
                for line in lines {
                    let trimmed = line.trim();
                    if trimmed.is_empty() || !accepting_input {
                        continue;
                    }
                    let seq = entry.conn.begin_request();
                    let respond = Responder {
                        reactor: Arc::clone(&self.own),
                        token,
                        seq,
                    };
                    if let Some(response) = process_line(trimmed, &self.shared, respond) {
                        entry.conn.complete(seq, response.to_line());
                    }
                }
                // An over-long line takes the next response slot for its
                // error; `pump` hangs up once that has been written.
                if entry.conn.overflowed() && !overflowed_before {
                    let seq = entry.conn.begin_request();
                    entry
                        .conn
                        .complete(seq, Response::line_too_long().to_line());
                }
            }
        }
        self.pump(token);
    }

    /// Adopts connections reactor 0 assigned to this thread.
    fn adopt_injected(&mut self) {
        let streams = std::mem::take(&mut *lock(&self.own.injected));
        for stream in streams {
            if !self.shared.draining() {
                self.register_conn(stream);
            }
        }
    }

    /// Applies dispatcher completions and flushes the affected conns.
    fn apply_completions(&mut self) {
        let completions = std::mem::take(&mut *lock(&self.own.completions));
        let mut touched = Vec::with_capacity(completions.len());
        for (token, seq, line) in completions {
            if let Some(entry) = self.slab.get_mut(token).and_then(|s| s.as_mut()) {
                entry.conn.complete(seq, line);
                touched.push(token);
            }
        }
        // One pump per connection, however many of its responses landed.
        touched.sort_unstable();
        touched.dedup();
        for token in touched {
            self.pump(token);
        }
    }

    /// Releases in-order responses into the write buffer, writes as much
    /// as the socket takes (what is left over is the next poll set's
    /// write interest), and frees the slot once a dead connection owes
    /// nothing more.
    fn pump(&mut self, token: usize) {
        let Some(entry) = self.slab.get_mut(token).and_then(|s| s.as_mut()) else {
            return;
        };
        let released = entry.conn.flush_ready();
        if entry.stream.is_some() {
            let stats = &self.shared.engine.stats;
            stats.served.fetch_add(released as u64, Ordering::Relaxed);
            // Chaos testing: an injected reset (or crash) at the socket
            // edge hangs up before the buffered response bytes leave, so
            // the client observes a dead connection and must retry.
            // Transient kinds fall through — `write_out` already absorbs
            // interrupted/would-block, which is what they model.
            if !entry.conn.unwritten().is_empty() {
                if let Some(FaultAction::Reset | FaultAction::Crash) =
                    self.shared.config.faults.fire(points::CONN_WRITE)
                {
                    entry.hang_up();
                }
            }
            entry.write_out();
            if entry.conn.overflowed() && entry.conn.idle() {
                entry.hang_up();
            }
        }
        // A dead connection's slot stays reserved while responses are still
        // in flight, so their (token, seq) completions cannot alias a
        // reused slot.
        if entry.stream.is_none() && entry.conn.outstanding() == 0 {
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
        // Stop accepting: dropping the listener closes the socket. Only
        // reactor 0 holds one.
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
