//! Concurrent multi-tenant serving: the calling thread as single writer
//! owning the [`HostSession`], N reader threads answering lookups from
//! per-tenant epoch snapshots, and a line-protocol TCP front-end over
//! `std::net`.
//!
//! ## Architecture
//!
//! ```text
//!   per-tenant write queues (mpsc)  ┌────────────────────────────────┐
//!  ───────────────────────────────▶│ writer (caller thread):        │
//!  ───────────────────────────────▶│  round-robin drain →           ├──▶ one Published<GroupSnapshot>
//!  ───────────────────────────────▶│  HostSession::execute(tenant)  │    per tenant (Arc swap)
//!                                  └────────────────────────────────┘        │
//!   TCP clients ──▶ acceptor ──▶ connection channel ──▶ N reader threads,    ▼
//!                     each holding a HostHandle: one PublishedReader
//!                     per tenant — lookups never wait on the writer or each other
//! ```
//!
//! The split is strict: only the writer thread touches the engines (the
//! scorer providers and blockers are not `Send`, so the session never
//! migrates — the *readers* are the spawned threads). Each reader holds
//! a [`HostHandle`] — one [`PublishedReader`] per tenant — and serves
//! `group_of`/`members`/`stats` from whichever epoch is current for the
//! addressed tenant; a batch mid-apply is invisible until its snapshot is
//! published, and tenants' epochs move independently. Write requests
//! arriving on a reader's connection are forwarded to the writer on the
//! addressed tenant's queue; the single drain sweeps the queues
//! round-robin (one request per tenant per sweep) so a churn-heavy
//! tenant cannot starve another tenant's writes.
//!
//! Every connection carries its own current-tenant cursor (`use <t>`),
//! starting at the host's default tenant; `<tenant>.cmd` addressing
//! works independently of the cursor.
//!
//! ## Transport
//!
//! No reply waits out a kernel timer. Accepted sockets run with
//! `TCP_NODELAY`; a connection frames request lines out of a fixed 64 KiB
//! read buffer, renders every reply (payload, `error: ` prefix and
//! newline) into one per-connection buffer, and writes that buffer with a
//! single `write_all` exactly when its next read could block — no
//! complete request line is left buffered — or when it passes 64 KiB. A
//! client sending one request at a time gets its reply in one segment; a
//! pipelining client gets the replies to everything one read delivered
//! coalesced into one write. A request line longer than
//! [`MAX_LINE_BYTES`] answers `line-too-long` and closes the connection.
//!
//! The one clock on the path is the server's own: a connection that has
//! run more than [`PACE_BURST`] requests ahead of
//! [`PACED_REQUESTS_PER_S`] has its write held until it is back on
//! schedule, so a bulk client is answered at that rate run after run
//! instead of at whatever the scheduler's placement of the two ends
//! allows. A client that waits for each reply never reaches the rate.
//!
//! Nothing polls: the acceptor blocks in `accept`, readers block in
//! `read` (or on the connection channel), the writer blocks on the queue
//! signal. `shutdown` raises the stop flag, calls
//! `TcpStream::shutdown(Both)` on a registry of the live connections'
//! clones (every blocked read returns EOF; a guard deregisters a
//! connection when it ends, so no dup'd descriptor outlives it), and
//! connects to the listener so `accept` returns and sees the flag.
//! The acceptor's exit closes the connection channel, the readers drop
//! their [`HostHandle`]s, and the last dropped handle wakes the writer's
//! drain, which then finds every queue closed and returns.

use crate::serve::{
    coded, hello_line, lookup_response, parse_request, tenants_line, ErrorCode, HostSession,
    ServeCommand, HELP_LINE,
};
use gralmatch_core::GroupSnapshot;
use gralmatch_util::PublishedReader;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// One unit of work for the writer: the tenant is implied by the queue
/// it arrives on; the reply channel carries the protocol response line.
struct WriteRequest {
    command: ServeCommand,
    reply: Sender<Result<String, String>>,
}

/// Wakes the drain when any tenant queue gains a request or loses a
/// sender — `mpsc` receivers cannot be waited on as a set, so senders
/// raise this shared signal after enqueueing and after disconnecting.
struct QueueSignal {
    pending: Mutex<u64>,
    available: Condvar,
}

impl QueueSignal {
    fn new() -> Self {
        QueueSignal {
            pending: Mutex::new(0),
            available: Condvar::new(),
        }
    }

    /// Announce one enqueued request or one dropped sender. Called from
    /// `Drop`, so it must not panic: the counter is valid at every step
    /// and a poisoned lock is simply recovered.
    fn raise(&self) {
        *self.pending.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.available.notify_one();
    }

    /// Block until the signal was raised since the last `wait`.
    fn wait(&self) {
        let mut pending = self.pending.lock().expect("queue signal poisoned");
        while *pending == 0 {
            pending = self.available.wait(pending).expect("queue signal poisoned");
        }
        *pending = 0;
    }
}

/// Raises the signal when dropped: the last field of [`TenantHandle`], so
/// a drain woken by a dropped handle finds that handle's sender gone.
struct RaiseOnDrop(Arc<QueueSignal>);

impl Drop for RaiseOnDrop {
    fn drop(&mut self) {
        self.0.raise();
    }
}

/// Split a session into its per-tenant write queues (drained by the
/// calling thread) and a cloneable per-reader [`HostHandle`].
/// [`WriteQueues::drain`] returns once every handle clone is dropped.
pub fn host_channel(session: &HostSession) -> (WriteQueues, HostHandle) {
    let signal = Arc::new(QueueSignal::new());
    let mut queues = Vec::new();
    let mut handles = Vec::new();
    for (name, tenant) in session.host().iter() {
        let (sender, receiver) = channel();
        queues.push((name.to_string(), receiver));
        handles.push((
            name.to_string(),
            TenantHandle {
                domain: tenant.domain(),
                reader: PublishedReader::new(tenant.snapshot_source()),
                sender,
                signal: RaiseOnDrop(signal.clone()),
            },
        ));
    }
    (
        WriteQueues { queues, signal },
        HostHandle {
            default_tenant: session.default_tenant().to_string(),
            tenants: handles,
        },
    )
}

/// The writer side of [`host_channel`]: the single consumer of every
/// tenant's enqueued writes.
pub struct WriteQueues {
    queues: Vec<(String, Receiver<WriteRequest>)>,
    signal: Arc<QueueSignal>,
}

impl WriteQueues {
    /// Serve writes on the current thread until every [`HostHandle`] is
    /// dropped (each drop wakes the drain; nothing polls), sweeping the
    /// tenant queues round-robin — at most one request per tenant per
    /// sweep, so no tenant's churn can starve another's writes. Returns
    /// the number of requests served; failed requests answer their sender
    /// and keep the drain running.
    pub fn drain(self, session: &mut HostSession) -> u64 {
        let mut served = 0;
        let mut open = vec![true; self.queues.len()];
        let mut remaining = self.queues.len();
        loop {
            let mut progressed = false;
            for (index, (tenant, queue)) in self.queues.iter().enumerate() {
                if !open[index] {
                    continue;
                }
                match queue.try_recv() {
                    Ok(request) => {
                        progressed = true;
                        served += 1;
                        let _ = request
                            .reply
                            .send(session.execute(tenant, &request.command));
                    }
                    Err(TryRecvError::Empty) => {}
                    Err(TryRecvError::Disconnected) => {
                        open[index] = false;
                        remaining -= 1;
                    }
                }
            }
            if remaining == 0 {
                return served;
            }
            if !progressed {
                self.signal.wait();
            }
        }
    }
}

/// One tenant's reader-side view: lock-free snapshot lookups plus the
/// tenant's write queue. `Send`, cheap to clone.
pub struct TenantHandle {
    domain: &'static str,
    reader: PublishedReader<GroupSnapshot>,
    // Fields drop in declaration order: `sender` must disconnect before
    // `signal` wakes the drain, or the drain sleeps through the last drop.
    sender: Sender<WriteRequest>,
    signal: RaiseOnDrop,
}

impl Clone for TenantHandle {
    fn clone(&self) -> Self {
        TenantHandle {
            domain: self.domain,
            reader: self.reader.clone(),
            sender: self.sender.clone(),
            signal: RaiseOnDrop(self.signal.0.clone()),
        }
    }
}

impl TenantHandle {
    /// The tenant's domain name.
    pub fn domain(&self) -> &'static str {
        self.domain
    }

    /// The tenant's current epoch snapshot (refreshes the cached `Arc`
    /// only when the writer published a new epoch).
    pub fn snapshot(&mut self) -> &Arc<GroupSnapshot> {
        self.reader.current()
    }

    /// Round-trip one writer-side command through the write queue.
    pub fn send(&self, command: ServeCommand) -> Result<String, String> {
        let (reply, responses) = channel();
        self.sender
            .send(WriteRequest { command, reply })
            .map_err(|_| coded(ErrorCode::WriterGone, "writer is gone"))?;
        self.signal.0.raise();
        responses
            .recv()
            .map_err(|_| coded(ErrorCode::WriterGone, "writer dropped the request"))?
    }
}

/// A per-reader-thread view of the whole host: one [`TenantHandle`] per
/// tenant, addressed by name. `Send`, cheap to clone — one per thread,
/// with a per-connection tenant cursor passed into [`command`](Self::command).
#[derive(Clone)]
pub struct HostHandle {
    tenants: Vec<(String, TenantHandle)>,
    default_tenant: String,
}

impl HostHandle {
    /// The default tenant's name (a fresh connection's cursor).
    pub fn default_tenant(&self) -> &str {
        &self.default_tenant
    }

    /// Registered tenant names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.tenants.iter().map(|(name, _)| name.as_str()).collect()
    }

    /// One tenant's handle.
    pub fn tenant(&mut self, name: &str) -> Option<&mut TenantHandle> {
        self.tenants
            .iter_mut()
            .find(|(tenant, _)| tenant == name)
            .map(|(_, handle)| handle)
    }

    fn unknown(name: &str) -> String {
        coded(
            ErrorCode::UnknownTenant,
            format!("no tenant named {name:?} (try `tenants`)"),
        )
    }

    /// Execute one protocol line with `cursor` as the connection's
    /// current tenant: session commands and lookups answer on this
    /// thread from the addressed tenant's current snapshot; writes
    /// round-trip through the writer on that tenant's queue.
    pub fn command(&mut self, cursor: &mut String, line: &str) -> Result<String, String> {
        let Some(request) = parse_request(line)? else {
            return Ok(String::new());
        };
        match &request.command {
            ServeCommand::Hello => return Ok(hello_line(self.tenants.len(), &self.default_tenant)),
            ServeCommand::Ping => return Ok("pong".to_string()),
            ServeCommand::Help => return Ok(HELP_LINE.to_string()),
            ServeCommand::Tenants => {
                let rows: Vec<(String, &'static str, u64)> = self
                    .tenants
                    .iter_mut()
                    .map(|(name, handle)| {
                        (name.clone(), handle.domain, handle.reader.current().epoch())
                    })
                    .collect();
                return Ok(tenants_line(
                    rows.iter()
                        .map(|(name, domain, epoch)| (name.as_str(), *domain, *epoch)),
                ));
            }
            ServeCommand::Use(name) => {
                return if self.tenants.iter().any(|(tenant, _)| tenant == name) {
                    cursor.clone_from(name);
                    Ok(format!("using {name}"))
                } else {
                    Err(Self::unknown(name))
                };
            }
            _ => {}
        }
        // `model <tenant> <path>` routes on its own tenant argument; all
        // other tenant-scoped commands on the prefix or the cursor.
        let route = match &request.command {
            ServeCommand::Model { tenant, .. } => tenant.clone(),
            _ => request.tenant.clone().unwrap_or_else(|| cursor.clone()),
        };
        let Some(handle) = self.tenant(&route) else {
            return Err(Self::unknown(&route));
        };
        if request.command.is_lookup() {
            return lookup_response(&route, handle.reader.current(), &request.command)
                .expect("is_lookup commands are snapshot-answerable");
        }
        handle.send(request.command)
    }
}

/// How the TCP front-end ran: connections served and requests answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeReport {
    /// Connections accepted.
    pub connections: u64,
    /// Request lines answered (errors included).
    pub requests: u64,
}

/// Capacity of a connection's read buffer: request lines are framed in
/// place out of it, so a line up to this long (a `sec_bulk` batch line is
/// ≈ 20 KB) costs no copy.
const READ_BUFFER_BYTES: usize = 64 * 1024;

/// A connection's buffered replies are written out once they pass this
/// size, even while more complete requests wait in the read buffer.
const REPLY_FLUSH_BYTES: usize = 64 * 1024;

/// Longest accepted request line, newline excluded. A longer one answers
/// `line-too-long` and ends the connection, so a client that never sends
/// `\n` cannot grow a reader's memory without limit; bigger batches load
/// server-side with `apply <file>`.
pub const MAX_LINE_BYTES: usize = 8 * 1024 * 1024;

/// What the acceptor, the readers and a `shutdown` request share: the
/// stop flag, and a clone of every connection being served so a shutdown
/// can end its blocked read.
struct Frontend {
    stop: AtomicBool,
    /// One slot per reader thread: the connection it is serving.
    live: Vec<Mutex<Option<TcpStream>>>,
    /// Where a connect reaches the listener (wakes the blocked `accept`).
    wake_addr: SocketAddr,
    /// Raised by the acceptor thread as it exits.
    accept_ended: AtomicBool,
}

/// Longest one wake-up connect may take. A loopback connect completes
/// within the call unless the listen backlog is full, and then Linux drops
/// the SYN silently and a blocking connect would sit out its 1 s retry.
const WAKE_CONNECT_TIMEOUT: Duration = Duration::from_millis(10);

/// Empties a reader's slot when its connection ends — the clone is a
/// dup'd descriptor, and while it lives the client's socket stays open.
struct Registered<'a>(&'a Mutex<Option<TcpStream>>);

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        *self.0.lock().unwrap_or_else(PoisonError::into_inner) = None;
    }
}

impl Frontend {
    fn new(listener: &TcpListener, readers: usize) -> std::io::Result<Self> {
        // A wildcard listen address is not connectable everywhere.
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        Ok(Frontend {
            stop: AtomicBool::new(false),
            live: (0..readers).map(|_| Mutex::new(None)).collect(),
            wake_addr,
            accept_ended: AtomicBool::new(false),
        })
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Put a clone of `stream` in `reader`'s slot; `None` once shutdown
    /// began. The flag is read under the slot's lock, which
    /// [`Self::shut_down`] takes after raising it: a connection either is
    /// in its slot when the sweep passes or sees the flag here.
    fn register(
        &self,
        reader: usize,
        stream: &TcpStream,
    ) -> std::io::Result<Option<Registered<'_>>> {
        let clone = stream.try_clone()?;
        let mut slot = self.live[reader]
            .lock()
            .expect("connection registry poisoned");
        if self.stopping() {
            return Ok(None);
        }
        *slot = Some(clone);
        Ok(Some(Registered(&self.live[reader])))
    }

    /// Stop the front-end: no later request is answered, every blocked
    /// connection read returns EOF, and the blocked `accept` returns.
    fn shut_down(&self) {
        self.stop.store(true, Ordering::Release);
        for slot in &self.live {
            if let Some(stream) = &*slot.lock().expect("connection registry poisoned") {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        // The acceptor re-checks the flag after every accept, so one
        // connection reaching it ends it. A connect that fails or times
        // out most likely found the backlog full — then `accept` has
        // connections to return and is on its way out without our help —
        // so it is retried only while the acceptor is still there.
        while !self.accept_ended.load(Ordering::Acquire) {
            if TcpStream::connect_timeout(&self.wake_addr, WAKE_CONNECT_TIMEOUT).is_ok() {
                break;
            }
        }
    }
}

/// Serve the line protocol on `listener` until a client sends
/// `shutdown`: the calling thread is the single writer draining the
/// per-tenant write queues; an acceptor thread hands accepted
/// connections over a channel to `readers` reader threads, each
/// answering request lines from its own per-tenant epoch-snapshot views.
/// Responses are one line per request line; protocol failures answer
/// `error: <code>: <message>` and keep the connection open. The module's
/// *Transport* section describes reply buffering and shutdown.
///
/// Returns the session (persist tenant states with
/// [`HostSession::save_state`]) and a run report. A failing listener
/// ends the run the way `shutdown` does and returns the error.
pub fn serve_tcp(
    listener: TcpListener,
    mut session: HostSession,
    readers: usize,
) -> std::io::Result<(HostSession, ServeReport)> {
    let readers = readers.max(1);
    let frontend = Frontend::new(&listener, readers)?;
    let (queues, handle) = host_channel(&session);
    let (accepted_sender, accepted_receiver) = channel();
    let accepted_receiver = Mutex::new(accepted_receiver);
    let answered = AtomicU64::new(0);

    let connections = std::thread::scope(|scope| {
        let (frontend, accepted_receiver) = (&frontend, &accepted_receiver);
        let (answered, listener) = (&answered, &listener);
        // The acceptor owns the sender: its exit is what releases the
        // readers blocked on the channel.
        let acceptor = scope.spawn(move || {
            let result = accept_loop(listener, frontend, accepted_sender);
            frontend.accept_ended.store(true, Ordering::Release);
            if result.is_err() {
                frontend.shut_down();
            }
            result
        });
        for reader in 0..readers {
            let mut handle = handle.clone();
            scope.spawn(move || {
                while let Some(stream) = next_connection(accepted_receiver) {
                    // A dropped connection only ends that client.
                    let _ = serve_connection(&stream, reader, &mut handle, frontend, answered);
                }
            });
        }
        // From here only the readers' clones keep the drain running.
        drop(handle);
        queues.drain(&mut session);
        acceptor.join().expect("acceptor panicked")
    })?;

    Ok((
        session,
        ServeReport {
            connections,
            requests: answered.load(Ordering::Relaxed),
        },
    ))
}

/// Feed the connection channel until shutdown begins; returns how many
/// connections were accepted.
fn accept_loop(
    listener: &TcpListener,
    frontend: &Frontend,
    connections: Sender<TcpStream>,
) -> std::io::Result<u64> {
    let mut accepted = 0;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            // The peer gave up while queued: that client's loss only.
            Err(e) if e.kind() == ErrorKind::ConnectionAborted => continue,
            Err(e) => return Err(e),
        };
        if frontend.stopping() {
            // The wake-up connect, or a client that lost the race with it.
            return Ok(accepted);
        }
        accepted += 1;
        if connections.send(stream).is_err() {
            return Ok(accepted); // every reader is gone
        }
    }
}

/// Take the next accepted connection, or `None` once the acceptor ended
/// and the channel ran dry. The lock is held across the blocking `recv`:
/// idle readers queue on it, and each is released in turn.
fn next_connection(connections: &Mutex<Receiver<TcpStream>>) -> Option<TcpStream> {
    connections
        .lock()
        .expect("connection channel poisoned")
        .recv()
        .ok()
}

/// Serve one TCP connection on reader thread `reader` until EOF, error,
/// or shutdown.
fn serve_connection(
    stream: &TcpStream,
    reader: usize,
    handle: &mut HostHandle,
    frontend: &Frontend,
    answered: &AtomicU64,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let Some(_registered) = frontend.register(reader, stream)? else {
        return Ok(());
    };
    if serve_lines(stream, stream, handle, &frontend.stop, answered)? {
        frontend.shut_down();
    }
    Ok(())
}

/// Sustained rate at which one connection's requests are answered. The
/// unpaced loop answers a pipelining client 0.6–1.7 M requests/s on a
/// two-core box, and which of those it is depends on where the scheduler
/// put the two ends, not on this code; a connection that runs ahead of
/// this rate has its replies held to it, so a bulk client sees the same
/// throughput run after run. A client that waits for each reply
/// (≈ 10 k requests/s on loopback) never reaches it.
pub const PACED_REQUESTS_PER_S: u32 = 200_000;

/// How many requests a connection may run ahead of
/// [`PACED_REQUESTS_PER_S`] before replies are held: a burst this long
/// after a quiet spell is answered at full speed, and a stall this long
/// (20 ms of slots — a sleep that a busy host wakes late) is caught up
/// rather than lost.
pub const PACE_BURST: u32 = 4096;

/// A connection's unsent replies, and the schedule they leave on: every
/// answered request books one slot of 1 / [`PACED_REQUESTS_PER_S`], and a
/// flush waits until the booking is no more than [`PACE_BURST`] slots
/// ahead of the clock. The schedule is absolute — a late wake-up is made
/// up by the next flush, so the error never accumulates.
struct Replies {
    bytes: Vec<u8>,
    /// Requests answered since the last flush (blank ones included).
    requests: u32,
    /// When the slots of everything flushed so far end.
    booked_until: Instant,
}

impl Replies {
    const SLOT: Duration = Duration::from_nanos(1_000_000_000 / PACED_REQUESTS_PER_S as u64);

    fn new() -> Self {
        Replies {
            bytes: Vec::new(),
            requests: 0,
            booked_until: Instant::now(),
        }
    }

    /// Append one reply line: the payload (`error: `-prefixed for a
    /// failure) and its newline. An empty payload — a blank request —
    /// appends nothing.
    fn push(&mut self, reply: Result<String, String>) {
        match reply {
            Ok(payload) if payload.is_empty() => return,
            Ok(payload) => self.bytes.extend_from_slice(payload.as_bytes()),
            Err(message) => {
                self.bytes.extend_from_slice(b"error: ");
                self.bytes.extend_from_slice(message.as_bytes());
            }
        }
        self.bytes.push(b'\n');
    }

    /// Book the slots of the requests answered since the last flush and
    /// return how long their replies must still be held at `now`.
    fn book(&mut self, now: Instant) -> Duration {
        self.booked_until = self.booked_until.max(now) + Self::SLOT * self.requests;
        self.requests = 0;
        self.booked_until
            .saturating_duration_since(now + Self::SLOT * PACE_BURST)
    }

    /// Once the slots of the requests answered since the last flush
    /// allow, write the buffered replies, if any, with one `write_all`.
    /// Blank requests leave nothing to write and are paced all the same.
    fn flush(&mut self, output: &mut impl Write) -> std::io::Result<()> {
        if self.requests > 0 {
            let hold = self.book(Instant::now());
            if !hold.is_zero() {
                std::thread::sleep(hold);
            }
        }
        if !self.bytes.is_empty() {
            output.write_all(&self.bytes)?;
            self.bytes.clear();
        }
        Ok(())
    }
}

/// Answer one request line into `replies`. `shutdown` is acknowledged
/// there too (uncounted) and returns `true`.
fn answer(
    line: &[u8],
    handle: &mut HostHandle,
    cursor: &mut String,
    replies: &mut Replies,
    answered: &AtomicU64,
) -> bool {
    // Invalid UTF-8 becomes replacement characters: a garbage line must
    // produce a protocol error response, not kill the reader.
    let line = String::from_utf8_lossy(line);
    let line = line.trim();
    if line == "shutdown" {
        replies.bytes.extend_from_slice(b"shutting down\n");
        return true;
    }
    answered.fetch_add(1, Ordering::Relaxed);
    replies.requests += 1;
    replies.push(handle.command(cursor, line));
    false
}

/// The connection loop, over any byte stream: answer request lines from
/// `input` on `output` until EOF, error, `stop`, or a `shutdown` request
/// (the one case returning `true`). Each connection gets its own tenant
/// cursor, starting at the host's default tenant.
///
/// Replies collect in one buffer and leave in one write when the next
/// read could block — no complete line is left in the read buffer, which
/// includes being mid-line — or when the buffer passes
/// [`REPLY_FLUSH_BYTES`]. A client that waits for a reply before sending
/// more therefore always gets it, and a pipelining client gets one write
/// per batch of requests that one read delivered — held, when the
/// connection is ahead of its pace, until its slots allow ([`Replies`]).
fn serve_lines(
    input: impl Read,
    mut output: impl Write,
    handle: &mut HostHandle,
    stop: &AtomicBool,
    answered: &AtomicU64,
) -> std::io::Result<bool> {
    let mut reader = BufReader::with_capacity(READ_BUFFER_BYTES, input);
    // The head of a line that spans fills of the read buffer; a line that
    // arrives whole is parsed where it lies.
    let mut pending: Vec<u8> = Vec::new();
    let mut replies = Replies::new();
    let mut cursor = handle.default_tenant().to_string();
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(false);
        }
        let buffered = reader.buffer();
        let newline = buffered.iter().position(|&byte| byte == b'\n');
        if pending.len() + newline.unwrap_or(buffered.len()) > MAX_LINE_BYTES {
            let message = format!("request line exceeds {MAX_LINE_BYTES} bytes, closing");
            replies.push(Err(coded(ErrorCode::LineTooLong, message)));
            replies.flush(&mut output)?;
            return Ok(false);
        }
        let Some(end) = newline else {
            replies.flush(&mut output)?;
            let held = buffered.len();
            pending.extend_from_slice(buffered);
            reader.consume(held);
            let eof = loop {
                match reader.fill_buf() {
                    Ok(filled) => break filled.is_empty(),
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            };
            if !eof {
                continue;
            }
            // A client's EOF leaves an unterminated last line, which is
            // still a request; the EOF a shutdown forces leaves a line cut
            // wherever the client had got to, which is not.
            let shutdown = !pending.is_empty()
                && !stop.load(Ordering::Acquire)
                && answer(&pending, handle, &mut cursor, &mut replies, answered);
            replies.flush(&mut output)?;
            return Ok(shutdown);
        };
        let line = if pending.is_empty() {
            &reader.buffer()[..end]
        } else {
            pending.extend_from_slice(&reader.buffer()[..end]);
            &pending[..]
        };
        if answer(line, handle, &mut cursor, &mut replies, answered) {
            replies.flush(&mut output)?;
            return Ok(true);
        }
        pending.clear();
        reader.consume(end + 1);
        if replies.bytes.len() >= REPLY_FLUSH_BYTES {
            replies.flush(&mut output)?;
        }
    }
}

/// A blocking line-protocol client over TCP: `TCP_NODELAY` on, each
/// request line and its newline sent with one `write_all` — a request
/// split over two segments would wait out the peer's delayed ACK.
pub struct LineClient {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    request: Vec<u8>,
}

impl LineClient {
    /// Connect to a serving address.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(LineClient {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            request: Vec::new(),
        })
    }

    /// Send one non-blank request line (the newline is appended here) and
    /// wait for its reply line, returned without its newline. A blank
    /// line has no reply to wait for.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.request.clear();
        self.request.extend_from_slice(line.as_bytes());
        self.request.push(b'\n');
        self.writer.write_all(&self.request)?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(ErrorKind::UnexpectedEof.into());
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::bootstrap_tenant;
    use gralmatch_core::{EngineHost, ShardPlan, UpsertBatch};
    use gralmatch_datagen::{generate, FinancialDataset, GenerationConfig};
    use gralmatch_records::{RecordId, SecurityRecord};
    use gralmatch_util::ToJson;
    use std::cell::RefCell;

    fn financial() -> FinancialDataset {
        let mut config = GenerationConfig::synthetic_full();
        config.num_entities = 40;
        generate(&config).unwrap()
    }

    fn single_session(records: Vec<SecurityRecord>) -> HostSession {
        let (tenant, _) = bootstrap_tenant(records, ShardPlan::new(2), None).unwrap();
        HostSession::single("sec", Box::new(tenant)).unwrap()
    }

    /// Securities + companies from the same synthetic universe, as two
    /// tenants.
    fn dual_session(data: &FinancialDataset) -> HostSession {
        let mut host = EngineHost::new();
        let (sec, _) =
            bootstrap_tenant(data.securities.records().to_vec(), ShardPlan::new(2), None).unwrap();
        host.add_tenant("sec", Box::new(sec)).unwrap();
        let (comp, _) =
            bootstrap_tenant(data.companies.records().to_vec(), ShardPlan::new(2), None).unwrap();
        host.add_tenant("comp", Box::new(comp)).unwrap();
        HostSession::new(host).unwrap()
    }

    #[test]
    fn handles_serve_reads_and_route_writes_to_the_drain() {
        let records = financial().securities.records().to_vec();
        let held_out = records.last().unwrap().clone();
        let held_id = held_out.id;
        let mut session = single_session(records[..records.len() - 1].to_vec());
        let (queues, handle) = host_channel(&session);

        std::thread::scope(|scope| {
            let reader = scope.spawn(move || {
                let mut handle = handle;
                let mut cursor = handle.default_tenant().to_string();
                assert_eq!(handle.tenant("sec").unwrap().snapshot().epoch(), 1);
                let response = handle.command(&mut cursor, "group_of 0").unwrap();
                assert!(response.contains("record 0"), "{response}");
                assert!(handle.command(&mut cursor, "nonsense").is_err());

                // A write through the queue becomes visible to another
                // handle's next snapshot load.
                let mut other = handle.clone();
                let insert = UpsertBatch::inserting(vec![held_out]);
                let response = handle
                    .command(&mut cursor, &insert.to_json().to_compact_string())
                    .unwrap();
                assert!(response.contains("applied +1~0-0"), "{response}");
                assert_eq!(other.tenant("sec").unwrap().snapshot().epoch(), 2);
                assert!(other
                    .tenant("sec")
                    .unwrap()
                    .snapshot()
                    .group_of(held_id)
                    .is_some());
            });
            // This thread is the writer.
            assert_eq!(queues.drain(&mut session), 1);
            reader.join().expect("reader panicked")
        });
        let tenant = session.host().tenant("sec").unwrap();
        assert!(tenant.group_of(held_id).is_some());
        assert_eq!(tenant.stats().batches_applied, 2);
        assert_eq!(session.latency("sec").unwrap().count(), 1);
    }

    #[test]
    fn rejected_writes_report_coded_errors_without_killing_the_drain() {
        let records = financial().securities.records().to_vec();
        let live = records[0].clone();
        let mut session = single_session(records);
        let (queues, handle) = host_channel(&session);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let mut handle = handle;
                let mut cursor = handle.default_tenant().to_string();
                // Insert of a live id: rejected with a stable code, the
                // writer stays up for the next request.
                let insert = UpsertBatch::inserting(vec![live])
                    .to_json()
                    .to_compact_string();
                let err = handle.command(&mut cursor, &insert).unwrap_err();
                assert!(err.starts_with("apply-rejected: "), "{err}");
                let err = handle.command(&mut cursor, &insert).unwrap_err();
                assert!(err.starts_with("apply-rejected: "), "{err}");
            });
            assert_eq!(queues.drain(&mut session), 2);
        });
        assert_eq!(
            session
                .host()
                .tenant("sec")
                .unwrap()
                .stats()
                .batches_applied,
            1
        );
    }

    #[test]
    fn tcp_round_trip_with_concurrent_multi_tenant_clients() {
        let data = financial();
        let expected_sec_live = data.securities.records().len();
        let expected_comp_live = data.companies.records().len();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let session = dual_session(&data);

        fn client(addr: SocketAddr, lines: &[&str]) -> Vec<String> {
            let mut client = LineClient::connect(addr).unwrap();
            lines
                .iter()
                .map(|line| client.request(line).unwrap())
                .collect()
        }

        // The session is not `Send` (the writer stays on this thread), so
        // the *clients* run on spawned threads while serve_tcp blocks here.
        let clients = std::thread::spawn(move || {
            let lookups: Vec<_> = (0..2)
                .map(|_| {
                    std::thread::spawn(move || {
                        client(
                            addr,
                            &[
                                "hello",
                                "ping",
                                "group_of 0",
                                "comp.stats",
                                "use comp",
                                "stats",
                                "bogus",
                                "{broken json",
                                "group_of 999999",
                                "nope.stats",
                            ],
                        )
                    })
                })
                .collect();
            let concurrent: Vec<Vec<String>> =
                lookups.into_iter().map(|c| c.join().unwrap()).collect();
            // A delete on the default (securities) tenant, then shutdown.
            let last = client(addr, &["{\"deletes\":[0]}", "tenants", "shutdown"]);
            (concurrent, last)
        });
        let (session, report) = serve_tcp(listener, session, 3).unwrap();
        let (concurrent, last) = clients.join().unwrap();

        for responses in concurrent {
            assert!(responses[0].contains("protocol-version=2"), "{responses:?}");
            assert!(responses[0].contains("tenants=2"), "{responses:?}");
            assert_eq!(responses[1], "pong", "{responses:?}");
            assert!(responses[2].contains("record 0"), "{responses:?}");
            assert!(
                responses[3].contains(&format!("tenant comp: {expected_comp_live} live records")),
                "{responses:?}"
            );
            assert_eq!(responses[4], "using comp", "{responses:?}");
            assert!(
                responses[5].contains(&format!("tenant comp: {expected_comp_live} live records")),
                "{responses:?}"
            );
            assert!(
                responses[6].starts_with("error: bad-command: "),
                "{responses:?}"
            );
            assert!(
                responses[7].starts_with("error: bad-batch: "),
                "{responses:?}"
            );
            // The cursor moved to `comp`, so the miss names that tenant.
            assert!(
                responses[8].starts_with("error: unknown-record: "),
                "{responses:?}"
            );
            assert!(responses[8].contains("tenant comp"), "{responses:?}");
            assert!(
                responses[9].starts_with("error: unknown-tenant: "),
                "{responses:?}"
            );
        }
        assert!(last[0].contains("applied +0~0-1"), "{last:?}");
        // The delete bumped only the securities tenant's epoch.
        assert!(last[1].contains("sec=securities@epoch=2"), "{last:?}");
        assert!(last[1].contains("comp=companies@epoch=1"), "{last:?}");
        assert_eq!(last[2], "shutting down");
        let sec = session.host().tenant("sec").unwrap();
        assert_eq!(sec.group_of(RecordId(0)), None);
        assert_eq!(sec.stats().num_live, expected_sec_live - 1);
        assert_eq!(report.connections, 3);
        assert!(report.requests >= 22, "{report:?}");
    }

    /// What the connection loop did to its stream halves, in order.
    #[derive(Debug, PartialEq)]
    enum Io {
        Read,
        Write(Vec<u8>),
    }

    /// The input half: every `read` logs itself and delivers the next
    /// scripted chunk whole; EOF once the script ran out.
    struct ScriptedInput<'a, I> {
        chunks: I,
        log: &'a RefCell<Vec<Io>>,
    }

    impl<I: Iterator<Item = Vec<u8>>> Read for ScriptedInput<'_, I> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.log.borrow_mut().push(Io::Read);
            let chunk = self.chunks.next().unwrap_or_default();
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    /// The output half: every `write` takes all it is given and logs it.
    struct RecordingOutput<'a>(&'a RefCell<Vec<Io>>);

    impl Write for RecordingOutput<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().push(Io::Write(buf.to_vec()));
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A lookup-only host: nothing drains its write queue.
    struct Lookups {
        handle: HostHandle,
        _session: HostSession,
    }

    impl Lookups {
        fn new() -> Self {
            let session = single_session(financial().securities.records().to_vec());
            let (_, handle) = host_channel(&session);
            Lookups {
                handle,
                _session: session,
            }
        }

        /// Run the connection loop over scripted reads; returns the I/O
        /// log, whether a shutdown was requested, and the request count.
        fn serve(&mut self, chunks: impl IntoIterator<Item = Vec<u8>>) -> (Vec<Io>, bool, u64) {
            self.serve_under(&AtomicBool::new(false), chunks)
        }

        /// [`Self::serve`] with `stop` as the front-end's stop flag.
        fn serve_under(
            &mut self,
            stop: &AtomicBool,
            chunks: impl IntoIterator<Item = Vec<u8>>,
        ) -> (Vec<Io>, bool, u64) {
            let log = RefCell::new(Vec::new());
            let answered = AtomicU64::new(0);
            let input = ScriptedInput {
                chunks: chunks.into_iter(),
                log: &log,
            };
            let shutdown = serve_lines(
                input,
                RecordingOutput(&log),
                &mut self.handle,
                stop,
                &answered,
            )
            .unwrap();
            (log.into_inner(), shutdown, answered.into_inner())
        }

        /// The wire bytes today's protocol answers `line` with.
        fn expected(&mut self, line: &str) -> Vec<u8> {
            let mut cursor = self.handle.default_tenant().to_string();
            match self.handle.command(&mut cursor, line) {
                Ok(payload) if payload.is_empty() => Vec::new(),
                Ok(payload) => format!("{payload}\n").into_bytes(),
                Err(message) => format!("error: {message}\n").into_bytes(),
            }
        }
    }

    fn writes(log: &[Io]) -> Vec<&[u8]> {
        log.iter()
            .filter_map(|io| match io {
                Io::Write(bytes) => Some(&bytes[..]),
                Io::Read => None,
            })
            .collect()
    }

    #[test]
    fn lines_delivered_by_one_read_are_answered_with_one_write() {
        let mut host = Lookups::new();
        let lines = [
            "hello",
            "ping",
            "group_of 0",
            "members 0",
            "stats",
            "bogus",
            "group_of 999999",
            "nope.stats",
            "tenants",
        ];
        let expected: Vec<u8> = lines.iter().flat_map(|line| host.expected(line)).collect();
        assert!(expected.starts_with(b"hello gralmatch-serve protocol-version=2 "));
        let request = format!("{}\n", lines.join("\n")).into_bytes();
        let (log, shutdown, answered) = host.serve([request]);
        // One read delivers everything; the replies leave together, in
        // request order, before the read that finds EOF.
        assert_eq!(log, [Io::Read, Io::Write(expected), Io::Read]);
        assert!(!shutdown);
        assert_eq!(answered, lines.len() as u64);
    }

    #[test]
    fn replies_are_flushed_before_a_read_that_could_block() {
        let mut host = Lookups::new();
        let hello = host.expected("hello");
        // The second request is cut mid-line: a client waiting for `pong`
        // before sending the rest must get it first.
        let (log, ..) = host.serve([b"ping\nhel".to_vec(), b"lo\n".to_vec()]);
        assert_eq!(
            log,
            [
                Io::Read,
                Io::Write(b"pong\n".to_vec()),
                Io::Read,
                Io::Write(hello),
                Io::Read
            ]
        );
        // An unterminated last line is answered at EOF.
        let (log, ..) = host.serve([b"ping".to_vec()]);
        assert_eq!(log, [Io::Read, Io::Read, Io::Write(b"pong\n".to_vec())]);
    }

    #[test]
    fn buffered_replies_are_flushed_at_the_cap() {
        let mut host = Lookups::new();
        let help = host.expected("help");
        let requests = 1000;
        assert!(help.len() * requests > 3 * REPLY_FLUSH_BYTES);
        let (log, ..) = host.serve([b"help\n".repeat(requests)]);
        let writes = writes(&log);
        assert!(writes.len() > 3, "{} writes", writes.len());
        // Every write but the last left as soon as the cap was passed,
        // with requests still buffered — no read in between.
        for write in &writes[..writes.len() - 1] {
            assert!(
                (REPLY_FLUSH_BYTES..REPLY_FLUSH_BYTES + help.len()).contains(&write.len()),
                "{} bytes",
                write.len()
            );
        }
        assert_eq!(log[0], Io::Read);
        assert!(log[1..=writes.len()].iter().all(|io| *io != Io::Read));
        assert_eq!(writes.concat(), help.repeat(requests));
    }

    #[test]
    fn replies_beyond_the_burst_are_held_to_an_absolute_schedule() {
        let slot = Replies::SLOT;
        let mut replies = Replies::new();
        let start = replies.booked_until;
        let mut book = |requests: u32, now: Instant| {
            replies.requests = requests;
            replies.book(now)
        };
        // Up to the burst nothing is held; the request after it waits out
        // its own slot.
        assert_eq!(book(PACE_BURST, start), Duration::ZERO);
        assert_eq!(book(1, start), slot);
        // A chunk flushed on time waits out its own slots; one flushed 100
        // slots late (a slow wake-up) waits that much less — the schedule
        // is absolute, so the delay is made up, not passed on.
        assert_eq!(book(256, start + slot), slot * 256);
        let late = start + slot * (1 + 256 + 100);
        assert_eq!(book(256, late), slot * (256 - 100));
        assert_eq!(book(256, start + slot * (1 + 512)), slot * 256);
        // A quiet spell earns the burst back and no more.
        let later = start + Duration::from_secs(1);
        assert_eq!(book(PACE_BURST + 10, later), slot * 10);
    }

    #[test]
    fn blank_and_garbage_lines_keep_their_replies() {
        let mut host = Lookups::new();
        // Blank lines count as requests but answer nothing.
        let (log, _, answered) = host.serve([b"\n  \t \r\nping\n".to_vec()]);
        assert_eq!(writes(&log), [b"pong\n"]);
        assert_eq!(answered, 3);
        // Invalid UTF-8 answers a coded error and the connection goes on.
        let (log, ..) = host.serve([b"\xff\xfe\xfd\nping\n".to_vec()]);
        let reply = String::from_utf8(writes(&log).concat()).unwrap();
        assert!(reply.starts_with("error: bad-command: "), "{reply}");
        assert!(reply.ends_with("\npong\n"), "{reply}");
        assert_eq!(reply.lines().count(), 2, "{reply}");
    }

    #[test]
    fn shutdown_and_stop_end_the_loop() {
        let mut host = Lookups::new();
        let (log, shutdown, answered) = host.serve([b"ping\nshutdown\nping\n".to_vec()]);
        assert_eq!(
            log,
            [Io::Read, Io::Write(b"pong\nshutting down\n".to_vec())]
        );
        assert!(shutdown);
        assert_eq!(answered, 1);
        // A raised stop flag: nothing is read, nothing answered.
        let stop = AtomicBool::new(true);
        let (log, shutdown, answered) = host.serve_under(&stop, [b"ping\n".to_vec()]);
        assert_eq!((log, shutdown, answered), (vec![], false, 0));
    }

    #[test]
    fn a_line_cut_by_shutdown_is_not_a_request() {
        let mut host = Lookups::new();
        // Another connection's `shutdown` lands while this client is
        // mid-line: the flag rises, then the blocked read returns EOF.
        // `group_of 1` cut to `group_of ` (or `sec.delete 123` to
        // `sec.delete 12`) must not run.
        let stop = AtomicBool::new(false);
        let chunks = [b"ping\ngroup_of ".to_vec()]
            .into_iter()
            .chain(std::iter::once_with(|| {
                stop.store(true, Ordering::Release);
                Vec::new()
            }));
        let (log, shutdown, answered) = host.serve_under(&stop, chunks);
        assert_eq!(log, [Io::Read, Io::Write(b"pong\n".to_vec()), Io::Read]);
        assert_eq!((shutdown, answered), (false, 1));
        // The same bytes before a client's own EOF are a request.
        let (log, _, answered) = host.serve([b"ping\ngroup_of ".to_vec()]);
        assert_eq!(writes(&log).len(), 2, "{log:?}");
        assert_eq!(answered, 2);
    }

    #[test]
    fn an_overlong_line_answers_once_and_closes() {
        let mut host = Lookups::new();
        // A client that never sends a newline: refused as soon as the
        // line is provably too long, having buffered no more than that.
        let fill = vec![b'x'; READ_BUFFER_BYTES];
        let (log, shutdown, answered) = host.serve(std::iter::repeat(fill));
        let reads = log.iter().filter(|io| **io == Io::Read).count();
        assert_eq!(reads, MAX_LINE_BYTES / READ_BUFFER_BYTES + 1);
        let reply = String::from_utf8(writes(&log).concat()).unwrap();
        assert!(reply.starts_with("error: line-too-long: "), "{reply}");
        assert_eq!(reply.matches('\n').count(), 1, "{reply}");
        assert_eq!((shutdown, answered), (false, 0));
        assert!(
            matches!(log.last(), Some(Io::Write(_))),
            "closed after the error"
        );

        // Exactly the maximum is still a request; one byte more is not.
        let mut line = b"ping".to_vec();
        line.resize(MAX_LINE_BYTES, b' ');
        let chunked = |line: &[u8]| -> Vec<Vec<u8>> {
            line.chunks(READ_BUFFER_BYTES).map(<[u8]>::to_vec).collect()
        };
        let (log, ..) = host.serve(chunked(&[&line[..], b"\n"].concat()));
        assert_eq!(writes(&log), [b"pong\n"]);
        let (log, ..) = host.serve(chunked(&[&line[..], b" \n"].concat()));
        let reply = String::from_utf8(writes(&log).concat()).unwrap();
        assert!(reply.starts_with("error: line-too-long: "), "{reply}");
    }
}
