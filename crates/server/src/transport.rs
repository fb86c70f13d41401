//! Pluggable byte transports: real TCP and an in-memory duplex pair.
//!
//! The server accepts [`Connection`]s from anything implementing
//! [`Listener`]; the shipped implementations are [`TcpTransport`]
//! (loopback or real network) and [`MemTransport`] (two in-process byte
//! pipes), so every test and bench can drive the full request path with
//! no sockets, ports, or network at all — the same offline discipline as
//! the rest of the workspace.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use std::sync::{Condvar, Mutex};

/// One accepted (or dialed) duplex byte stream, split into halves so a
/// reader thread and concurrent writers can own them independently.
pub struct Connection {
    /// Where the peer's bytes arrive. Blocking; unblocked (EOF) by
    /// [`Connection::shutdown_read`] or the peer closing.
    pub reader: Box<dyn Read + Send>,
    /// Where bytes to the peer go.
    pub writer: Box<dyn Write + Send>,
    /// Unblocks a blocked read (graceful drain: stop taking input while
    /// responses still flow out the writer).
    shutdown_read: Arc<dyn Fn() + Send + Sync>,
    /// Tears down both directions.
    shutdown_both: Arc<dyn Fn() + Send + Sync>,
    /// Peer label for diagnostics.
    pub peer: String,
}

impl Connection {
    /// Stop the inbound direction: a blocked or future read returns EOF;
    /// the outbound direction keeps working (drain-then-close).
    pub fn shutdown_read(&self) {
        (self.shutdown_read)();
    }

    /// Tear down both directions.
    pub fn shutdown_both(&self) {
        (self.shutdown_both)();
    }

    /// A clonable handle that stops the inbound direction (held by the
    /// server so it can EOF readers it no longer owns the halves of).
    pub fn read_shutdown_handle(&self) -> Arc<dyn Fn() + Send + Sync> {
        Arc::clone(&self.shutdown_read)
    }

    /// A clonable handle that tears down both directions.
    pub fn both_shutdown_handle(&self) -> Arc<dyn Fn() + Send + Sync> {
        Arc::clone(&self.shutdown_both)
    }
}

/// Accepts inbound [`Connection`]s. `accept` blocks; `close` refuses new
/// dials and unblocks it permanently (once any dials already connected
/// are handed out, calls fail), which is how the server's acceptor
/// thread is told to exit.
pub trait Listener: Send + Sync {
    fn accept(&self) -> io::Result<Connection>;
    fn close(&self);
    /// Human-readable endpoint (a TCP address, or `"mem"`).
    fn addr(&self) -> String;
}

// ------------------------------------------------------------------ TCP

/// TCP listener transport. Bind with [`TcpTransport::bind`], dial with
/// [`tcp_connect`].
pub struct TcpTransport {
    listener: TcpListener,
    local: SocketAddr,
    closed: AtomicBool,
}

impl TcpTransport {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port).
    pub fn bind(addr: &str) -> io::Result<TcpTransport> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok(TcpTransport {
            listener,
            local,
            closed: AtomicBool::new(false),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }
}

impl Listener for TcpTransport {
    fn accept(&self) -> io::Result<Connection> {
        loop {
            let (stream, peer) = self.listener.accept()?;
            if self.closed.load(Ordering::Acquire) {
                // The wake-up dial from `close` (or a straggler racing
                // it): refuse and report closed.
                let _ = stream.shutdown(Shutdown::Both);
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "listener closed"));
            }
            match connection_from_stream(stream, peer.to_string()) {
                Ok(conn) => return Ok(conn),
                Err(_) => continue,
            }
        }
    }

    fn close(&self) {
        if !self.closed.swap(true, Ordering::AcqRel) {
            // Unblock the acceptor with a throwaway self-dial; harmless if
            // accept already returned.
            let _ = TcpStream::connect(self.local);
        }
    }

    fn addr(&self) -> String {
        self.local.to_string()
    }
}

/// Dial a TCP server.
pub fn tcp_connect(addr: &str) -> io::Result<Connection> {
    let stream = TcpStream::connect(addr)?;
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| addr.to_string());
    connection_from_stream(stream, peer)
}

fn connection_from_stream(stream: TcpStream, peer: String) -> io::Result<Connection> {
    // One frame per syscall matters more than Nagle coalescing for a
    // latency benchmark.
    let _ = stream.set_nodelay(true);
    let reader = stream.try_clone()?;
    let writer = stream.try_clone()?;
    let rd = stream.try_clone()?;
    let both = stream;
    Ok(Connection {
        reader: Box::new(reader),
        writer: Box::new(writer),
        shutdown_read: Arc::new(move || {
            let _ = rd.shutdown(Shutdown::Read);
        }),
        shutdown_both: Arc::new(move || {
            let _ = both.shutdown(Shutdown::Both);
        }),
        peer,
    })
}

// ------------------------------------------------------------ in-memory

/// One direction of an in-memory connection: an unbounded byte queue
/// with blocking reads and a close flag.
struct Pipe {
    state: Mutex<PipeState>,
    cv: Condvar,
}

struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

impl Pipe {
    fn new() -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                buf: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
        })
    }

    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.cv.notify_all();
    }
}

/// Reading half of a [`Pipe`].
struct PipeReader(Arc<Pipe>);

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if out.is_empty() {
            return Ok(0);
        }
        let mut st = self.0.state.lock().unwrap();
        loop {
            if !st.buf.is_empty() {
                let n = out.len().min(st.buf.len());
                for slot in out.iter_mut().take(n) {
                    *slot = st.buf.pop_front().unwrap();
                }
                return Ok(n);
            }
            if st.closed {
                return Ok(0); // EOF
            }
            st = self.0.cv.wait(st).unwrap();
        }
    }
}

/// Writing half of a [`Pipe`].
struct PipeWriter(Arc<Pipe>);

impl Write for PipeWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let mut st = self.0.state.lock().unwrap();
        if st.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
        }
        st.buf.extend(data);
        self.0.cv.notify_all();
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Build the two [`Connection`] ends of one in-memory duplex link.
fn mem_pair(n: u64) -> (Connection, Connection) {
    let c2s = Pipe::new();
    let s2c = Pipe::new();
    let client = {
        let inbound = Arc::clone(&s2c);
        let both_a = Arc::clone(&s2c);
        let both_b = Arc::clone(&c2s);
        Connection {
            reader: Box::new(PipeReader(Arc::clone(&s2c))),
            writer: Box::new(PipeWriter(Arc::clone(&c2s))),
            shutdown_read: Arc::new(move || inbound.close()),
            shutdown_both: Arc::new(move || {
                both_a.close();
                both_b.close();
            }),
            peer: format!("mem:server#{n}"),
        }
    };
    let server = {
        let inbound = Arc::clone(&c2s);
        let both_a = Arc::clone(&c2s);
        let both_b = Arc::clone(&s2c);
        Connection {
            reader: Box::new(PipeReader(Arc::clone(&c2s))),
            writer: Box::new(PipeWriter(Arc::clone(&s2c))),
            shutdown_read: Arc::new(move || inbound.close()),
            shutdown_both: Arc::new(move || {
                both_a.close();
                both_b.close();
            }),
            peer: format!("mem:client#{n}"),
        }
    };
    (client, server)
}

struct MemShared {
    state: Mutex<MemState>,
    cv: Condvar,
}

struct MemState {
    pending: VecDeque<Connection>,
    closed: bool,
    dialed: u64,
}

/// In-memory transport: the [`MemListener`] half of
/// [`MemTransport::endpoint`] goes to the server, any number of
/// [`MemConnector`] clones dial it from other threads.
pub struct MemTransport;

impl MemTransport {
    /// A fresh in-memory endpoint: `(connector, listener)`.
    pub fn endpoint() -> (MemConnector, MemListener) {
        let shared = Arc::new(MemShared {
            state: Mutex::new(MemState {
                pending: VecDeque::new(),
                closed: false,
                dialed: 0,
            }),
            cv: Condvar::new(),
        });
        (MemConnector(Arc::clone(&shared)), MemListener(shared))
    }
}

/// Dials an in-memory listener. Cloneable and `Send`, so load-generator
/// threads can each open their own connection.
#[derive(Clone)]
pub struct MemConnector(Arc<MemShared>);

impl MemConnector {
    /// Open a new connection; fails once the listener is closed.
    pub fn connect(&self) -> io::Result<Connection> {
        let mut st = self.0.state.lock().unwrap();
        if st.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "listener closed"));
        }
        st.dialed += 1;
        let (client, server) = mem_pair(st.dialed);
        st.pending.push_back(server);
        self.0.cv.notify_all();
        Ok(client)
    }
}

/// The accepting end of an in-memory endpoint.
pub struct MemListener(Arc<MemShared>);

impl Listener for MemListener {
    fn accept(&self) -> io::Result<Connection> {
        let mut st = self.0.state.lock().unwrap();
        loop {
            if let Some(conn) = st.pending.pop_front() {
                return Ok(conn);
            }
            if st.closed {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "listener closed"));
            }
            st = self.0.cv.wait(st).unwrap();
        }
    }

    fn close(&self) {
        let mut st = self.0.state.lock().unwrap();
        // Dials already connected stay queued: `accept` hands them out
        // before it reports closed, so their clients get served (or shed)
        // rather than cut off.
        st.closed = true;
        self.0.cv.notify_all();
    }

    fn addr(&self) -> String {
        "mem".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_duplex_roundtrip_and_eof() {
        let (connector, listener) = MemTransport::endpoint();
        let client = connector.connect().expect("connect");
        let mut server = listener.accept().expect("accept");

        let mut cw = client.writer;
        cw.write_all(b"hello").unwrap();
        let mut buf = [0u8; 5];
        server.reader.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hello");

        server.writer.write_all(b"world").unwrap();
        let mut cr = client.reader;
        let mut buf = [0u8; 5];
        cr.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"world");

        // Read-shutdown EOFs the server's inbound without killing its
        // outbound.
        server.shutdown_read();
        assert_eq!(server.reader.read(&mut buf).unwrap(), 0);
        server.writer.write_all(b"late!").unwrap();
        cr.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"late!");
    }

    #[test]
    fn mem_listener_close_unblocks_accept() {
        let (_connector, listener) = MemTransport::endpoint();
        let listener = Arc::new(listener);
        let l2 = Arc::clone(&listener);
        let t = std::thread::spawn(move || l2.accept().is_err());
        std::thread::sleep(std::time::Duration::from_millis(20));
        listener.close();
        assert!(t.join().unwrap(), "accept should fail after close");
    }

    #[test]
    fn mem_listener_close_hands_out_connected_dials_first() {
        let (connector, listener) = MemTransport::endpoint();
        let client = connector.connect().expect("connect");
        listener.close();
        assert!(connector.connect().is_err(), "close refuses new dials");
        let mut server = listener.accept().expect("connected dial survives close");
        let mut cw = client.writer;
        cw.write_all(b"hi").unwrap();
        let mut buf = [0u8; 2];
        server.reader.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
        assert!(listener.accept().is_err(), "then accept reports closed");
    }

    #[test]
    fn tcp_roundtrip() {
        let transport = TcpTransport::bind("127.0.0.1:0").expect("bind");
        let addr = transport.local_addr().to_string();
        let t = std::thread::spawn(move || {
            let mut conn = transport.accept().expect("accept");
            let mut buf = [0u8; 4];
            conn.reader.read_exact(&mut buf).unwrap();
            conn.writer.write_all(&buf).unwrap();
        });
        let mut conn = tcp_connect(&addr).expect("connect");
        conn.writer.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        conn.reader.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        t.join().unwrap();
    }
}
