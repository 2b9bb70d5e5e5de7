//! The load generator's side of the line protocol: one `TCP_NODELAY`
//! connection, one `write` per request (or per pipelined chunk), replies
//! read line by line.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Requests per pipelined `write`, and how many such writes may be
/// unanswered at once.
pub const PIPELINE_CHUNK: usize = 256;
pub const PIPELINE_DEPTH: usize = 4;

/// No reply should take this long; a stuck server fails the run instead of
/// hanging it past the contract's time limit.
const REPLY_TIMEOUT: Duration = Duration::from_secs(100);

pub struct Connection {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Connection {
    pub fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Connection {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 16, stream),
            line: String::new(),
        })
    }

    /// Send bytes that already end in a newline, as one `write`.
    pub fn send(&mut self, request: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(request)
    }

    /// Read one reply line (newline stripped).
    pub fn receive(&mut self) -> std::io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end_matches('\n'))
    }

    /// One request, one reply; returns the reply and the round-trip time.
    pub fn round_trip(&mut self, request: &[u8]) -> std::io::Result<(String, Duration)> {
        let start = Instant::now();
        self.send(request)?;
        let reply = self.receive()?.to_string();
        Ok((reply, start.elapsed()))
    }

    /// Convenience for command words: appends the newline.
    pub fn command(&mut self, command: &str) -> std::io::Result<String> {
        Ok(self.round_trip(format!("{command}\n").as_bytes())?.0)
    }

    /// Send `requests` pipelined — `PIPELINE_CHUNK` per `write`, at most
    /// `PIPELINE_DEPTH` writes unanswered — handing every reply, in request
    /// order, to `on_reply`. Returns the wall-clock from the first write to
    /// the last reply.
    pub fn pipelined(
        &mut self,
        requests: &[String],
        mut on_reply: impl FnMut(usize, &str),
    ) -> std::io::Result<Duration> {
        let chunks: Vec<Vec<u8>> = requests
            .chunks(PIPELINE_CHUNK)
            .map(|chunk| chunk.concat().into_bytes())
            .collect();
        let start = Instant::now();
        let mut answered = 0;
        for (index, chunk) in chunks.iter().enumerate() {
            self.send(chunk)?;
            // Keep the window full: drain one chunk's replies once
            // PIPELINE_DEPTH are out, everything after the last write.
            let written = ((index + 1) * PIPELINE_CHUNK).min(requests.len());
            let keep_out = if index + 1 == chunks.len() {
                0
            } else {
                (PIPELINE_DEPTH - 1) * PIPELINE_CHUNK
            };
            while written - answered > keep_out {
                let reply = self.receive()?;
                on_reply(answered, reply);
                answered += 1;
            }
        }
        Ok(start.elapsed())
    }
}
