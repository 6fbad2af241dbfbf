//! A minimal blocking client for the `graffix serve` protocol.
//!
//! One request line out, one response line back — no pipelining. The CLI's
//! `graffix client` subcommand, the serving tests, and the serving bench
//! all sit on this.

use crate::protocol::MAX_REQUEST_BYTES;
use crate::server::Stream;
use graffix_sim::Json;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::Path;

/// A connected client.
pub struct Client {
    reader: BufReader<Stream>,
}

impl Client {
    /// Connects over TCP (`host:port`).
    pub fn connect_tcp(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // One-line frames; don't let Nagle batch them.
        let _ = stream.set_nodelay(true);
        Ok(Client {
            reader: BufReader::new(Stream::Tcp(stream)),
        })
    }

    /// Connects over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: &Path) -> io::Result<Client> {
        Ok(Client {
            reader: BufReader::new(Stream::Unix(UnixStream::connect(path)?)),
        })
    }

    /// Sends one raw line (no trailing newline needed) and reads one
    /// response line. The raw path exists so tests and the CLI can send
    /// deliberately malformed frames.
    pub fn call_line(&mut self, line: &str) -> io::Result<String> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        if !line.ends_with('\n') {
            frame.push(b'\n');
        }
        self.send_raw(&frame)?;
        self.read_response_line()
    }

    /// Sends raw bytes exactly as given (for truncated-frame tests) without
    /// waiting for a response.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        let stream = self.reader.get_mut();
        stream.write_all(bytes)?;
        stream.flush()
    }

    /// Reads the next response line.
    pub fn read_response_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        // Responses are server-produced and bounded in practice, but guard
        // against a runaway peer anyway.
        let n = self
            .reader
            .by_ref()
            .take((4 * MAX_REQUEST_BYTES) as u64)
            .read_line(&mut line)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Sends a JSON request document and parses the JSON response.
    pub fn call(&mut self, request: &Json) -> io::Result<Json> {
        let line = self.call_line(&request.to_compact_string())?;
        Json::parse(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    fn admin(&mut self, op: &str, id: u64) -> io::Result<Json> {
        let mut req = Json::obj();
        req.set("id", Json::U64(id));
        req.set("op", Json::Str(op.to_string()));
        self.call(&req)
    }

    /// Round-trip liveness probe.
    pub fn ping(&mut self) -> io::Result<Json> {
        self.admin("ping", 0)
    }

    /// Fetches the server's metrics/pool stats document.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.admin("stats", 0)
    }

    /// Asks the server to drain and stop.
    pub fn shutdown(&mut self) -> io::Result<Json> {
        self.admin("shutdown", 0)
    }
}
