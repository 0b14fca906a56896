//! The load generator's HTTP client: one keep-alive TCP connection,
//! pre-rendered request bytes, byte counting on both directions.

use sensorsafe_core::net::http::{read_response, write_request};
use sensorsafe_core::net::{Request, Response};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A `Read` that counts what passes through it.
pub struct CountingReader {
    stream: TcpStream,
    bytes: u64,
}

impl Read for CountingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.stream.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

/// One keep-alive connection to a server.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<CountingReader>,
    wrote: u64,
}

impl Conn {
    /// Dials `addr`. Nagle is off: a request is one `write_all`, and a
    /// delayed ACK would otherwise turn each round trip into ~40 ms.
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::with_capacity(
            64 * 1024,
            CountingReader {
                stream: stream.try_clone()?,
                bytes: 0,
            },
        );
        Ok(Conn {
            stream,
            reader,
            wrote: 0,
        })
    }

    /// Sends pre-rendered request bytes and reads one whole response.
    pub fn round_trip(&mut self, wire: &[u8]) -> std::io::Result<Response> {
        self.stream.write_all(wire)?;
        self.wrote += wire.len() as u64;
        read_response(&mut self.reader)
    }

    /// Renders and sends a request (set-up traffic, off the clock).
    pub fn send(&mut self, request: &Request) -> std::io::Result<Response> {
        self.round_trip(&render(request))
    }

    /// Bytes written to plus bytes read from the socket so far.
    pub fn wire_bytes(&self) -> u64 {
        self.wrote + self.reader.get_ref().bytes
    }
}

/// The exact bytes `HttpClient` would put on the wire for `request`.
pub fn render(request: &Request) -> Vec<u8> {
    let mut wire = Vec::with_capacity(request.body.len() + 128);
    write_request(&mut wire, request).expect("writing to a Vec cannot fail");
    wire
}
