//! A tiny blocking HTTP/1.1 client — enough for the CLI, tests and benches
//! to drive an `mdm-server` without third-party dependencies.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A response as the client sees it.
#[derive(Clone, Debug)]
pub struct ClientResponse {
    pub status: u16,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    pub body: String,
}

/// A response whose body stays raw bytes (replication batches are binary).
#[derive(Clone, Debug)]
pub struct RawResponse {
    pub status: u16,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl RawResponse {
    /// Treats non-2xx statuses as errors carrying the (lossy) body text.
    pub fn into_ok(self) -> Result<Vec<u8>, String> {
        if (200..300).contains(&self.status) {
            Ok(self.body)
        } else {
            Err(format!(
                "HTTP {}: {}",
                self.status,
                String::from_utf8_lossy(&self.body)
            ))
        }
    }
}

impl ClientResponse {
    /// Treats non-2xx statuses as errors carrying the body.
    pub fn into_ok(self) -> Result<String, String> {
        if (200..300).contains(&self.status) {
            Ok(self.body)
        } else {
            Err(format!("HTTP {}: {}", self.status, self.body))
        }
    }

    /// First value of `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let wanted = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == wanted)
            .map(|(_, v)| v.as_str())
    }
}

/// Most bytes reserved for a response body before any of it has arrived.
const MAX_BODY_RESERVE: usize = 16 << 20;

/// A connection that can issue several requests (keep-alive).
///
/// Each request is encoded whole into a buffer the connection keeps and
/// leaves in one `write_all`, so it crosses the wire as one segment (the
/// socket has `TCP_NODELAY`: every `write` call would be a segment of its
/// own). Responses are read through one buffered reader that lives as long
/// as the connection, so bytes it reads past one response are the start of
/// the next.
pub struct Connection<S = TcpStream> {
    reader: BufReader<S>,
    /// The request being sent; cleared, not freed, between requests.
    request: Vec<u8>,
    /// One head line of the response being read.
    line: Vec<u8>,
}

impl Connection {
    pub fn open(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Connection::over(stream))
    }

    /// Bounds how long a read may block (long-polls want a generous cap).
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// A handle onto the underlying socket, so another thread can sever a
    /// blocked read (`TcpStream::shutdown`) without owning the connection.
    pub fn try_clone_stream(&self) -> io::Result<TcpStream> {
        self.reader.get_ref().try_clone()
    }
}

impl<S: Read + Write> Connection<S> {
    fn over(stream: S) -> Self {
        Connection {
            reader: BufReader::new(stream),
            request: Vec::new(),
            line: Vec::new(),
        }
    }

    /// Sends one request and reads the response.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        let raw = self.send_raw(method, path, body)?;
        let body = String::from_utf8(raw.body).map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, "response body is not UTF-8")
        })?;
        Ok(ClientResponse {
            status: raw.status,
            headers: raw.headers,
            body,
        })
    }

    /// Sends one request and reads the response body as raw bytes.
    pub fn send_raw(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<RawResponse> {
        let body = body.unwrap_or_default();
        self.request.clear();
        write!(
            self.request,
            "{method} {path} HTTP/1.1\r\nHost: mdm\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len(),
        )
        .expect("a Vec accepts every write");
        let stream = self.reader.get_mut();
        stream.write_all(&self.request)?;
        stream.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<RawResponse> {
        self.read_line()?;
        let status: u16 = self
            .line
            .split(|&b| b == b' ')
            .filter(|word| !word.is_empty())
            .nth(1)
            .and_then(|code| std::str::from_utf8(code).ok()?.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "malformed status line '{}'",
                        String::from_utf8_lossy(&self.line)
                    ),
                )
            })?;
        let mut content_length = 0usize;
        let mut headers = Vec::new();
        loop {
            self.read_line()?;
            if self.line.is_empty() {
                break;
            }
            let Some(colon) = self.line.iter().position(|&b| b == b':') else {
                continue;
            };
            let (name, value) = self.line.split_at(colon);
            let name = String::from_utf8_lossy(name.trim_ascii()).to_ascii_lowercase();
            let value = String::from_utf8_lossy(value[1..].trim_ascii()).into_owned();
            if name == "content-length" {
                content_length = value.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                })?;
            }
            headers.push((name, value));
        }
        // The length is the peer's word: reserve no more than a sane
        // response needs up front, and read only what actually arrives.
        let mut body = Vec::with_capacity(content_length.min(MAX_BODY_RESERVE));
        (&mut self.reader)
            .take(content_length as u64)
            .read_to_end(&mut body)?;
        if body.len() < content_length {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "response body cut short",
            ));
        }
        Ok(RawResponse {
            status,
            headers,
            body,
        })
    }

    /// Reads one head line into `self.line`, without its line ending.
    fn read_line(&mut self) -> io::Result<()> {
        self.line.clear();
        self.reader.read_until(b'\n', &mut self.line)?;
        while self.line.last().is_some_and(u8::is_ascii_whitespace) {
            self.line.pop();
        }
        Ok(())
    }
}

/// One-shot GET over a fresh connection.
pub fn get(addr: impl ToSocketAddrs, path: &str) -> io::Result<ClientResponse> {
    Connection::open(addr)?.send("GET", path, None)
}

/// One-shot GET of a binary body over a fresh connection.
pub fn get_raw(addr: impl ToSocketAddrs, path: &str) -> io::Result<RawResponse> {
    Connection::open(addr)?.send_raw("GET", path, None)
}

/// One-shot POST of a JSON body over a fresh connection.
pub fn post_json(addr: impl ToSocketAddrs, path: &str, body: &str) -> io::Result<ClientResponse> {
    Connection::open(addr)?.send("POST", path, Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory peer: reads drain `inbound` (as much as the reader asks
    /// for, as one socket read would), writes are kept and counted.
    struct Loopback {
        inbound: io::Cursor<Vec<u8>>,
        sent: Vec<u8>,
        writes: usize,
    }

    impl Loopback {
        fn answering(responses: &[u8]) -> Self {
            Loopback {
                inbound: io::Cursor::new(responses.to_vec()),
                sent: Vec::new(),
                writes: 0,
            }
        }
    }

    impl Read for Loopback {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.inbound.read(buf)
        }
    }

    impl Write for Loopback {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.sent.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    const OK: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";

    #[test]
    fn every_request_is_one_write_of_the_same_bytes() {
        let bodies: Vec<Option<String>> = [None, Some(0), Some(1), Some(1500), Some(64 * 1024)]
            .into_iter()
            .map(|size| size.map(|n| "x".repeat(n)))
            .collect();
        let mut connection = Connection::over(Loopback::answering(&OK.repeat(bodies.len())));
        for body in &bodies {
            let before = connection.reader.get_ref().sent.len();
            let response = connection
                .send("POST", "/analyst/query", body.as_deref())
                .unwrap();
            assert_eq!((response.status, response.body.as_str()), (200, "ok"));
            let body = body.as_deref().unwrap_or_default();
            let expected = format!(
                "POST /analyst/query HTTP/1.1\r\nHost: mdm\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            let stream = connection.reader.get_ref();
            assert_eq!(&stream.sent[before..], expected.as_bytes());
        }
        assert_eq!(connection.reader.get_ref().writes, bodies.len());
    }

    #[test]
    fn responses_read_together_come_back_in_order() {
        let mut both = b"HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n\"first\"".to_vec();
        both.extend_from_slice(
            b"HTTP/1.1 200 OK\r\ncontent-length:  8 \r\nX-Extra: a:b\r\n\r\n\"second\"",
        );
        let total = both.len() as u64;
        let mut connection = Connection::over(Loopback::answering(&both));
        let first = connection.send("GET", "/missing", None).unwrap();
        // One read took both responses off the stream.
        assert_eq!(connection.reader.get_ref().inbound.position(), total);
        assert_eq!((first.status, first.body.as_str()), (404, "\"first\""));
        assert_eq!(first.header("Content-Type"), Some("application/json"));
        let second = connection.send("GET", "/healthz", None).unwrap();
        assert_eq!((second.status, second.body.as_str()), (200, "\"second\""));
        assert_eq!(second.header("x-extra"), Some("a:b"));
        assert_eq!(connection.reader.get_ref().writes, 2);
        // The stream is exhausted: a third request finds no status line.
        let error = connection.send("GET", "/healthz", None).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn a_body_shorter_than_its_length_is_an_error_not_an_allocation() {
        let lying = b"HTTP/1.1 200 OK\r\nContent-Length: 1125899906842624\r\n\r\nabc";
        let mut connection = Connection::over(Loopback::answering(lying));
        let error = connection.send("GET", "/healthz", None).unwrap_err();
        assert_eq!(error.kind(), io::ErrorKind::UnexpectedEof);
    }
}
