//! A minimal HTTP/1.1 layer over `std::io` streams.
//!
//! Implements exactly what the MDM service needs: request-line + header
//! parsing, `Content-Length` bodies, keep-alive, and response writing.
//! No chunked transfer, no TLS, no HTTP/2 — analysts and stewards speak
//! plain JSON over loopback or a trusted network segment.

use std::io::{self, BufRead, Write};

/// Upper bound on one header line (request line included).
const MAX_LINE: usize = 8 * 1024;
/// Upper bound on header count.
const MAX_HEADERS: usize = 100;
/// The longest request head [`parse_buffered`] accepts with CRLF line ends:
/// the request line and [`MAX_HEADERS`] headers, each up to [`MAX_LINE`]
/// bytes, then the blank line. A longer head without its blank line can
/// only end in the parser's 400.
pub(crate) const MAX_HEAD: usize = (MAX_HEADERS + 1) * (MAX_LINE + 2) + 2;
/// Upper bound on a request body (wrapper payloads ride in JSON strings).
const MAX_BODY: usize = 16 * 1024 * 1024;

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Raw query string (without `?`), when present.
    pub query: Option<String>,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First value of `name` (case-insensitive).
    pub fn header(&self, name: &str) -> Option<&str> {
        let wanted = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == wanted)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    pub fn body_text(&self) -> Result<&str, String> {
        std::str::from_utf8(&self.body).map_err(|_| "request body is not UTF-8".to_string())
    }

    /// True when the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !matches!(self.header("connection"), Some(v) if v.eq_ignore_ascii_case("close"))
    }
}

fn read_line(reader: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None); // clean EOF between requests
                }
                break;
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                if byte[0] != b'\r' {
                    line.push(byte[0]);
                }
                if line.len() > MAX_LINE {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "header line too long",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    String::from_utf8(line)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "header line is not UTF-8"))
}

/// Reads one request head — the request line and headers through the
/// blank line — into a request with an empty body, plus the body length
/// it declares. `Ok(None)` means the reader ended before a request line;
/// `InvalidData` errors mean a malformed request (answer 400 and close).
fn read_head(reader: &mut impl BufRead) -> io::Result<Option<(Request, usize)>> {
    let request_line = match read_line(reader)? {
        Some(line) if !line.is_empty() => line,
        _ => return Ok(None),
    };
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) => (m, t, v),
        _ => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed request line '{request_line}'"),
            ))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported protocol '{version}'"),
        ));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, "connection closed mid-headers")
        })?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed header '{line}'"),
            )
        })?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        if headers.len() > MAX_HEADERS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "too many headers",
            ));
        }
    }

    let request = Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body: Vec::new(),
    };
    let length = match request.header("content-length") {
        Some(length) => length.parse().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad Content-Length '{length}'"),
            )
        })?,
        None => 0,
    };
    if length > MAX_BODY {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
    }
    Ok(Some((request, length)))
}

/// A `BufRead` over a byte slice that reports `WouldBlock` instead of EOF
/// when the slice runs out. Feeding it to [`read_head`] turns the
/// blocking parser into an incremental one: `WouldBlock` surfacing from any
/// depth of the parse means "the buffer holds only a request prefix — read
/// more bytes and retry", while real protocol errors (`InvalidData`) keep
/// their meaning. The event loop re-parses from the buffer start on each
/// attempt; requests are small (bounded by the same limits as the blocking
/// path), so the re-scan is cheap.
struct PartialReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl io::Read for PartialReader<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let remaining = &self.bytes[self.pos..];
        if remaining.is_empty() {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "need more data"));
        }
        let n = remaining.len().min(out.len());
        out[..n].copy_from_slice(&remaining[..n]);
        self.pos += n;
        Ok(n)
    }
}

impl BufRead for PartialReader<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos >= self.bytes.len() {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "need more data"));
        }
        Ok(&self.bytes[self.pos..])
    }

    fn consume(&mut self, amount: usize) {
        self.pos = (self.pos + amount).min(self.bytes.len());
    }
}

/// Attempts to parse one complete request from the front of `buf`.
///
/// * `Ok(Some((request, consumed)))` — a full request; the caller drains
///   `consumed` bytes from the buffer (pipelined bytes after it stay).
/// * `Ok(None)` — the buffer holds an incomplete request; read more.
/// * `Err(InvalidData)` — malformed; answer 400 and close.
pub fn parse_buffered(buf: &[u8]) -> io::Result<Option<(Request, usize)>> {
    let mut reader = PartialReader { bytes: buf, pos: 0 };
    let (mut request, length) = match read_head(&mut reader) {
        Ok(Some(head)) => head,
        // `read_head` only returns None on EOF, which PartialReader never
        // reports; treat it as "incomplete" for robustness.
        Ok(None) => return Ok(None),
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(None),
        Err(e) => return Err(e),
    };
    // The body is copied once the buffer holds all of it, so a head that
    // declares a large body allocates nothing for it while it arrives.
    let end = reader.pos + length;
    let Some(body) = buf.get(reader.pos..end) else {
        return Ok(None);
    };
    request.body = body.to_vec();
    Ok(Some((request, end)))
}

/// A response ready to serialise.
#[derive(Clone, Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    /// Extra headers beyond the standard trio (e.g. `Retry-After`).
    pub headers: Vec<(&'static str, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response from already-serialised text.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A binary response (replication batches).
    pub fn binary(status: u16, body: Vec<u8>) -> Self {
        Response {
            status,
            content_type: "application/octet-stream",
            headers: Vec::new(),
            body,
        }
    }

    /// Adds an extra header (builder style).
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        421 => "Misdirected Request",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Serialises `response`; `keep_alive` controls the `Connection` header.
pub fn write_response(
    writer: &mut impl Write,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    write!(
        writer,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    )?;
    for (name, value) in &response.headers {
        write!(writer, "{name}: {value}\r\n")?;
    }
    writer.write_all(b"\r\n")?;
    writer.write_all(&response.body)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> io::Result<Option<Request>> {
        parse_buffered(raw.as_bytes()).map(|parsed| parsed.map(|(request, _)| request))
    }

    #[test]
    fn parses_request_with_body() {
        let request = parse(
            "POST /analyst/query?limit=5 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody",
        )
        .unwrap()
        .unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/analyst/query");
        assert_eq!(request.query.as_deref(), Some("limit=5"));
        assert_eq!(request.header("host"), Some("x"));
        assert_eq!(request.body_text().unwrap(), "body");
        assert!(request.keep_alive());
    }

    #[test]
    fn connection_close_is_detected() {
        let request = parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!request.keep_alive());
    }

    #[test]
    fn eof_before_request_is_none() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn malformed_request_line_rejected() {
        assert!(parse("BROKEN\r\n\r\n").is_err());
        assert!(parse("GET /x HTTP/2\r\n\r\n").is_err());
    }

    #[test]
    fn bad_content_length_rejected() {
        assert!(parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
    }

    #[test]
    fn extra_headers_and_overload_statuses() {
        let mut out = Vec::new();
        let response = Response::json(503, "{}").with_header("Retry-After", "2");
        write_response(&mut out, &response, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 2\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");
        assert_eq!(status_text(504), "Gateway Timeout");
    }

    #[test]
    fn partial_buffers_parse_incrementally() {
        let full = b"POST /analyst/query HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
        // Every proper prefix is "incomplete", never an error.
        for cut in 0..full.len() {
            assert!(
                parse_buffered(&full[..cut]).unwrap().is_none(),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        let (request, consumed) = parse_buffered(full).unwrap().unwrap();
        assert_eq!(consumed, full.len());
        assert_eq!(request.body_text().unwrap(), "body");
    }

    #[test]
    fn pipelined_bytes_stay_in_buffer() {
        let two = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (first, consumed) = parse_buffered(two).unwrap().unwrap();
        assert_eq!(first.path, "/a");
        let (second, rest) = parse_buffered(&two[consumed..]).unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert_eq!(consumed + rest, two.len());
    }

    #[test]
    fn buffered_garbage_is_invalid_data() {
        let err = parse_buffered(b"NOT-HTTP\r\n\r\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let err = parse_buffered(b"GET /x HTTP/2\r\n\r\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn response_round_trips() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{\"ok\":true}"), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: keep-alive"));
        assert!(text.ends_with("{\"ok\":true}"));
    }
}
