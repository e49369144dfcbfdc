//! A deliberately small HTTP/1.1 implementation: enough of the protocol
//! for a JSON API daemon (request line + headers + `Content-Length`
//! bodies, persistent connections) and a matching blocking client used
//! by the load generator and the integration tests. No chunked
//! encoding, no TLS, no multipart — requests that need them get a clear
//! error instead of undefined behavior.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target path (query strings are kept verbatim).
    pub path: String,
    /// Body bytes (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// True when the client asked to close the connection.
    pub close: bool,
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum ReadError {
    /// Clean end of stream between requests (keep-alive hang-up).
    Eof,
    /// Socket error or timeout.
    Io(std::io::Error),
    /// The bytes were not a well-formed request; respond 400 and close.
    Malformed(String),
    /// The head or body exceeded the configured bounds; respond 413.
    TooLarge(&'static str),
}

/// Read one request from a buffered connection.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, ReadError> {
    // Bytes of the head read so far; every line is read through what is
    // left of `MAX_HEAD_BYTES`, so a line that never ends costs no more.
    let mut head = 0usize;
    let line = read_head_line(reader, &mut head)?;
    if line.is_empty() {
        return Err(ReadError::Eof);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!("bad request line {:?}", line.trim_end())));
    }
    // Headers.
    let mut content_length = 0usize;
    let mut close = version == "HTTP/1.0";
    loop {
        let h = read_head_line(reader, &mut head)?;
        if h.is_empty() {
            return Err(ReadError::Malformed("eof inside headers".into()));
        }
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        let Some((name, value)) = h.split_once(':') else {
            return Err(ReadError::Malformed(format!("bad header {h:?}")));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => {
                content_length = value
                    .parse()
                    .map_err(|_| ReadError::Malformed(format!("bad content-length {value:?}")))?;
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.contains("close") {
                    close = true;
                } else if v.contains("keep-alive") {
                    close = false;
                }
            }
            "transfer-encoding" => {
                return Err(ReadError::Malformed("chunked bodies are not supported".into()));
            }
            _ => {}
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::TooLarge("body"));
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(ReadError::Io)?;
    }
    Ok(Request { method, path, body, close })
}

/// One line of the request head, newline included, read through the
/// `MAX_HEAD_BYTES - *head` bytes the head has left. Empty at end of
/// stream; a line the bound cuts off is [`ReadError::TooLarge`].
fn read_head_line(
    reader: &mut BufReader<TcpStream>,
    head: &mut usize,
) -> Result<String, ReadError> {
    let mut line = Vec::new();
    let left = (MAX_HEAD_BYTES - *head) as u64;
    reader.take(left).read_until(b'\n', &mut line).map_err(ReadError::Io)?;
    *head += line.len();
    if *head == MAX_HEAD_BYTES && !line.ends_with(b"\n") {
        return Err(ReadError::TooLarge("request head"));
    }
    String::from_utf8(line).map_err(|_| ReadError::Malformed("request head is not UTF-8".into()))
}

/// Reason phrase for the status codes this daemon emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "",
    }
}

/// Write one JSON response (adds Content-Length). Status line, headers
/// and body leave in one `write_all` from one buffer, so the peer wakes
/// once per reply, not once for the head and again for the body.
pub fn write_json(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    let reply = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{}\r\n{body}",
        reason(status),
        body.len(),
        if close { "Connection: close\r\n" } else { "" },
    );
    stream.write_all(reply.as_bytes())
}

/// A persistent blocking HTTP/1.1 client connection (load generator and
/// test harness side of the protocol above).
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:8642`) with a read timeout.
    pub fn connect(addr: &str, timeout: Duration) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_nodelay(true).ok();
        Ok(Client { reader: BufReader::new(stream) })
    }

    /// Issue one request; returns `(status, body)`.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<(u16, String)> {
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: sxv\r\nContent-Length: {}\r\n\
             Content-Type: application/json\r\n\r\n",
            body.len()
        );
        let stream = self.reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        self.read_response()
    }

    /// POST a JSON body to `path`.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.request("POST", path, Some(body))
    }

    /// GET `path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<(u16, String)> {
        self.request("GET", path, None)
    }

    fn read_response(&mut self) -> std::io::Result<(u16, String)> {
        let bad = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            if self.reader.read_line(&mut h)? == 0 {
                return Err(bad("eof inside response headers".into()));
            }
            let h = h.trim_end();
            if h.is_empty() {
                break;
            }
            if let Some((name, value)) = h.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length =
                        value.trim().parse().map_err(|_| bad(format!("bad length {value:?}")))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body).map(|b| (status, b)).map_err(|e| bad(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(raw: &str) -> Result<Request, ReadError> {
        // Push raw bytes through a real socket pair so the parser is
        // tested against the exact reader type the server uses.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_string();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(raw.as_bytes()).unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        let req = read_request(&mut reader);
        writer.join().unwrap();
        req
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            roundtrip("POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/query");
        assert_eq!(req.body, b"hello world");
        assert!(!req.close, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn header_names_are_case_insensitive_and_close_honored() {
        let req =
            roundtrip("GET /stats HTTP/1.1\r\ncOnNeCtIoN: Close\r\nCONTENT-LENGTH: 0\r\n\r\n")
                .unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.close);
        assert!(req.body.is_empty());
    }

    #[test]
    fn malformed_requests_are_rejected_not_panicked() {
        assert!(matches!(roundtrip("FLAGRANT\r\n\r\n"), Err(ReadError::Malformed(_))));
        assert!(matches!(
            roundtrip("GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            roundtrip("GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(roundtrip(""), Err(ReadError::Eof)));
    }

    #[test]
    fn oversized_bodies_are_bounded() {
        let head = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(roundtrip(&head), Err(ReadError::TooLarge(_))));
    }
}
