//! A minimal HTTP/1.1 subset over `std::io` — just enough wire protocol
//! for the query server: one request per connection, `Content-Length`
//! bodies, hard limits on every variable-length input, and typed parse
//! errors that map onto 4xx status codes instead of panics.

use std::io::{self, BufRead, Read, Write};

/// Longest accepted request line (method + target + version), in bytes.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Longest accepted header section, in bytes.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Variable-size input limits for [`read_request`].
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_body: 1024 * 1024,
        }
    }
}

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method (`GET`, `POST`, …), as sent.
    pub method: String,
    /// Percent-decoded path component of the target.
    pub path: String,
    /// Decoded query parameters, in order of appearance.
    pub query: Vec<(String, String)>,
    /// Headers, in order of appearance, names as sent.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// First query parameter named `name`, if any.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// First header named `name` (case-insensitive), if any.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed. Every variant maps to a 4xx/5xx
/// status via [`ParseError::status`]; none of them abort the server.
#[derive(Debug)]
pub enum ParseError {
    /// The underlying socket failed or closed mid-request.
    Io(io::Error),
    /// The connection closed before a full request line arrived.
    ConnectionClosed,
    /// The request line was not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine(String),
    /// The request line exceeded [`MAX_REQUEST_LINE`].
    RequestLineTooLong,
    /// A header line had no `:` separator.
    BadHeader(String),
    /// The header section exceeded [`MAX_HEADER_BYTES`].
    HeadersTooLarge,
    /// `Content-Length` was present but not a decimal integer.
    BadContentLength(String),
    /// The declared body length exceeded [`Limits::max_body`].
    BodyTooLarge {
        /// Declared `Content-Length`.
        declared: usize,
        /// Configured cap.
        max: usize,
    },
    /// `Transfer-Encoding` other than identity (e.g. chunked).
    UnsupportedTransferEncoding(String),
}

impl ParseError {
    /// The response status and reason phrase this error maps to.
    pub fn status(&self) -> (u16, &'static str) {
        match self {
            ParseError::Io(_) | ParseError::ConnectionClosed => (400, "Bad Request"),
            ParseError::BadRequestLine(_) => (400, "Bad Request"),
            ParseError::RequestLineTooLong => (414, "URI Too Long"),
            ParseError::BadHeader(_) | ParseError::BadContentLength(_) => (400, "Bad Request"),
            ParseError::HeadersTooLarge => (431, "Request Header Fields Too Large"),
            ParseError::BodyTooLarge { .. } => (413, "Content Too Large"),
            ParseError::UnsupportedTransferEncoding(_) => (501, "Not Implemented"),
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "i/o error: {e}"),
            ParseError::ConnectionClosed => write!(f, "connection closed before a full request"),
            ParseError::BadRequestLine(line) => write!(f, "malformed request line {line:?}"),
            ParseError::RequestLineTooLong => {
                write!(f, "request line longer than {MAX_REQUEST_LINE} bytes")
            }
            ParseError::BadHeader(line) => write!(f, "malformed header line {line:?}"),
            ParseError::HeadersTooLarge => {
                write!(f, "header section longer than {MAX_HEADER_BYTES} bytes")
            }
            ParseError::BadContentLength(v) => write!(f, "bad Content-Length {v:?}"),
            ParseError::BodyTooLarge { declared, max } => {
                write!(
                    f,
                    "declared body of {declared} bytes exceeds the {max}-byte cap"
                )
            }
            ParseError::UnsupportedTransferEncoding(v) => {
                write!(f, "unsupported Transfer-Encoding {v:?}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Read one line (up to and including `\n`), enforcing a byte cap. Returns
/// the line without its trailing `\r\n` / `\n`. `Ok(None)` means clean EOF
/// before any byte of the line.
fn read_line(
    reader: &mut impl BufRead,
    cap: usize,
    too_long: ParseError,
) -> Result<Option<String>, ParseError> {
    let mut buf = Vec::new();
    // `take` bounds how much a newline-less attacker can make us buffer.
    // `&mut R` is itself a reader; `take` on it leaves `reader` usable
    // for the rest of the request.
    let mut limited = std::io::Read::take(&mut *reader, cap as u64 + 1);
    limited
        .read_until(b'\n', &mut buf)
        .map_err(ParseError::Io)?;
    if buf.is_empty() {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        return Err(if buf.len() > cap {
            too_long
        } else {
            ParseError::ConnectionClosed
        });
    }
    while matches!(buf.last(), Some(b'\n') | Some(b'\r')) {
        buf.pop();
    }
    Ok(Some(String::from_utf8_lossy(&buf).into_owned()))
}

/// Parse one request from `reader`, applying `limits`.
pub fn read_request(reader: &mut impl BufRead, limits: &Limits) -> Result<Request, ParseError> {
    let line = read_line(reader, MAX_REQUEST_LINE, ParseError::RequestLineTooLong)?
        .ok_or(ParseError::ConnectionClosed)?;
    let mut parts = line.split(' ').filter(|p| !p.is_empty());
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) => (m, t, v),
        _ => return Err(ParseError::BadRequestLine(line.clone())),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::BadRequestLine(line.clone()));
    }
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let path = percent_decode(raw_path, false);
    let query = raw_query.map(parse_query).unwrap_or_default();
    let method = method.to_string();

    let mut headers = Vec::new();
    let mut header_bytes = 0usize;
    loop {
        let remaining = MAX_HEADER_BYTES.saturating_sub(header_bytes);
        let line = read_line(reader, remaining, ParseError::HeadersTooLarge)?
            .ok_or(ParseError::ConnectionClosed)?;
        if line.is_empty() {
            break;
        }
        header_bytes += line.len() + 2;
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::BadHeader(line.clone()))?;
        headers.push((name.trim().to_string(), value.trim().to_string()));
    }

    let request = Request {
        method,
        path,
        query,
        headers,
        body: Vec::new(),
    };
    if let Some(te) = request.header("Transfer-Encoding") {
        if !te.eq_ignore_ascii_case("identity") {
            return Err(ParseError::UnsupportedTransferEncoding(te.to_string()));
        }
    }
    let declared = match request.header("Content-Length") {
        Some(v) => v
            .trim()
            .parse::<usize>()
            .map_err(|_| ParseError::BadContentLength(v.to_string()))?,
        None => 0,
    };
    if declared > limits.max_body {
        return Err(ParseError::BodyTooLarge {
            declared,
            max: limits.max_body,
        });
    }
    let mut body = vec![0u8; declared];
    if declared > 0 {
        reader.read_exact(&mut body).map_err(ParseError::Io)?;
    }
    Ok(Request { body, ..request })
}

/// Split-and-decode an `application/x-www-form-urlencoded` query string.
fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k, true), percent_decode(v, true)),
            None => (percent_decode(pair, true), String::new()),
        })
        .collect()
}

/// Percent-decoding; `plus_as_space` additionally maps `+` to a space
/// (query-string convention). Invalid escapes pass through literally.
fn percent_decode(s: &str, plus_as_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while let Some(&b) = bytes.get(i) {
        match b {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3).and_then(|pair| {
                    std::str::from_utf8(pair)
                        .ok()
                        .and_then(|h| u8::from_str_radix(h, 16).ok())
                });
                match hex {
                    Some(decoded) => {
                        out.push(decoded);
                        i += 3;
                    }
                    None => {
                        out.push(b);
                        i += 1;
                    }
                }
            }
            b'+' if plus_as_space => {
                out.push(b' ');
                i += 1;
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A response ready to serialize. Bodies are JSON except for the binary
/// WAL images the replication endpoint serves.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers beyond the always-present `Content-Type`,
    /// `Content-Length`, and `Connection: close`.
    pub extra_headers: Vec<(&'static str, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the standard reason phrase for `status`.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status,
            reason: reason(status),
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A binary response (`application/octet-stream`) — the `/wal`
    /// replication endpoint's WAL-image payload.
    pub fn binary(status: u16, body: Vec<u8>) -> Self {
        Response {
            status,
            reason: reason(status),
            content_type: "application/octet-stream",
            extra_headers: Vec::new(),
            body,
        }
    }

    /// A JSON error response with an `{"error": ...}` body.
    pub fn error(status: u16, message: &str) -> Self {
        Response::json(
            status,
            format!("{{\"error\":{}}}", super::render::json_string(message)),
        )
    }

    /// Add a header.
    pub fn with_header(mut self, name: &'static str, value: String) -> Self {
        self.extra_headers.push((name, value));
        self
    }

    /// Serialize onto `w`.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.extra_headers {
            write!(w, "{name}: {value}\r\n")?;
        }
        w.write_all(b"\r\n")?;
        w.write_all(&self.body)?;
        w.flush()
    }
}

/// The standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        410 => "Gone",
        413 => "Content Too Large",
        414 => "URI Too Long",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// A minimal blocking HTTP client for node-to-node calls (the follower's
/// WAL pulls, the coordinator's scatter-gather fan-out). Sends
/// `Connection: close` and reads the peer's response to EOF, so no
/// keep-alive state is ever shared between requests. Returns the status
/// code and the raw body bytes. The two halves, [`client_send`] and
/// [`client_receive`], let a caller put several requests on the wire
/// before it reads any answer.
pub fn client_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: std::time::Duration,
) -> io::Result<(u16, Vec<u8>)> {
    client_receive(client_send(addr, method, path, body, timeout)?)
}

/// Connect to `addr` and send one request — head and body in a single
/// write, with Nagle off. The returned stream carries the response.
pub fn client_send(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: std::time::Duration,
) -> io::Result<std::net::TcpStream> {
    use std::net::{TcpStream, ToSocketAddrs};

    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable address"))?;
    let mut stream = TcpStream::connect_timeout(&sock, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let mut message = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    Ok(stream)
}

/// Read the response to a request sent with [`client_send`] to EOF:
/// the status code and the raw body bytes.
pub fn client_receive(mut stream: std::net::TcpStream) -> io::Result<(u16, Vec<u8>)> {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "response has no header end"))?;
    let head = std::str::from_utf8(&raw[..header_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response head is not UTF-8"))?;
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;
    Ok((status, raw[header_end + 4..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        read_request(&mut BufReader::new(raw), &Limits::default())
    }

    #[test]
    fn parses_get_with_query() {
        let req = parse(b"GET /search?q=rust+xml&k=5 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/search");
        assert_eq!(req.query_param("q"), Some("rust xml"));
        assert_eq!(req.query_param("k"), Some("5"));
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(b"POST /query HTTP/1.1\r\nContent-Length: 9\r\n\r\nrust\nxml\n").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"rust\nxml\n");
    }

    #[test]
    fn percent_decoding() {
        let req = parse(b"GET /search?q=a%20b%2Bc&x=%zz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_param("q"), Some("a b+c"));
        // Invalid escape passes through.
        assert_eq!(req.query_param("x"), Some("%zz"));
    }

    #[test]
    fn malformed_request_line_is_400() {
        let err = parse(b"NONSENSE\r\n\r\n").unwrap_err();
        assert_eq!(err.status().0, 400);
        let err = parse(b"GET /x SMTP/1.0\r\n\r\n").unwrap_err();
        assert_eq!(err.status().0, 400);
        let err = parse(b"GET /x HTTP/1.1 extra\r\n\r\n").unwrap_err();
        assert_eq!(err.status().0, 400);
    }

    #[test]
    fn oversized_request_line_is_414() {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_REQUEST_LINE + 10));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let err = parse(&raw).unwrap_err();
        assert!(matches!(err, ParseError::RequestLineTooLong), "{err}");
        assert_eq!(err.status().0, 414);
    }

    #[test]
    fn oversized_headers_are_431() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..2000 {
            raw.extend_from_slice(format!("X-Filler-{i}: {}\r\n", "v".repeat(64)).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        let err = parse(&raw).unwrap_err();
        assert_eq!(err.status().0, 431);
    }

    #[test]
    fn oversized_body_is_413_before_reading() {
        // The body is never allocated or read: no body bytes follow, yet
        // the declared length alone trips the cap.
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n";
        let err = parse(raw).unwrap_err();
        assert!(matches!(err, ParseError::BodyTooLarge { .. }), "{err}");
        assert_eq!(err.status().0, 413);
    }

    #[test]
    fn bad_content_length_is_400() {
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n").unwrap_err();
        assert!(matches!(err, ParseError::BadContentLength(_)), "{err}");
        assert_eq!(err.status().0, 400);
    }

    #[test]
    fn chunked_encoding_is_501() {
        let err = parse(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(err.status().0, 501);
    }

    #[test]
    fn truncated_request_is_connection_closed() {
        let err = parse(b"GET /x HTT").unwrap_err();
        assert!(matches!(err, ParseError::ConnectionClosed), "{err}");
        let err = parse(b"").unwrap_err();
        assert!(matches!(err, ParseError::ConnectionClosed), "{err}");
    }

    /// The exact bytes `client_request` puts on the wire for one request,
    /// captured by a loopback listener that then answers `200 ok`.
    fn sent_bytes(method: &str, path: &str, body: &[u8]) -> (String, Vec<u8>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let body_len = body.len();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut raw = Vec::new();
            let mut chunk = [0u8; 4096];
            loop {
                let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n");
                if head_end.is_some_and(|end| raw.len() >= end + 4 + body_len) {
                    break;
                }
                match stream.read(&mut chunk).unwrap() {
                    0 => break,
                    n => raw.extend_from_slice(&chunk[..n]),
                }
            }
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok")
                .unwrap();
            raw
        });
        let answer =
            client_request(&addr, method, path, body, std::time::Duration::from_secs(5)).unwrap();
        assert_eq!(answer, (200, b"ok".to_vec()));
        (addr, peer.join().unwrap())
    }

    #[test]
    fn client_request_wire_format() {
        let (addr, raw) = sent_bytes("GET", "/cluster/search?q=a%20b&k=10", b"");
        let expected = format!(
            "GET /cluster/search?q=a%20b&k=10 HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        );
        assert_eq!(String::from_utf8(raw).unwrap(), expected);

        let (addr, raw) = sent_bytes("POST", "/documents?name=d.xml", b"<d><p>x</p></d>");
        let expected = format!(
            "POST /documents?name=d.xml HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 15\r\nConnection: close\r\n\r\n<d><p>x</p></d>"
        );
        assert_eq!(String::from_utf8(raw).unwrap(), expected);
    }

    #[test]
    fn response_serialization() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}".into())
            .with_header("Retry-After", "1".into())
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"ok\":true}"), "{text}");
    }
}
