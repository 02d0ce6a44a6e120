//! HTTP/1.1 wire handling: bounded request parsing and response writing
//! over any `Read`/`Write` pair.
//!
//! The parser accepts the subset of HTTP/1.1 a JSON API needs — request
//! line, `\r\n`-terminated headers, `Content-Length` bodies — and
//! enforces hard caps on the header section and body before buffering
//! them, so a misbehaving peer cannot make the server allocate without
//! bound. Pipelined requests work naturally: the reader consumes exactly
//! one request's bytes per call and leaves the rest buffered.

use std::io::{self, BufRead, Read, Write};

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the request target (query strings kept verbatim).
    pub path: String,
    /// Header pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// True when the client asked for the connection to close after this
    /// exchange (`Connection: close`, or an HTTP/1.0 request without
    /// `keep-alive`).
    pub close: bool,
}

impl Request {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// Clean end-of-stream before the first request byte.
    Eof,
    /// Transport error (including read timeouts).
    Io(io::Error),
    /// Syntactically invalid request → 400, close.
    Malformed(&'static str),
    /// Header section or body over the configured cap → 431/413, close.
    TooLarge(&'static str),
    /// Valid HTTP the server deliberately does not implement (e.g. any
    /// `Transfer-Encoding`) → 501, close. Closing matters: the framing of
    /// the unread body is unknown, so the connection cannot be reused.
    Unsupported(&'static str),
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Read one request from `reader`, enforcing `max_header_bytes` over the
/// request line + headers and `max_body_bytes` over the body.
pub fn read_request<R: BufRead>(
    reader: &mut R,
    max_header_bytes: usize,
    max_body_bytes: usize,
) -> Result<Request, ReadError> {
    let mut line = Vec::new();
    let mut header_bytes = 0usize;

    read_crlf_line(reader, &mut line, max_header_bytes, &mut header_bytes)?;
    if line.is_empty() {
        return Err(ReadError::Eof);
    }
    let request_line =
        std::str::from_utf8(&line).map_err(|_| ReadError::Malformed("non-utf8 request line"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(ReadError::Malformed("missing method"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .filter(|t| !t.is_empty())
        .ok_or(ReadError::Malformed("missing request target"))?;
    let version = parts
        .next()
        .ok_or(ReadError::Malformed("missing HTTP version"))?;
    if parts.next().is_some() {
        return Err(ReadError::Malformed("extra tokens in request line"));
    }
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Err(ReadError::Malformed("unsupported HTTP version")),
    };
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        let mut hline = Vec::new();
        read_crlf_line(reader, &mut hline, max_header_bytes, &mut header_bytes)?;
        if hline.is_empty() {
            break;
        }
        let text =
            std::str::from_utf8(&hline).map_err(|_| ReadError::Malformed("non-utf8 header"))?;
        let (name, value) = text
            .split_once(':')
            .ok_or(ReadError::Malformed("header without colon"))?;
        if name.is_empty() || name.contains(' ') {
            return Err(ReadError::Malformed("invalid header name"));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    // Request smuggling hardening: a front proxy and this parser must
    // never disagree about where the body ends. We implement no transfer
    // codings, so *any* Transfer-Encoding header is refused outright
    // rather than ignored (ignoring it is the classic TE.CL desync), and
    // duplicate Content-Length headers are only accepted when every copy
    // agrees (RFC 9112 §6.3).
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(ReadError::Unsupported("transfer-encoding not supported"));
    }
    let mut content_length = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        let parsed = v
            .parse::<usize>()
            .map_err(|_| ReadError::Malformed("invalid content-length"))?;
        if content_length.is_some_and(|prev| prev != parsed) {
            return Err(ReadError::Malformed("conflicting content-length"));
        }
        content_length = Some(parsed);
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body_bytes {
        // drain nothing: the connection is closed after an over-limit
        // request, so the unread body bytes die with it
        return Err(ReadError::TooLarge("body over limit"));
    }
    let mut body = vec![0u8; content_length];
    io::Read::read_exact(reader, &mut body)?;

    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let close = match connection.as_deref() {
        Some("close") => true,
        Some("keep-alive") => false,
        _ => !http11, // 1.1 defaults to keep-alive, 1.0 to close
    };

    Ok(Request {
        method,
        path,
        headers,
        body,
        close,
    })
}

/// Read one `\r\n`-terminated line (LF alone accepted), without the
/// terminator, charging its bytes against the shared header budget. The
/// read itself stops one byte past the budget, so a peer streaming header
/// bytes without a line end is cut off at the cap rather than buffered.
fn read_crlf_line<R: BufRead>(
    reader: &mut R,
    out: &mut Vec<u8>,
    max: usize,
    used: &mut usize,
) -> Result<(), ReadError> {
    let budget = (max.saturating_sub(*used) as u64).saturating_add(1);
    let n = reader.by_ref().take(budget).read_until(b'\n', out)?;
    if n == 0 {
        // caller distinguishes EOF-before-request from EOF-mid-request
        return Ok(());
    }
    *used += n;
    if *used > max {
        return Err(ReadError::TooLarge("header section over limit"));
    }
    if out.last() == Some(&b'\n') {
        out.pop();
        if out.last() == Some(&b'\r') {
            out.pop();
        }
    } else {
        return Err(ReadError::Malformed("truncated line"));
    }
    Ok(())
}

/// An HTTP status code with its canonical reason phrase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status(pub u16);

impl Status {
    /// Canonical reason phrase.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

/// One response ready for serialisation.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: Status,
    /// Extra headers beyond the always-present set.
    pub extra_headers: Vec<(&'static str, String)>,
    /// JSON body.
    pub body: String,
}

impl Response {
    /// A JSON response with no extra headers.
    pub fn json(status: u16, body: String) -> Self {
        Response {
            status: Status(status),
            extra_headers: Vec::new(),
            body,
        }
    }

    /// Attach a header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.extra_headers.push((name, value.into()));
        self
    }
}

/// Serialise `resp` onto `writer`. `keep_alive` decides the `Connection`
/// header; the caller must actually honour it.
pub fn write_response<W: Write>(
    writer: &mut W,
    resp: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    let mut out = String::with_capacity(resp.body.len() + 128);
    out.push_str("HTTP/1.1 ");
    out.push_str(&resp.status.0.to_string());
    out.push(' ');
    out.push_str(resp.status.reason());
    out.push_str("\r\ncontent-type: application/json\r\ncontent-length: ");
    out.push_str(&resp.body.len().to_string());
    out.push_str("\r\nconnection: ");
    out.push_str(if keep_alive { "keep-alive" } else { "close" });
    out.push_str("\r\n");
    for (name, value) in &resp.extra_headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(&resp.body);
    writer.write_all(out.as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(input: &str) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(input.as_bytes()), 8192, 1 << 20)
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse("POST /v1/serve-intents HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/serve-intents");
        assert_eq!(req.body, b"abcd");
        assert!(!req.close);
        assert_eq!(req.header("host"), Some("x"));
    }

    #[test]
    fn connection_semantics() {
        assert!(
            parse("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap()
                .close
        );
        assert!(parse("GET / HTTP/1.0\r\n\r\n").unwrap().close);
        assert!(
            !parse("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                .unwrap()
                .close
        );
        assert!(!parse("GET / HTTP/1.1\r\n\r\n").unwrap().close);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "GET\r\n\r\n",
            "GET / HTTP/2\r\n\r\n",
            "GET / HTTP/1.1 extra\r\n\r\n",
            "GET / HTTP/1.1\r\nNoColonHere\r\n\r\n",
            "GET / HTTP/1.1\r\nBad Name: x\r\n\r\n",
            "GET / HTTP/1.1\r\nContent-Length: two\r\n\r\n",
        ] {
            assert!(
                matches!(parse(bad), Err(ReadError::Malformed(_))),
                "{bad:?} should be malformed"
            );
        }
    }

    #[test]
    fn limits_are_enforced() {
        let huge_header = format!("GET / HTTP/1.1\r\nx-pad: {}\r\n\r\n", "a".repeat(10_000));
        assert!(matches!(
            parse(&huge_header),
            Err(ReadError::TooLarge("header section over limit"))
        ));
        let huge_body = "POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        assert!(matches!(
            parse(huge_body),
            Err(ReadError::TooLarge("body over limit"))
        ));
    }

    #[test]
    fn unterminated_header_line_stops_at_the_cap() {
        let max = 8192;
        let mut input = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
        input.resize(input.len() + (1 << 20), b'a');
        let mut cursor = io::Cursor::new(input);
        assert!(matches!(
            read_request(&mut cursor, max, 1 << 20),
            Err(ReadError::TooLarge("header section over limit"))
        ));
        assert!(cursor.position() <= max as u64 + 1);
    }

    #[test]
    fn transfer_encoding_is_refused() {
        // Any TE value — not just "chunked" — must be refused: ignoring
        // it would let a front proxy and this parser frame the body
        // differently (TE.CL request smuggling).
        for te in ["chunked", "identity", "gzip, chunked"] {
            let req = format!(
                "POST / HTTP/1.1\r\nTransfer-Encoding: {te}\r\nContent-Length: 4\r\n\r\nabcd"
            );
            assert!(
                matches!(parse(&req), Err(ReadError::Unsupported(_))),
                "TE {te:?} should be unsupported"
            );
        }
    }

    #[test]
    fn duplicate_content_length_must_agree() {
        // Conflicting copies are the CL.CL smuggling vector → reject.
        let conflicting = "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nabcde";
        assert!(matches!(
            parse(conflicting),
            Err(ReadError::Malformed("conflicting content-length"))
        ));
        // Identical copies are legal per RFC 9112 §6.3.
        let agreeing = "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        let req = parse(agreeing).unwrap();
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn eof_before_request_is_clean() {
        assert!(matches!(parse(""), Err(ReadError::Eof)));
    }

    #[test]
    fn pipelined_requests_parse_sequentially() {
        let two = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
        let mut r = BufReader::new(two.as_bytes());
        let first = read_request(&mut r, 8192, 1 << 20).unwrap();
        let second = read_request(&mut r, 8192, 1 << 20).unwrap();
        assert_eq!(first.path, "/a");
        assert_eq!(second.path, "/b");
        assert!(second.close);
    }

    #[test]
    fn response_bytes_are_exact() {
        let mut out = Vec::new();
        let resp = Response::json(503, "{\"error\":\"x\"}".into()).with_header("retry-after", "1");
        write_response(&mut out, &resp, false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("\r\nconnection: close\r\n"));
        assert!(text.contains("\r\nretry-after: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"x\"}"));
    }
}
