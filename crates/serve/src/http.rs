//! Minimal HTTP/1.1 request reading and response writing.
//!
//! Only what a metrics endpoint needs: parse the request line and drain
//! the headers of a bodyless request, then write one `Connection: close`
//! response. Anything outside that envelope (bodies, chunked encoding,
//! keep-alive) is out of scope by design — scrapers send plain GETs.

use std::io::{self, Read, Write};

/// Hard cap on request head size; a scraper's GET fits in a fraction of
/// this, so anything larger is garbage or abuse.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A parsed request line. Headers are read off the wire (to leave the
/// stream positioned past the request) but not retained.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method, e.g. `GET`.
    pub method: String,
    /// The request target, e.g. `/metrics`.
    pub target: String,
}

/// Reads one request head (request line + headers, through the blank
/// line) and parses the request line.
///
/// Errors on malformed request lines, a head whose blank line does not
/// end within the first 8 KiB, or a connection that closes mid-head.
/// Bytes after the blank line are read past and ignored.
pub fn read_request(stream: &mut impl Read) -> io::Result<Request> {
    let mut head = [0u8; MAX_HEAD_BYTES];
    let mut len = 0;
    // Read what the socket holds, at most up to the cap, and look for the
    // blank line in the new bytes (and the three before them, in case it
    // straddles two reads).
    let end = loop {
        if len == MAX_HEAD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        let n = stream.read(&mut head[len..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-request",
            ));
        }
        let from = len.saturating_sub(3);
        len += n;
        if let Some(at) = head[from..len].windows(4).position(|w| w == b"\r\n\r\n") {
            break from + at + 4;
        }
    };
    let head = String::from_utf8_lossy(&head[..end]);
    let request_line = head.lines().next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    match (parts.next(), parts.next(), parts.next()) {
        (Some(method), Some(target), Some(version)) if version.starts_with("HTTP/1") => {
            Ok(Request {
                method: method.to_string(),
                target: target.to_string(),
            })
        }
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("malformed request line {request_line:?}"),
        )),
    }
}

/// Writes one complete `Connection: close` response: head and body go
/// out in one buffer through one `write_all`.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_plain_get() {
        let mut wire: &[u8] = b"GET /metrics HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\n";
        let req = read_request(&mut wire).expect("well-formed request parses");
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/metrics");
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        let mut wire: &[u8] = b"not http at all\r\n\r\n";
        assert!(read_request(&mut wire).is_err());
        let mut wire: &[u8] = b"GET /metrics HTTP/1.1\r\nHost:";
        let err = read_request(&mut wire).expect_err("truncated head errors");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn rejects_an_oversized_head() {
        let mut wire = b"GET / HTTP/1.1\r\n".to_vec();
        wire.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 1));
        let err = read_request(&mut wire.as_slice()).expect_err("oversized head errors");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A reader that hands out at most `step` bytes per `read`, as a
    /// client that writes its head in pieces does.
    struct Trickle<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    /// A GET whose blank line ends at byte `end`, padded by a header.
    fn head_ending_at(end: usize) -> Vec<u8> {
        let mut wire = b"GET /metrics HTTP/1.1\r\nX-Pad: ".to_vec();
        wire.resize(end - 4, b'a');
        wire.extend_from_slice(b"\r\n\r\n");
        wire
    }

    #[test]
    fn the_blank_line_must_end_within_the_cap_and_what_follows_is_ignored() {
        for step in [1, 3, 7, 512, MAX_HEAD_BYTES + 16] {
            let mut wire = head_ending_at(MAX_HEAD_BYTES);
            wire.extend_from_slice(b"POST /elsewhere HTTP/1.1\r\n\r\n");
            let req = read_request(&mut Trickle { data: &wire, step })
                .unwrap_or_else(|e| panic!("step {step}: a head ending at the cap parses: {e}"));
            assert_eq!(
                (req.method.as_str(), req.target.as_str()),
                ("GET", "/metrics")
            );

            let mut wire = head_ending_at(100);
            wire.extend(std::iter::repeat_n(b'z', 2 * MAX_HEAD_BYTES));
            let req = read_request(&mut Trickle { data: &wire, step })
                .unwrap_or_else(|e| panic!("step {step}: trailing bytes are ignored: {e}"));
            assert_eq!(req.target, "/metrics");

            let wire = head_ending_at(MAX_HEAD_BYTES + 1);
            let err = read_request(&mut Trickle { data: &wire, step })
                .expect_err("a blank line ending one byte past the cap errors");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "step {step}");
        }
    }

    #[test]
    fn a_response_is_one_write_of_head_and_body() {
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut out = Writes(Vec::new());
        write_response(&mut out, 404, "Not Found", "text/plain", "not found\n").expect("writes");
        assert_eq!(out.0.len(), 1, "one write call");
        assert_eq!(
            out.0[0],
            b"HTTP/1.1 404 Not Found\r\nContent-Type: text/plain\r\nContent-Length: 10\r\nConnection: close\r\n\r\nnot found\n"
        );
    }

    #[test]
    fn responses_carry_length_and_close() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "OK", "text/plain", "hello\n").expect("write to Vec");
        let text = String::from_utf8(out).expect("ascii response");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 6\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\nhello\n"), "{text}");
    }
}
