//! The load generator's HTTP/1.1 client: one keep-alive connection,
//! blocking reads, `Content-Length` framing, and a reconnect just under
//! the gateway's per-connection request cap.

use crate::models::Upload;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Requests sent on one connection before the client opens a new one;
/// the gateway closes a connection after 1024.
pub const RECONNECT_EVERY: usize = 1000;
const IO_TIMEOUT: Duration = Duration::from_secs(10);
const READ_CHUNK: usize = 16 * 1024;

/// A parsed response; the body stays in the connection's buffer until
/// the next request (see [`Conn::body`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    pub status: u16,
    /// `x-model-generation`, when the response carries one.
    pub generation: Option<u64>,
    /// The server announced `connection: close`.
    close: bool,
    body_start: usize,
    body_len: usize,
}

/// When each phase of one round trip ended.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    pub sent: Instant,
    pub written: Instant,
    pub first_byte: Instant,
    pub done: Instant,
}

pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    buf: Vec<u8>,
    /// Requests sent on the current stream.
    sent_on_stream: usize,
    /// The server announced `connection: close` (or the stream failed).
    stale: bool,
    /// Connections opened after the first.
    pub reconnects: u64,
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    Ok(stream)
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        Ok(Conn {
            addr,
            stream: connect(addr)?,
            buf: Vec::with_capacity(READ_CHUNK),
            sent_on_stream: 0,
            stale: false,
            reconnects: 0,
        })
    }

    /// Opens a fresh connection when the current one is used up. Kept
    /// apart from [`round_trip`](Self::round_trip) so callers can leave
    /// it outside a request's timed span.
    pub fn refresh(&mut self) -> io::Result<()> {
        if self.stale || self.sent_on_stream >= RECONNECT_EVERY {
            self.stream = connect(self.addr)?;
            self.sent_on_stream = 0;
            self.stale = false;
            self.reconnects += 1;
        }
        Ok(())
    }

    /// Sends `request` (a complete, framed HTTP request) and reads one
    /// response. Any error leaves the connection marked for reconnect.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<(Reply, Timing)> {
        self.refresh()?;
        self.sent_on_stream += 1;
        let result = self.exchange(request);
        self.stale = !matches!(&result, Ok((reply, _)) if !reply.close);
        result
    }

    /// The body of the reply the last `round_trip` returned.
    pub fn body(&self, reply: &Reply) -> &[u8] {
        &self.buf[reply.body_start..reply.body_start + reply.body_len]
    }

    fn exchange(&mut self, request: &[u8]) -> io::Result<(Reply, Timing)> {
        let sent = Instant::now();
        self.stream.write_all(request)?;
        let written = Instant::now();
        self.buf.clear();
        let mut first_byte = None;
        let mut reply: Option<Reply> = None;
        loop {
            if let Some(r) = reply {
                if self.buf.len() >= r.body_start + r.body_len {
                    let timing = Timing {
                        sent,
                        written,
                        first_byte: first_byte.unwrap_or(written),
                        done: Instant::now(),
                    };
                    return Ok((r, timing));
                }
            }
            let filled = self.buf.len();
            self.buf.resize(filled + READ_CHUNK, 0);
            let n = self.stream.read(&mut self.buf[filled..]);
            self.buf.truncate(filled + *n.as_ref().unwrap_or(&0));
            if n? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ));
            }
            first_byte.get_or_insert_with(Instant::now);
            if reply.is_none() {
                reply = parse_head(&self.buf)?;
            }
        }
    }
}

/// Parses the status line and framing headers once the blank line has
/// arrived; `Ok(None)` means "read more".
fn parse_head(buf: &[u8]) -> io::Result<Option<Reply>> {
    let Some(head_len) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = &buf[..head_len + 4];
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let status = head
        .get(9..12)
        .filter(|_| head.starts_with(b"HTTP/1.1 "))
        .and_then(ascii_number)
        .ok_or_else(|| bad("status line"))?;
    let body_len = header_value(head, "content-length")
        .and_then(ascii_number)
        .ok_or_else(|| bad("content-length"))?;
    Ok(Some(Reply {
        status: status as u16,
        generation: header_value(head, "x-model-generation").and_then(ascii_number),
        close: header_value(head, "connection").is_some_and(|v| v.eq_ignore_ascii_case(b"close")),
        body_start: head_len + 4,
        body_len: body_len as usize,
    }))
}

/// The trimmed value of header `name` (ASCII case-insensitive).
fn header_value<'a>(head: &'a [u8], name: &str) -> Option<&'a [u8]> {
    head.split(|&b| b == b'\n').skip(1).find_map(|line| {
        let colon = line.iter().position(|&b| b == b':')?;
        line[..colon]
            .eq_ignore_ascii_case(name.as_bytes())
            .then(|| line[colon + 1..].trim_ascii())
    })
}

fn ascii_number(digits: &[u8]) -> Option<u64> {
    std::str::from_utf8(digits).ok()?.parse().ok()
}

/// The head of a raw-f32 `POST /models/{model}/infer`; append the row
/// with [`push_row`].
pub fn infer_head(model: &str, features: usize) -> Vec<u8> {
    format!(
        "POST /models/{model}/infer HTTP/1.1\r\nhost: bench\r\n\
         content-type: application/octet-stream\r\ncontent-length: {}\r\n\r\n",
        features * 4
    )
    .into_bytes()
}

pub fn push_row(request: &mut Vec<u8>, row: &[f32]) {
    for v in row {
        request.extend_from_slice(&v.to_le_bytes());
    }
}

/// A complete `PUT /models/{model}` carrying `upload`.
pub fn put_request(model: &str, upload: &Upload) -> Vec<u8> {
    let mut head = format!(
        "PUT /models/{model} HTTP/1.1\r\nhost: bench\r\n\
         content-type: application/octet-stream\r\ncontent-length: {}\r\n",
        upload.bytes.len()
    );
    if upload.int16 {
        head.push_str("x-kernels: int16\r\n");
    }
    if upload.optimize {
        head.push_str("x-optimize: 1\r\n");
    }
    head.push_str("\r\n");
    let mut request = head.into_bytes();
    request.extend_from_slice(&upload.bytes);
    request
}

pub const HEALTH_REQUEST: &[u8] = b"GET /health HTTP/1.1\r\nhost: bench\r\n\r\n";

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// A scripted server: answers every request on every connection
    /// with `status`, splitting each response across two writes so the
    /// client's framing has to reassemble it, and counts connections.
    fn scripted_server(status: u16, requests: usize) -> (SocketAddr, Arc<AtomicUsize>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let connections = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&connections);
        std::thread::spawn(move || {
            let mut served = 0;
            while served < requests {
                let (mut stream, _) = listener.accept().unwrap();
                // Two small writes per response: without this the second
                // waits out the client's delayed ACK.
                stream.set_nodelay(true).unwrap();
                seen.fetch_add(1, Ordering::SeqCst);
                let mut byte = [0u8; 1];
                let mut tail = [0u8; 4];
                // One request ends at its blank line (the tests send
                // bodiless requests); EOF ends the connection.
                while stream.read(&mut byte).unwrap_or(0) == 1 {
                    tail.rotate_left(1);
                    tail[3] = byte[0];
                    if &tail == b"\r\n\r\n" {
                        served += 1;
                        let body = format!("reply-{served}");
                        let head = format!(
                            "HTTP/1.1 {status} X\r\nContent-Length: {}\r\nX-Model-Generation: 7\r\n\r\n",
                            body.len()
                        );
                        stream.write_all(head.as_bytes()).unwrap();
                        stream.flush().unwrap();
                        stream.write_all(body.as_bytes()).unwrap();
                    }
                }
            }
        });
        (addr, connections)
    }

    #[test]
    fn keeps_alive_and_reconnects_at_the_cap() {
        let total = RECONNECT_EVERY + 5;
        let (addr, connections) = scripted_server(200, total);
        let mut conn = Conn::open(addr).unwrap();
        for i in 1..=total {
            let (reply, timing) = conn.round_trip(HEALTH_REQUEST).unwrap();
            assert_eq!(reply.status, 200);
            assert_eq!(reply.generation, Some(7));
            assert_eq!(conn.body(&reply), format!("reply-{i}").as_bytes());
            assert!(timing.sent <= timing.written && timing.first_byte <= timing.done);
        }
        assert_eq!(
            conn.reconnects, 1,
            "one reconnect, at request {RECONNECT_EVERY}"
        );
        assert_eq!(connections.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn a_429_is_a_reply_the_caller_counts_as_failed() {
        let (addr, _) = scripted_server(429, 1);
        let mut conn = Conn::open(addr).unwrap();
        let (reply, _) = conn.round_trip(HEALTH_REQUEST).unwrap();
        assert_eq!(reply.status, 429);
        assert!(!crate::loadgen::Rec::from_reply(0, 0, 0, 0, &reply, 1).ok());
    }

    #[test]
    fn requests_are_framed_as_the_gateway_expects() {
        let mut request = infer_head("m", 2);
        push_row(&mut request, &[1.0, -2.0]);
        let text = String::from_utf8_lossy(&request);
        assert!(text.starts_with("POST /models/m/infer HTTP/1.1\r\n"));
        assert!(text.contains("content-length: 8\r\n\r\n"));
        assert_eq!(
            &request[request.len() - 8..request.len() - 4],
            &1.0f32.to_le_bytes()
        );
        let upload = Upload {
            bytes: vec![1, 2, 3],
            int16: true,
            optimize: true,
        };
        let put = put_request("m", &upload);
        let text = String::from_utf8_lossy(&put);
        assert!(text.contains("content-length: 3\r\nx-kernels: int16\r\nx-optimize: 1\r\n\r\n"));
        assert!(put.ends_with(&[1, 2, 3]));
    }
}
