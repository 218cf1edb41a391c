//! A minimal HTTP/1.1 client: one request per connection, as the
//! servers under test answer with `Connection: close`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(5);

/// Sends one raw request and reads the response to EOF. Returns the
/// status and body; `Err` on any transport failure or malformed reply.
fn exchange(addr: SocketAddr, request: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.write_all(request)?;
    let mut raw = Vec::with_capacity(1024);
    stream.read_to_end(&mut raw)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(bad)?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad())?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    Ok((status, raw[split + 4..].to_vec()))
}

/// `GET path`; status 0 on a transport error.
pub fn get(addr: SocketAddr, path: &str) -> (u16, Vec<u8>) {
    let req = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
    exchange(addr, req.as_bytes()).unwrap_or((0, Vec::new()))
}

/// `POST path` with a JSON body; status 0 on a transport error.
pub fn post_json(addr: SocketAddr, path: &str, body: &str) -> (u16, Vec<u8>) {
    let req = format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    exchange(addr, req.as_bytes()).unwrap_or((0, Vec::new()))
}
