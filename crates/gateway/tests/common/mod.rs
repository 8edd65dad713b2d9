//! Shared helpers for the gateway integration tests: compiled-model
//! builders plus a tiny blocking HTTP client.

#![allow(dead_code)] // Each test binary uses a subset.

use rapidnn_core::{ReinterpretOptions, ReinterpretedNetwork};
use rapidnn_data::SyntheticSpec;
use rapidnn_nn::{Activation, ActivationLayer, Dense, Network};
use rapidnn_serve::CompiledModel;
use rapidnn_tensor::SeededRng;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub const FEATURES: usize = 6;
pub const CLASSES: usize = 3;

/// A small dense model; different seeds give identically-shaped models
/// with different weights (and therefore different outputs).
pub fn compiled_model(seed: u64) -> CompiledModel {
    CompiledModel::from_reinterpreted(&reinterpreted(seed)).unwrap()
}

fn reinterpreted(seed: u64) -> ReinterpretedNetwork {
    let mut rng = SeededRng::new(seed);
    let mut net = Network::new(FEATURES);
    net.push(Dense::new(FEATURES, 12, &mut rng));
    net.push(ActivationLayer::new(Activation::Sigmoid));
    net.push(Dense::new(12, CLASSES, &mut rng));
    let data = SyntheticSpec::new(FEATURES, CLASSES, 2.0)
        .generate(40, &mut rng)
        .unwrap();
    let options = ReinterpretOptions {
        weight_clusters: 8,
        input_clusters: 8,
        ..ReinterpretOptions::default()
    };
    ReinterpretedNetwork::build(&mut net, data.inputs(), &options, &mut rng).unwrap()
}

/// `compiled_model(seed)` padded with `extra` provably dead product-
/// table rows per dense table: semantically identical and strictly
/// larger on the wire, so it must serve `compiled_model(seed)`'s bits.
pub fn dead_padded_model(seed: u64, extra: usize) -> CompiledModel {
    let net = reinterpreted(seed);
    let program = rapidnn_analyze::Program::from_reinterpreted(&net);
    let padded = rapidnn_analyze::inject_dead_rows(&program, extra);
    CompiledModel::from_program(&padded).unwrap()
}

/// A model with a different input width — a hot-swap contract breaker.
pub fn wider_model(seed: u64) -> CompiledModel {
    let mut rng = SeededRng::new(seed);
    let features = FEATURES + 2;
    let mut net = Network::new(features);
    net.push(Dense::new(features, 8, &mut rng));
    net.push(ActivationLayer::new(Activation::Sigmoid));
    net.push(Dense::new(8, CLASSES, &mut rng));
    let data = SyntheticSpec::new(features, CLASSES, 2.0)
        .generate(40, &mut rng)
        .unwrap();
    let options = ReinterpretOptions {
        weight_clusters: 8,
        input_clusters: 8,
        ..ReinterpretOptions::default()
    };
    let model = ReinterpretedNetwork::build(&mut net, data.inputs(), &options, &mut rng).unwrap();
    CompiledModel::from_reinterpreted(&model).unwrap()
}

/// Corrupts a structurally valid artifact so it decodes but fails the
/// analyzer: overwrite `output_features` (second header u64 of the
/// payload) and repair the trailing FNV-1a checksum, exactly like the
/// `lint_artifact` demo does.
pub fn analyzer_rejected_bytes(model: &CompiledModel) -> Vec<u8> {
    let mut bytes = model.to_bytes();
    bytes[24..32].copy_from_slice(&9999u64.to_le_bytes());
    let end = bytes.len() - 8;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in &bytes[16..end] {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    bytes[end..].copy_from_slice(&hash.to_le_bytes());
    bytes
}

/// Minimal parsed HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl HttpResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn body_text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// One-shot request over a fresh connection (`Connection: close`).
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    write_request(&mut stream, method, path, content_type, body, false)?;
    read_response(&mut stream)
}

/// One-shot request carrying extra headers (e.g. `x-kernels`) over a
/// fresh connection (`Connection: close`).
pub fn request_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: test\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!(
        "content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    ));
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    read_response(&mut stream)
}

/// Writes one request on an open stream (keep-alive unless `close`).
pub fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: test\r\n");
    if let Some(ct) = content_type {
        head.push_str(&format!("content-type: {ct}\r\n"));
    }
    head.push_str(&format!("content-length: {}\r\n", body.len()));
    if !keep_alive {
        head.push_str("connection: close\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Reads one `Content-Length`-framed response off the stream.
pub fn read_response(stream: &mut TcpStream) -> std::io::Result<HttpResponse> {
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        let n = stream.read(&mut byte)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof before response head",
            ));
        }
        head.push(byte[0]);
        if head.ends_with(b"\r\n\r\n") {
            break;
        }
        assert!(head.len() < 64 * 1024, "unbounded response head");
    }
    let text = String::from_utf8(head).expect("response head is utf-8");
    let mut lines = text.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .map_or(0, |(_, v)| v.parse().expect("numeric content-length"));
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body)?;
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// Encodes a float slice as the gateway's little-endian wire format.
pub fn le_bytes(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes the gateway's little-endian wire format.
pub fn le_floats(bytes: &[u8]) -> Vec<f32> {
    assert!(bytes.len().is_multiple_of(4), "response not f32-aligned");
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}
