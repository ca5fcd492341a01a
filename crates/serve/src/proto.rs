//! The `autoncs serve` wire protocol: length-prefixed binary frames.
//!
//! Hand-rolled and `std`-only (the hermetic rule holds). Every message —
//! request or response — travels as one *frame*:
//!
//! ```text
//! +----------------+---------------------+
//! | u32 BE length  | payload (length B)  |
//! +----------------+---------------------+
//! ```
//!
//! The payload's first byte is a tag selecting the message kind; the
//! body is a fixed sequence of big-endian integers and length-prefixed
//! byte strings (`f64` fields travel as `to_bits()` so responses are
//! byte-exact replays of the deterministic flow). Frames longer than
//! [`MAX_FRAME`] are rejected before any allocation, so a hostile
//! length prefix cannot balloon memory.
//!
//! Malformed input maps to [`ProtoError`], which the server converts
//! into a structured [`Response::Error`] frame (when the framing is
//! still intact) or a clean connection close (when it is not — a
//! truncated prefix or a mid-frame disconnect leaves nothing to sync
//! on). Decoding never panics on any byte sequence; the fuzz tests in
//! `tests/serve_integration.rs` drive seeded-random garbage at both
//! layers to pin exactly that.

use std::fmt;
use std::io::{Read, Write};

/// Protocol version, the first thing hashed into every cache key and
/// checked nowhere else yet (a future version bump can gate decoding).
pub const PROTOCOL_VERSION: u8 = 1;

/// Hard ceiling on one frame's payload, requests and responses alike
/// (16 MiB holds a ~500k-edge network with room to spare).
pub const MAX_FRAME: usize = 16 << 20;

/// Request tags.
const TAG_GEN: u8 = 1;
const TAG_MAP: u8 = 2;
const TAG_IMPLEMENT: u8 = 3;
const TAG_STATS: u8 = 4;
const TAG_CLEAR: u8 = 5;

/// Response tags (high bit set, so a request tag can never be confused
/// for a response tag when debugging captures).
const TAG_R_NET: u8 = 0x81;
const TAG_R_MAP: u8 = 0x82;
const TAG_R_IMPLEMENT: u8 = 0x83;
const TAG_R_STATS: u8 = 0x84;
const TAG_R_CLEARED: u8 = 0x85;
const TAG_R_ERROR: u8 = 0x7f;

/// Structured error codes carried by [`Response::Error`].
pub mod code {
    /// The request frame or body was malformed.
    pub const PROTOCOL: u16 = 1;
    /// The job ran and failed (clustering / physical design / generator).
    pub const JOB: u16 = 2;
    /// The server is shutting down; the job was not run.
    pub const SHUTDOWN: u16 = 3;
}

/// A malformed frame or message body.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtoError {
    /// The stream ended inside a frame (length prefix or payload).
    Truncated {
        /// What was being read when the stream ended.
        context: &'static str,
        /// Bytes expected.
        expected: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// A length prefix exceeded [`MAX_FRAME`].
    Oversize {
        /// The declared payload length.
        len: usize,
    },
    /// The payload's first byte is not a known message tag.
    BadTag {
        /// The unknown tag byte.
        tag: u8,
    },
    /// The body of a tagged message did not decode.
    BadBody {
        /// The message tag whose body failed.
        tag: u8,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated {
                context,
                expected,
                got,
            } => write!(
                f,
                "truncated frame: {context} needs {expected} bytes, got {got}"
            ),
            ProtoError::Oversize { len } => write!(
                f,
                "frame length {len} exceeds the {MAX_FRAME}-byte frame ceiling"
            ),
            ProtoError::BadTag { tag } => write!(f, "unknown message tag 0x{tag:02x}"),
            ProtoError::BadBody { tag, reason } => {
                write!(f, "malformed body for tag 0x{tag:02x}: {reason}")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

/// Synthetic-workload kinds the `gen` job accepts (mirrors the
/// `autoncs gen --kind` spellings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenKind {
    /// Uniform random connectivity at a target density.
    Random,
    /// Planted dense clusters plus background noise.
    Clusters,
    /// LDPC-like bipartite variable/check connectivity.
    Ldpc,
}

impl GenKind {
    fn to_wire(self) -> u8 {
        match self {
            GenKind::Random => 0,
            GenKind::Clusters => 1,
            GenKind::Ldpc => 2,
        }
    }

    fn from_wire(b: u8) -> Option<Self> {
        match b {
            0 => Some(GenKind::Random),
            1 => Some(GenKind::Clusters),
            2 => Some(GenKind::Ldpc),
            _ => None,
        }
    }

    /// The CLI spelling (`random` / `clusters` / `ldpc`).
    pub fn name(self) -> &'static str {
        match self {
            GenKind::Random => "random",
            GenKind::Clusters => "clusters",
            GenKind::Ldpc => "ldpc",
        }
    }
}

/// Parameters of a `gen` job.
#[derive(Debug, Clone, PartialEq)]
pub struct GenSpec {
    /// Workload family.
    pub kind: GenKind,
    /// Neuron count.
    pub neurons: u32,
    /// Planted cluster count (`Clusters` only; ignored otherwise).
    pub clusters: u32,
    /// Connection density (`Random`/`Clusters`; ignored for `Ldpc`).
    pub density: f64,
    /// Generator seed.
    pub seed: u64,
}

/// Parameters of a `map` or `implement` job: an edge-list network plus
/// the two flow knobs the CLI exposes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapSpec {
    /// The network, as edge-list text (the `ncs_net::io` format).
    pub net: Vec<u8>,
    /// ISC seed.
    pub seed: u64,
    /// Largest crossbar size of the size set 16, 20, …, `max_size`; one
    /// of the paper's sizes 16, 20, …, 64, or the job fails.
    pub max_size: u32,
}

/// One request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Generate a synthetic network; responds with [`Response::Net`].
    Gen(GenSpec),
    /// Run ISC clustering; responds with [`Response::Map`].
    Map(MapSpec),
    /// Run the full flow; responds with [`Response::Implement`].
    Implement(MapSpec),
    /// Dump scheduler/cache counters and the recent per-request stage
    /// tables; responds with [`Response::Stats`].
    Stats,
    /// Drop every cached entry; responds with [`Response::Cleared`].
    ClearCache,
}

/// One response frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Edge-list bytes of a generated network.
    Net(Vec<u8>),
    /// Canonical mapping encoding (see `job::encode_mapping`).
    Map(Vec<u8>),
    /// Canonical physical-design encoding (see `job::encode_design`).
    Implement(Vec<u8>),
    /// Stats dump as JSON text.
    Stats(Vec<u8>),
    /// Cache cleared; carries the number of entries removed.
    Cleared {
        /// Entries that were dropped.
        entries: u64,
    },
    /// Structured failure: a [`code`] constant plus a message.
    Error {
        /// One of the [`code`] constants.
        code: u16,
        /// Human-readable description.
        message: String,
    },
}

// ------------------------------------------------------------- encoding

/// Appends a `u32` big-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a `u64` big-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Appends a length-prefixed byte string (`u32` length).
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Appends an `f64` as its exact bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Sequential reader over one payload with structured errors.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
    tag: u8,
}

impl<'a> PayloadReader<'a> {
    /// Wraps a payload body (everything after the tag byte).
    pub fn new(tag: u8, body: &'a [u8]) -> Self {
        PayloadReader {
            buf: body,
            pos: 0,
            tag,
        }
    }

    fn bad(&self, reason: impl Into<String>) -> ProtoError {
        ProtoError::BadBody {
            tag: self.tag,
            reason: reason.into(),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ProtoError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(self.bad(format!(
                "{what}: needs {n} bytes at offset {}, body has {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, ProtoError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a big-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, ProtoError> {
        let s = self.take(4, what)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a big-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, ProtoError> {
        let s = self.take(8, what)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_be_bytes(b))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self, what: &str) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self, what: &str) -> Result<Vec<u8>, ProtoError> {
        let len = self.u32(what)? as usize;
        if len > MAX_FRAME {
            return Err(self.bad(format!(
                "{what}: declared length {len} exceeds frame ceiling"
            )));
        }
        Ok(self.take(len, what)?.to_vec())
    }

    /// Asserts the body is fully consumed (trailing garbage is an error,
    /// so a frame either decodes exactly or not at all).
    pub fn finish(&self) -> Result<(), ProtoError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(self.bad(format!(
                "{} trailing bytes after a complete body",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// Encodes a request into a frame payload (tag + body).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Gen(g) => {
            out.push(TAG_GEN);
            out.push(g.kind.to_wire());
            put_u32(&mut out, g.neurons);
            put_u32(&mut out, g.clusters);
            put_f64(&mut out, g.density);
            put_u64(&mut out, g.seed);
        }
        Request::Map(m) | Request::Implement(m) => {
            out.push(if matches!(req, Request::Map(_)) {
                TAG_MAP
            } else {
                TAG_IMPLEMENT
            });
            put_u64(&mut out, m.seed);
            put_u32(&mut out, m.max_size);
            put_bytes(&mut out, &m.net);
        }
        Request::Stats => out.push(TAG_STATS),
        Request::ClearCache => out.push(TAG_CLEAR),
    }
    out
}

/// Decodes a request payload.
///
/// # Errors
///
/// [`ProtoError::BadTag`] for unknown tags, [`ProtoError::BadBody`] for
/// short, overlong or structurally invalid bodies. Never panics.
pub fn decode_request(payload: &[u8]) -> Result<Request, ProtoError> {
    let (&tag, body) = payload.split_first().ok_or(ProtoError::BadTag { tag: 0 })?;
    let mut r = PayloadReader::new(tag, body);
    let req = match tag {
        TAG_GEN => {
            let kind_byte = r.u8("gen.kind")?;
            let kind = GenKind::from_wire(kind_byte).ok_or_else(|| ProtoError::BadBody {
                tag,
                reason: format!("unknown gen kind {kind_byte}"),
            })?;
            Request::Gen(GenSpec {
                kind,
                neurons: r.u32("gen.neurons")?,
                clusters: r.u32("gen.clusters")?,
                density: r.f64("gen.density")?,
                seed: r.u64("gen.seed")?,
            })
        }
        TAG_MAP | TAG_IMPLEMENT => {
            let spec = MapSpec {
                seed: r.u64("map.seed")?,
                max_size: r.u32("map.max_size")?,
                net: r.bytes("map.net")?,
            };
            if tag == TAG_MAP {
                Request::Map(spec)
            } else {
                Request::Implement(spec)
            }
        }
        TAG_STATS => Request::Stats,
        TAG_CLEAR => Request::ClearCache,
        _ => return Err(ProtoError::BadTag { tag }),
    };
    r.finish()?;
    Ok(req)
}

/// Encodes a response into a frame payload (tag + body).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Net(b) => {
            out.push(TAG_R_NET);
            put_bytes(&mut out, b);
        }
        Response::Map(b) => {
            out.push(TAG_R_MAP);
            put_bytes(&mut out, b);
        }
        Response::Implement(b) => {
            out.push(TAG_R_IMPLEMENT);
            put_bytes(&mut out, b);
        }
        Response::Stats(b) => {
            out.push(TAG_R_STATS);
            put_bytes(&mut out, b);
        }
        Response::Cleared { entries } => {
            out.push(TAG_R_CLEARED);
            put_u64(&mut out, *entries);
        }
        Response::Error { code, message } => {
            out.push(TAG_R_ERROR);
            out.extend_from_slice(&code.to_be_bytes());
            put_bytes(&mut out, message.as_bytes());
        }
    }
    out
}

/// Decodes a response payload.
///
/// # Errors
///
/// [`ProtoError`] on unknown tags or malformed bodies. Never panics.
pub fn decode_response(payload: &[u8]) -> Result<Response, ProtoError> {
    let (&tag, body) = payload.split_first().ok_or(ProtoError::BadTag { tag: 0 })?;
    let mut r = PayloadReader::new(tag, body);
    let resp = match tag {
        TAG_R_NET => Response::Net(r.bytes("net")?),
        TAG_R_MAP => Response::Map(r.bytes("map")?),
        TAG_R_IMPLEMENT => Response::Implement(r.bytes("implement")?),
        TAG_R_STATS => Response::Stats(r.bytes("stats")?),
        TAG_R_CLEARED => Response::Cleared {
            entries: r.u64("cleared.entries")?,
        },
        TAG_R_ERROR => {
            let s = r.take(2, "error.code")?;
            let code = u16::from_be_bytes([s[0], s[1]]);
            let raw = r.bytes("error.message")?;
            Response::Error {
                code,
                message: String::from_utf8_lossy(&raw).into_owned(),
            }
        }
        _ => return Err(ProtoError::BadTag { tag }),
    };
    r.finish()?;
    Ok(resp)
}

// -------------------------------------------------------------- framing

/// Writes one frame (length prefix + payload).
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Result of reading one frame from a blocking stream.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete payload.
    Payload(Vec<u8>),
    /// The peer closed the stream cleanly between frames.
    Closed,
}

/// Reads one length-prefixed frame from a blocking reader.
///
/// EOF *between* frames is a clean [`FrameRead::Closed`]; EOF *inside*
/// a frame (after ≥ 1 header byte, or mid-payload) is
/// [`ProtoError::Truncated`]. A declared length above [`MAX_FRAME`]
/// is rejected before allocating.
///
/// # Errors
///
/// `Err(Ok(proto_error))`-style nesting is avoided by flattening into
/// `Result<FrameRead, FrameError>`; see [`FrameError`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<FrameRead, FrameError> {
    let mut header = [0u8; 4];
    let got = read_up_to(r, &mut header).map_err(FrameError::Io)?;
    if got == 0 {
        return Ok(FrameRead::Closed);
    }
    if got < 4 {
        return Err(FrameError::Proto(ProtoError::Truncated {
            context: "length prefix",
            expected: 4,
            got,
        }));
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME {
        return Err(FrameError::Proto(ProtoError::Oversize { len }));
    }
    let mut payload = vec![0u8; len];
    let got = read_up_to(r, &mut payload).map_err(FrameError::Io)?;
    if got < len {
        return Err(FrameError::Proto(ProtoError::Truncated {
            context: "payload",
            expected: len,
            got,
        }));
    }
    Ok(FrameRead::Payload(payload))
}

/// Why a frame read stopped: a protocol violation or a transport error.
#[derive(Debug)]
pub enum FrameError {
    /// The bytes on the wire were malformed.
    Proto(ProtoError),
    /// The transport failed (reset, timeout, ...).
    Io(std::io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Proto(e) => write!(f, "{e}"),
            FrameError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Proto(e) => Some(e),
            FrameError::Io(e) => Some(e),
        }
    }
}

/// Fills `buf` as far as the stream allows, returning the byte count
/// actually read (short only at EOF). `Interrupted` reads are retried.
fn read_up_to<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let payload = encode_request(&req);
        assert_eq!(decode_request(&payload).unwrap(), req);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Gen(GenSpec {
            kind: GenKind::Clusters,
            neurons: 96,
            clusters: 4,
            density: 0.4,
            seed: 42,
        }));
        round_trip_request(Request::Map(MapSpec {
            net: b"neurons 3\n0 1\n".to_vec(),
            seed: 7,
            max_size: 32,
        }));
        round_trip_request(Request::Implement(MapSpec {
            net: b"neurons 2\n".to_vec(),
            seed: 0,
            max_size: 16,
        }));
        round_trip_request(Request::Stats);
        round_trip_request(Request::ClearCache);
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Net(b"neurons 4\n0 1\n".to_vec()),
            Response::Map(vec![1, 2, 3]),
            Response::Implement(vec![9; 40]),
            Response::Stats(b"{}".to_vec()),
            Response::Cleared { entries: 12 },
            Response::Error {
                code: code::JOB,
                message: "cluster failure".into(),
            },
        ] {
            let payload = encode_response(&resp);
            assert_eq!(decode_response(&payload).unwrap(), resp);
        }
    }

    #[test]
    fn unknown_tags_and_empty_payloads_are_structured_errors() {
        assert_eq!(
            decode_request(&[0xee]).unwrap_err(),
            ProtoError::BadTag { tag: 0xee }
        );
        assert_eq!(
            decode_request(&[]).unwrap_err(),
            ProtoError::BadTag { tag: 0 }
        );
        assert_eq!(
            decode_response(&[0x01]).unwrap_err(),
            ProtoError::BadTag { tag: 0x01 }
        );
    }

    #[test]
    fn short_and_trailing_bodies_are_bad_body() {
        // Gen body cut short.
        let mut p = encode_request(&Request::Gen(GenSpec {
            kind: GenKind::Random,
            neurons: 8,
            clusters: 0,
            density: 0.1,
            seed: 1,
        }));
        p.truncate(p.len() - 3);
        assert!(matches!(
            decode_request(&p).unwrap_err(),
            ProtoError::BadBody { tag: 1, .. }
        ));
        // Stats with trailing garbage.
        let mut p = encode_request(&Request::Stats);
        p.push(0xff);
        assert!(matches!(
            decode_request(&p).unwrap_err(),
            ProtoError::BadBody { tag: 4, .. }
        ));
        // Map whose inner byte-string length overruns the body.
        let mut p = Vec::new();
        p.push(2u8); // map tag
        put_u64(&mut p, 0);
        put_u32(&mut p, 16);
        put_u32(&mut p, 1000); // declared net length
        p.extend_from_slice(b"short");
        assert!(matches!(
            decode_request(&p).unwrap_err(),
            ProtoError::BadBody { tag: 2, .. }
        ));
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let payload = encode_request(&Request::Stats);
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut cursor = &wire[..];
        match read_frame(&mut cursor).unwrap() {
            FrameRead::Payload(p) => assert_eq!(p, payload),
            FrameRead::Closed => panic!("expected a payload"),
        }
        match read_frame(&mut cursor).unwrap() {
            FrameRead::Closed => {}
            FrameRead::Payload(_) => panic!("expected clean EOF"),
        }
    }

    #[test]
    fn truncated_prefix_and_payload_are_truncated_errors() {
        let mut cursor: &[u8] = &[0, 0]; // 2 of 4 header bytes
        match read_frame(&mut cursor).unwrap_err() {
            FrameError::Proto(ProtoError::Truncated {
                context,
                expected,
                got,
            }) => {
                assert_eq!(context, "length prefix");
                assert_eq!((expected, got), (4, 2));
            }
            other => panic!("unexpected {other:?}"),
        }
        let mut wire = Vec::new();
        wire.extend_from_slice(&10u32.to_be_bytes());
        wire.extend_from_slice(b"abc"); // 3 of 10 payload bytes
        let mut cursor = &wire[..];
        match read_frame(&mut cursor).unwrap_err() {
            FrameError::Proto(ProtoError::Truncated {
                context,
                expected,
                got,
            }) => {
                assert_eq!(context, "payload");
                assert_eq!((expected, got), (10, 3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn oversize_length_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_be_bytes());
        wire.extend_from_slice(&[0; 8]);
        let mut cursor = &wire[..];
        match read_frame(&mut cursor).unwrap_err() {
            FrameError::Proto(ProtoError::Oversize { len }) => {
                assert_eq!(len, u32::MAX as usize);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn error_display_texts_are_stable() {
        assert_eq!(
            ProtoError::BadTag { tag: 0xab }.to_string(),
            "unknown message tag 0xab"
        );
        assert!(ProtoError::Oversize { len: 99 }
            .to_string()
            .contains("exceeds the"));
    }

    /// Random bytes of length `0..max_len`.
    fn random_bytes(rng: &mut ncs_rng::Rng, max_len: usize) -> Vec<u8> {
        (0..rng.gen_range(0..max_len))
            .map(|_| (rng.next_u64() & 0xff) as u8)
            .collect()
    }

    fn random_request(rng: &mut ncs_rng::Rng) -> Request {
        let spec = |rng: &mut ncs_rng::Rng| MapSpec {
            net: random_bytes(rng, 24),
            seed: rng.next_u64(),
            max_size: rng.next_u64() as u32,
        };
        match rng.gen_range(0usize..5) {
            0 => Request::Gen(GenSpec {
                kind: [GenKind::Random, GenKind::Clusters, GenKind::Ldpc][rng.gen_range(0usize..3)],
                neurons: rng.next_u64() as u32,
                clusters: rng.next_u64() as u32,
                density: rng.gen_f64(),
                seed: rng.next_u64(),
            }),
            1 => Request::Map(spec(rng)),
            2 => Request::Implement(spec(rng)),
            3 => Request::Stats,
            _ => Request::ClearCache,
        }
    }

    fn random_response(rng: &mut ncs_rng::Rng) -> Response {
        let bytes = random_bytes(rng, 24);
        match rng.gen_range(0usize..6) {
            0 => Response::Net(bytes),
            1 => Response::Map(bytes),
            2 => Response::Implement(bytes),
            3 => Response::Stats(bytes),
            4 => Response::Cleared {
                entries: rng.next_u64(),
            },
            _ => Response::Error {
                code: rng.next_u64() as u16,
                message: bytes.iter().map(|&b| char::from(b % 95 + 32)).collect(),
            },
        }
    }

    #[test]
    fn decoders_fail_only_with_typed_errors_on_seeded_garbage() {
        // Random payloads, and valid encodings with one byte flipped or
        // the tail cut off, through both decoders: each returns a value
        // or a `ProtoError`, never panics. A request that decodes
        // re-encodes to the very bytes it came from.
        let mut rng = ncs_rng::Rng::seed_from_u64(0x5e7e);
        for case in 0..4000 {
            let request = random_request(&mut rng);
            let response = random_response(&mut rng);
            let valid = [encode_request(&request), encode_response(&response)];
            assert_eq!(decode_request(&valid[0]).unwrap(), request, "case {case}");
            assert_eq!(decode_response(&valid[1]).unwrap(), response, "case {case}");
            let mut payload = valid[case % 2].clone();
            match case % 3 {
                0 => payload = random_bytes(&mut rng, 48),
                1 => {
                    let at = rng.gen_range(0..payload.len());
                    payload[at] ^= rng.gen_range(1u64..256) as u8;
                }
                _ => payload.truncate(rng.gen_range(0..payload.len())),
            }
            if let Ok(req) = decode_request(&payload) {
                assert_eq!(encode_request(&req), payload, "case {case}");
            }
            if let Err(e) = decode_response(&payload) {
                assert!(!e.to_string().is_empty(), "case {case}");
            }
        }
    }
}
