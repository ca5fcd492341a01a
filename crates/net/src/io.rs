//! Plain-text serialization of connection matrices.
//!
//! The format is a line-oriented edge list, friendly to shell tooling and
//! easy to produce from any netlist or graph dump:
//!
//! ```text
//! # comment lines start with '#'
//! neurons 4
//! 0 1
//! 1 0
//! 2 3
//! ```
//!
//! # Examples
//!
//! ```
//! use ncs_net::{ConnectionMatrix, io};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let net = ConnectionMatrix::from_pairs(3, [(0, 1), (2, 0)])?;
//! let mut buf = Vec::new();
//! io::write_edge_list(&net, &mut buf)?;
//! let back = io::read_edge_list(&buf[..])?;
//! assert_eq!(net, back);
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};

use crate::{ConnectionMatrix, NetError};

/// Errors from parsing an edge-list file.
#[derive(Debug)]
#[non_exhaustive]
pub enum ParseNetError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A line could not be parsed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The header (`neurons <n>`) is missing or an edge precedes it.
    MissingHeader,
    /// A semantic error from the network substrate (e.g. out-of-range
    /// neuron index).
    Net(NetError),
}

impl fmt::Display for ParseNetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseNetError::Io(e) => write!(f, "i/o failure: {e}"),
            ParseNetError::Syntax { line, message } => {
                write!(f, "syntax error on line {line}: {message}")
            }
            ParseNetError::MissingHeader => {
                write!(f, "missing 'neurons <n>' header before the first edge")
            }
            ParseNetError::Net(e) => write!(f, "invalid network: {e}"),
        }
    }
}

impl Error for ParseNetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ParseNetError::Io(e) => Some(e),
            ParseNetError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ParseNetError {
    fn from(e: io::Error) -> Self {
        ParseNetError::Io(e)
    }
}

impl From<NetError> for ParseNetError {
    fn from(e: NetError) -> Self {
        ParseNetError::Net(e)
    }
}

/// Reads a connection matrix from edge-list text. A `&mut` reference can
/// be passed for readers the caller wants to keep.
///
/// # Errors
///
/// Returns [`ParseNetError`] for I/O failures, malformed lines, a missing
/// or repeated header, a network too large to allocate, or out-of-range
/// indices.
pub fn read_edge_list<R: Read>(reader: R) -> Result<ConnectionMatrix, ParseNetError> {
    let reader = BufReader::new(reader);
    let mut net: Option<ConnectionMatrix> = None;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line_no = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("neurons") {
            if net.is_some() {
                return Err(ParseNetError::Syntax {
                    line: line_no,
                    message: "repeated 'neurons' header".to_string(),
                });
            }
            let n: usize = rest.trim().parse().map_err(|e| ParseNetError::Syntax {
                line: line_no,
                message: format!("bad neuron count {:?}: {e}", rest.trim()),
            })?;
            net = Some(ConnectionMatrix::empty(n)?);
            continue;
        }
        let net = net.as_mut().ok_or(ParseNetError::MissingHeader)?;
        let mut parts = trimmed.split_whitespace();
        let parse = |tok: Option<&str>, line: usize| -> Result<usize, ParseNetError> {
            let tok = tok.ok_or(ParseNetError::Syntax {
                line,
                message: "expected 'from to'".to_string(),
            })?;
            tok.parse().map_err(|e| ParseNetError::Syntax {
                line,
                message: format!("bad index {tok:?}: {e}"),
            })
        };
        let from = parse(parts.next(), line_no)?;
        let to = parse(parts.next(), line_no)?;
        if parts.next().is_some() {
            return Err(ParseNetError::Syntax {
                line: line_no,
                message: "trailing tokens after 'from to'".to_string(),
            });
        }
        net.connect(from, to)?;
    }
    net.ok_or(ParseNetError::MissingHeader)
}

/// Writes a connection matrix as edge-list text. A `&mut` reference can
/// be passed for writers the caller wants to keep.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_edge_list<W: Write>(net: &ConnectionMatrix, mut writer: W) -> io::Result<()> {
    writeln!(
        writer,
        "# AutoNCS connection matrix: {} connections",
        net.connections()
    )?;
    writeln!(writer, "neurons {}", net.neurons())?;
    for (from, to) in net.iter() {
        writeln!(writer, "{from} {to}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let net = ConnectionMatrix::from_pairs(5, [(0, 4), (4, 0), (2, 2)]).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&net, &mut buf).unwrap();
        let back = read_edge_list(&buf[..]).unwrap();
        assert_eq!(net, back);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "# header\n\nneurons 3\n# edge below\n0 2\n";
        let net = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(net.neurons(), 3);
        assert!(net.is_connected(0, 2));
        assert_eq!(net.connections(), 1);
    }

    #[test]
    fn missing_header_is_reported() {
        assert!(matches!(
            read_edge_list("0 1\n".as_bytes()),
            Err(ParseNetError::MissingHeader)
        ));
        assert!(matches!(
            read_edge_list("".as_bytes()),
            Err(ParseNetError::MissingHeader)
        ));
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = read_edge_list("neurons 3\n0 x\n".as_bytes()).unwrap_err();
        match err {
            ParseNetError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected {other:?}"),
        }
        let err = read_edge_list("neurons 3\n0 1 2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ParseNetError::Syntax { line: 2, .. }));
        let err = read_edge_list("neurons zero\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ParseNetError::Syntax { line: 1, .. }));
        // A second header would otherwise replace the matrix and drop
        // every edge read before it.
        let err = read_edge_list("neurons 3\n0 1\n1 2\nneurons 5\n3 4\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ParseNetError::Syntax { line: 4, .. }));
    }

    #[test]
    fn unallocatable_neuron_count_is_a_net_error() {
        for n in ["4000000000", "18446744073709551615"] {
            let err = read_edge_list(format!("neurons {n}\n0 1\n").as_bytes()).unwrap_err();
            assert!(
                matches!(err, ParseNetError::Net(NetError::TooLarge { .. })),
                "neurons {n}: {err:?}"
            );
        }
    }

    #[test]
    fn out_of_range_edge_is_a_net_error() {
        let err = read_edge_list("neurons 2\n0 5\n".as_bytes()).unwrap_err();
        assert!(matches!(
            err,
            ParseNetError::Net(NetError::NeuronOutOfRange { .. })
        ));
    }

    #[test]
    fn error_messages_are_informative() {
        let err = read_edge_list("neurons 2\nbroken\n".as_bytes()).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");
    }
}
