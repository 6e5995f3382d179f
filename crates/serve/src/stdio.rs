//! The stdio frontend: JSON-lines requests on stdin, JSON-lines
//! responses on stdout.
//!
//! Requests fan out onto the service's worker pool, so responses may
//! arrive out of request order — they carry the request `id` for
//! correlation. The loop ends on stdin EOF or a `shutdown` op; either
//! way the service drains every accepted request before returning.

use std::io::{self, BufRead};

use crate::protocol::MAX_LINE_BYTES;
use crate::service::{Disposition, Responder, Service};

/// What one [`read_line_bounded`] call found.
pub(crate) enum LineRead {
    /// A whole line, or the last unterminated one before EOF.
    Line,
    /// A line longer than [`MAX_LINE_BYTES`]; its rest is still unread.
    TooLong,
    /// End of input.
    Eof,
}

/// Appends the next request line of `reader`, newline included, to
/// `buf`, reading at most `MAX_LINE_BYTES` bytes of it plus the newline.
/// A read error (such as a socket timeout) keeps what was read in `buf`,
/// so calling again continues the line.
pub(crate) fn read_line_bounded(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
) -> io::Result<LineRead> {
    let room = (MAX_LINE_BYTES + 1).saturating_sub(buf.len()) as u64;
    let n = io::Read::take(reader, room).read_until(b'\n', buf)?;
    Ok(
        if buf.len() > MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
            LineRead::TooLong
        } else if n == 0 {
            LineRead::Eof
        } else {
            LineRead::Line
        },
    )
}

/// Reads request lines from `reader`, answering through `responder`,
/// until EOF or a `shutdown` op; then drains the service. A line longer
/// than [`MAX_LINE_BYTES`] is answered with an error and skipped to its
/// newline without being buffered; a line that is not UTF-8 is answered
/// with a `parse_error`.
pub fn serve_reader<R: BufRead>(service: &Service, mut reader: R, responder: &Responder) {
    let mut line = Vec::new();
    loop {
        line.clear();
        match read_line_bounded(&mut reader, &mut line) {
            Ok(LineRead::Line) => {
                let Ok(text) = std::str::from_utf8(&line) else {
                    responder.send(&service.reject_non_utf8_line());
                    continue;
                };
                if service.handle_line(text, responder) == Disposition::Shutdown {
                    break;
                }
            }
            Ok(LineRead::TooLong) => {
                responder.send(&service.reject_long_line());
                if reader.skip_until(b'\n').is_err() {
                    break;
                }
            }
            Ok(LineRead::Eof) | Err(_) => break,
        }
    }
    service.drain();
}

/// Serves stdin/stdout until EOF or a `shutdown` op, then drains.
pub fn run_stdio(service: &Service) {
    let responder = Responder::from_writer(std::io::stdout());
    serve_reader(service, std::io::stdin().lock(), &responder);
}
