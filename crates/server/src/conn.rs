//! Per-connection buffering for the reactor: newline framing over a byte
//! stream plus **in-order response slots**.
//!
//! The protocol answers requests in order per connection, but a
//! connection can have several queries in flight with the dispatcher
//! while later pings were answered instantly, so each parsed request
//! takes a sequence-numbered slot here and only the *completed in-order
//! prefix* ever reaches the write buffer.
//!
//! Everything in this module is transport-free (plain buffers, no
//! sockets), so the framing and ordering invariants are unit-testable
//! without a reactor.

use std::collections::VecDeque;

use gss_protocol::MAX_LINE_BYTES;

/// Buffered state of one reactor connection.
#[derive(Default)]
pub struct Conn {
    /// Bytes received but not yet forming a complete line.
    read_buf: Vec<u8>,
    /// Prefix of `read_buf` already searched for a newline (none there),
    /// so each byte is examined once however many reads deliver a line.
    scanned: usize,
    /// A line longer than [`MAX_LINE_BYTES`] arrived; input is discarded
    /// from then on.
    overflowed: bool,
    /// Serialized responses waiting for the socket.
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written to the socket.
    write_pos: usize,
    /// Sequence number the next request will take.
    next_seq: u64,
    /// Outstanding responses in request order; `None` = still evaluating.
    pending: VecDeque<(u64, Option<String>)>,
}

impl Conn {
    /// A fresh connection with empty buffers.
    pub fn new() -> Conn {
        Conn::default()
    }

    /// Appends freshly read bytes and returns every *complete* line they
    /// finish (without the trailing newline). Partial trailing data stays
    /// buffered for the next read — up to [`MAX_LINE_BYTES`]: a longer
    /// line, terminated or not, frees the buffer and turns
    /// [`Conn::overflowed`] on. The lines before it are still returned;
    /// everything after it is dropped.
    pub fn push_bytes(&mut self, data: &[u8]) -> Vec<String> {
        let mut lines = Vec::new();
        if self.overflowed {
            return lines;
        }
        self.read_buf.extend_from_slice(data);
        let mut start = 0; // where the line being framed begins
        let mut from = self.scanned; // first byte not yet searched
        while let Some(len) = self
            .read_buf
            .get(from..)
            .and_then(|rest| rest.iter().position(|&b| b == b'\n'))
        {
            let end = from + len;
            if end - start > MAX_LINE_BYTES {
                break;
            }
            // Invalid UTF-8 still yields a line; the protocol parser will
            // answer it with an error envelope like any other bad input.
            let line = self.read_buf.get(start..end).unwrap_or(&[]);
            lines.push(String::from_utf8_lossy(line).into_owned());
            start = end + 1;
            from = start;
        }
        if start > 0 {
            // A fresh buffer for the remainder: a long line's capacity is
            // released with it instead of staying with the connection.
            self.read_buf = self.read_buf.split_off(start);
        }
        // What is left is one (partial) line: either it still fits, or
        // the break above / an unterminated flood overran the limit.
        self.scanned = self.read_buf.len();
        if self.read_buf.len() > MAX_LINE_BYTES {
            self.read_buf = Vec::new();
            self.scanned = 0;
            self.overflowed = true;
        }
        lines
    }

    /// True once a request line exceeded [`MAX_LINE_BYTES`]: the owner
    /// answers [`gss_protocol::Response::line_too_long`] and closes.
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Allocates the response slot for the next request; responses are
    /// released strictly in allocation order.
    pub fn begin_request(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back((seq, None));
        seq
    }

    /// Fills the slot for `seq` with its serialized response. Unknown
    /// sequence numbers are ignored (a slot can only be unknown if the
    /// response was already released, which cannot happen for `None`
    /// slots — this keeps a late duplicate harmless).
    pub fn complete(&mut self, seq: u64, line: String) {
        if let Some(slot) = self.pending.iter_mut().find(|(s, _)| *s == seq) {
            if slot.1.is_none() {
                slot.1 = Some(line);
            }
        }
    }

    /// Moves the completed in-order prefix of the pending slots into the
    /// write buffer; returns how many responses were released.
    pub fn flush_ready(&mut self) -> usize {
        let mut released = 0;
        while matches!(self.pending.front(), Some((_, Some(_)))) {
            if let Some((_, Some(line))) = self.pending.pop_front() {
                self.write_buf.extend_from_slice(line.as_bytes());
                released += 1;
            }
        }
        if self.write_pos > 0 && self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
        released
    }

    /// Requests admitted but not yet released to the write buffer.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// The bytes still owed to the socket.
    pub fn unwritten(&self) -> &[u8] {
        self.write_buf.get(self.write_pos..).unwrap_or(&[])
    }

    /// Records `n` bytes as written to the socket.
    pub fn advance_written(&mut self, n: usize) {
        self.write_pos = (self.write_pos + n).min(self.write_buf.len());
        if self.write_pos == self.write_buf.len() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
    }

    /// True when nothing is owed: no outstanding slots, no unwritten
    /// bytes. Idle connections can be closed at drain.
    pub fn idle(&self) -> bool {
        self.pending.is_empty() && self.unwritten().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framing_reassembles_split_lines() {
        let mut c = Conn::new();
        assert!(c.push_bytes(b"{\"op\":\"pi").is_empty(), "no newline yet");
        assert_eq!(c.push_bytes(b"ng\"}\n"), vec!["{\"op\":\"ping\"}"]);
        assert_eq!(
            c.push_bytes(b"a\nb\nc"),
            vec!["a".to_owned(), "b".to_owned()]
        );
        assert_eq!(c.push_bytes(b"\n"), vec!["c"]);
    }

    #[test]
    fn an_oversized_line_overflows_instead_of_buffering() {
        // Unterminated: the flood is dropped the moment it passes the cap.
        let mut c = Conn::new();
        assert_eq!(c.push_bytes(b"ok\n"), vec!["ok"]);
        let flood = vec![b'x'; MAX_LINE_BYTES];
        assert!(c.push_bytes(&flood).is_empty());
        assert!(!c.overflowed(), "exactly the limit still fits");
        assert!(c.push_bytes(b"x").is_empty());
        assert!(c.overflowed());
        assert_eq!(c.read_buf.capacity(), 0, "the buffer is freed, not kept");
        assert!(
            c.push_bytes(b"late\n").is_empty(),
            "input after it is dropped"
        );

        // Terminated: lines ahead of the long one survive, it does not.
        let mut c = Conn::new();
        let mut chunk = b"first\n".to_vec();
        chunk.extend_from_slice(&vec![b'y'; MAX_LINE_BYTES + 1]);
        chunk.extend_from_slice(b"\nafter\n");
        assert_eq!(c.push_bytes(&chunk), vec!["first"]);
        assert!(c.overflowed());

        // A line of exactly the limit is a line.
        let mut c = Conn::new();
        let mut chunk = vec![b'z'; MAX_LINE_BYTES];
        chunk.push(b'\n');
        assert_eq!(c.push_bytes(&chunk).len(), 1);
        assert!(!c.overflowed());
    }

    #[test]
    fn a_line_arriving_in_pieces_frames_like_a_single_push() {
        // A near-limit line followed by a pipelined second one, fed the
        // way a reactor reads it: 16 KiB at a time.
        let mut stream = vec![b'a'; MAX_LINE_BYTES - 5];
        stream.extend_from_slice(b"\n{\"op\":\"ping\"}\ntail");
        let whole = Conn::new().push_bytes(&stream);
        assert_eq!(whole.len(), 2);

        let mut c = Conn::new();
        let mut pieces = Vec::new();
        for piece in stream.chunks(16 * 1024) {
            // The cursor keeps up with the buffer, so the next push only
            // searches the bytes it brings.
            pieces.extend(c.push_bytes(piece));
            assert_eq!(c.scanned, c.read_buf.len());
        }
        assert_eq!(pieces, whole);
        assert!(!c.overflowed());
        assert_eq!(c.push_bytes(b"\n"), vec!["tail"]);
    }

    #[test]
    fn responses_release_in_request_order() {
        let mut c = Conn::new();
        let s0 = c.begin_request();
        let s1 = c.begin_request();
        let s2 = c.begin_request();
        // The second response lands first: nothing can be released while
        // the first slot is open.
        c.complete(s1, "one\n".into());
        assert_eq!(c.flush_ready(), 0);
        assert!(c.unwritten().is_empty());
        c.complete(s0, "zero\n".into());
        assert_eq!(c.flush_ready(), 2, "prefix zero+one releases together");
        assert_eq!(c.unwritten(), b"zero\none\n");
        c.complete(s2, "two\n".into());
        assert_eq!(c.flush_ready(), 1);
        assert_eq!(c.unwritten(), b"zero\none\ntwo\n");
        assert_eq!(c.outstanding(), 0);
    }

    #[test]
    fn partial_writes_advance_and_reset() {
        let mut c = Conn::new();
        let s = c.begin_request();
        c.complete(s, "abcdef\n".into());
        c.flush_ready();
        c.advance_written(3);
        assert_eq!(c.unwritten(), b"def\n");
        assert!(!c.idle());
        c.advance_written(4);
        assert!(c.unwritten().is_empty());
        assert!(c.idle());
    }

    #[test]
    fn duplicate_and_unknown_completions_are_harmless() {
        let mut c = Conn::new();
        let s = c.begin_request();
        c.complete(s, "first\n".into());
        c.complete(s, "second\n".into());
        c.complete(999, "ghost\n".into());
        assert_eq!(c.flush_ready(), 1);
        assert_eq!(c.unwritten(), b"first\n");
    }
}
