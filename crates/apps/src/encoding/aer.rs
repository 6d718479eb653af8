//! Address-event representation (AER): the standard wire format for
//! neuromorphic spike streams.
//!
//! An AER stream is a tick-ordered sequence of `(tick, port)` events. The
//! binary layout here is a compact little header plus delta-encoded
//! events, suitable for logging chip output, replaying recorded stimuli,
//! and exchanging spike data between tools:
//!
//! ```text
//! magic  "AER1"          4 bytes
//! count  u32             number of events
//! event  (delta: u32, port: u32) × count   tick delta from previous event
//! ```
//!
//! ```
//! use brainsim_apps::encoding::aer::{self, AerEvent};
//!
//! let events = vec![AerEvent { tick: 3, port: 9 }, AerEvent { tick: 7, port: 1 }];
//! let bytes = aer::encode(&events).unwrap();
//! assert_eq!(aer::decode(&bytes).unwrap(), events);
//! ```

use std::fmt;

/// One address event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AerEvent {
    /// Global tick of the event.
    pub tick: u64,
    /// Port (address) that spiked.
    pub port: u32,
}

/// Errors from AER decoding or stream validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AerError {
    /// The magic header was missing or wrong.
    BadMagic,
    /// The buffer ended before `count` events were read.
    Truncated,
    /// Events were not in non-decreasing tick order at encode time.
    NotSorted,
}

impl fmt::Display for AerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AerError::BadMagic => write!(f, "missing AER1 magic header"),
            AerError::Truncated => write!(f, "truncated AER stream"),
            AerError::NotSorted => write!(f, "events not in tick order"),
        }
    }
}

impl std::error::Error for AerError {}

const MAGIC: &[u8; 4] = b"AER1";

/// Encodes a tick-ordered event stream (all integers big-endian).
///
/// # Errors
///
/// Returns [`AerError::NotSorted`] if ticks ever decrease.
pub fn encode(events: &[AerEvent]) -> Result<Vec<u8>, AerError> {
    let mut out = Vec::with_capacity(8 + events.len() * 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(events.len() as u32).to_be_bytes());
    let mut last = 0u64;
    for event in events {
        if event.tick < last {
            return Err(AerError::NotSorted);
        }
        out.extend_from_slice(&((event.tick - last) as u32).to_be_bytes());
        out.extend_from_slice(&event.port.to_be_bytes());
        last = event.tick;
    }
    Ok(out)
}

/// Decodes an AER stream from the front of `bytes`; anything after the
/// `count` events the header announces is ignored.
///
/// # Errors
///
/// See [`AerError`]. A `count` the remaining bytes cannot hold is
/// [`AerError::Truncated`], decided before anything is allocated.
pub fn decode(bytes: &[u8]) -> Result<Vec<AerEvent>, AerError> {
    if bytes.len() < 8 {
        return Err(AerError::Truncated);
    }
    let (header, body) = bytes.split_at(8);
    if header[..4] != MAGIC[..] {
        return Err(AerError::BadMagic);
    }
    let count = be_u32(&header[4..]) as usize;
    if body.len() / 8 < count {
        return Err(AerError::Truncated);
    }
    let mut tick = 0u64;
    Ok(body
        .chunks_exact(8)
        .take(count)
        .map(|event| {
            tick += u64::from(be_u32(&event[..4]));
            let port = be_u32(&event[4..]);
            AerEvent { tick, port }
        })
        .collect())
}

fn be_u32(bytes: &[u8]) -> u32 {
    u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])
}

/// Converts a per-tick raster (`raster[t][p]`) into an event stream.
pub fn from_raster(raster: &[Vec<bool>]) -> Vec<AerEvent> {
    let mut events = Vec::new();
    for (t, row) in raster.iter().enumerate() {
        for (p, &spiked) in row.iter().enumerate() {
            if spiked {
                events.push(AerEvent {
                    tick: t as u64,
                    port: p as u32,
                });
            }
        }
    }
    events
}

/// Converts an event stream back into a raster of `ticks × ports`; events
/// outside the window are ignored.
pub fn to_raster(events: &[AerEvent], ticks: usize, ports: usize) -> Vec<Vec<bool>> {
    let mut raster = vec![vec![false; ports]; ticks];
    for event in events {
        if (event.tick as usize) < ticks && (event.port as usize) < ports {
            raster[event.tick as usize][event.port as usize] = true;
        }
    }
    raster
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<AerEvent> {
        vec![
            AerEvent { tick: 0, port: 3 },
            AerEvent { tick: 0, port: 7 },
            AerEvent { tick: 2, port: 1 },
            AerEvent {
                tick: 100_000,
                port: 0,
            },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        let events = sample();
        let bytes = encode(&events).unwrap();
        assert_eq!(decode(&bytes).unwrap(), events);
    }

    /// The stream layout is the contract: bytes computed with the parent
    /// commit's `bytes`-based encoder.
    #[test]
    fn wire_format_golden_vector() {
        let events = vec![
            AerEvent { tick: 3, port: 9 },
            AerEvent {
                tick: 3,
                port: 0x0102_0304,
            },
            AerEvent {
                tick: 100_000,
                port: u32::MAX,
            },
        ];
        #[rustfmt::skip]
        let wire = [
            0x41, 0x45, 0x52, 0x31, 0x00, 0x00, 0x00, 0x03, // "AER1", count 3
            0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x09, // +3, port 9
            0x00, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, 0x04, // +0, port 0x01020304
            0x00, 0x01, 0x86, 0x9d, 0xff, 0xff, 0xff, 0xff, // +99_997, port MAX
        ];
        assert_eq!(encode(&events).unwrap(), wire);
        assert_eq!(decode(&wire).unwrap(), events);
    }

    #[test]
    fn empty_stream_round_trips() {
        let bytes = encode(&[]).unwrap();
        assert_eq!(bytes.len(), 8);
        assert_eq!(decode(&bytes).unwrap(), Vec::new());
    }

    #[test]
    fn unsorted_events_rejected() {
        let events = vec![AerEvent { tick: 5, port: 0 }, AerEvent { tick: 3, port: 0 }];
        assert_eq!(encode(&events), Err(AerError::NotSorted));
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(b"NOPE\0\0\0\0"), Err(AerError::BadMagic));
    }

    #[test]
    fn truncated_stream_rejected() {
        let bytes = encode(&sample()).unwrap();
        assert_eq!(decode(&bytes[..bytes.len() - 3]), Err(AerError::Truncated));
        // A header announcing more events than the payload holds is
        // refused before the count sizes an allocation: the largest count
        // on a bare header, and a count one past a whole payload.
        assert_eq!(decode(b"AER1\xff\xff\xff\xff"), Err(AerError::Truncated));
        let mut one_more = bytes.clone();
        one_more[4..8].copy_from_slice(&5u32.to_be_bytes());
        assert_eq!(decode(&one_more), Err(AerError::Truncated));
    }

    #[test]
    fn raster_round_trip() {
        let raster = vec![
            vec![true, false, true],
            vec![false, false, false],
            vec![false, true, false],
        ];
        let events = from_raster(&raster);
        assert_eq!(events.len(), 3);
        assert_eq!(to_raster(&events, 3, 3), raster);
    }

    #[test]
    fn to_raster_ignores_out_of_window_events() {
        let events = vec![AerEvent { tick: 99, port: 99 }];
        let raster = to_raster(&events, 2, 2);
        assert!(raster.iter().flatten().all(|&s| !s));
    }
}
