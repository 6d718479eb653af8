//! The on-disk container: magic, version, and CRC-framed sections.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"BSNP"
//! 4       4     format version, u32 LE
//! 8       4     section count, u32 LE
//! 12      ...   sections, back to back:
//!                 tag   u32 LE   (a SectionId)
//!                 len   u64 LE   (payload bytes)
//!                 crc   u32 LE   (CRC-32/IEEE of the payload)
//!                 payload
//! ```
//!
//! Decoding is total: **no** input byte sequence can panic it. Every
//! malformation maps to a typed [`RestoreError`].

use crate::crc::crc32;
use crate::wire::{Reader, WireError};

/// The four magic bytes every snapshot starts with.
pub const MAGIC: [u8; 4] = *b"BSNP";

/// The current snapshot format version.
pub const VERSION: u32 = 1;

/// The typed sections a snapshot container may carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SectionId {
    /// Chip configuration (grid, core dimensions, seed, threads, tiling).
    Config = 1,
    /// Chip-level counters and routing fault accounting.
    Chip = 2,
    /// Per-core state images, row-major.
    Cores = 3,
    /// The retained fault plan, if one was applied.
    Faults = 4,
    /// Telemetry image: config, eviction count, cumulative run summary.
    Telemetry = 5,
    // Tag 6 is reserved: it named a standalone mesh-NoC section no
    // checkpoint ever carried, and now decodes as an unknown section.
    /// Opaque application payload (e.g. a harness's running checksum).
    App = 7,
}

impl SectionId {
    /// The wire tag.
    pub fn tag(self) -> u32 {
        self as u32
    }

    /// The section for a wire tag, if known.
    pub fn from_tag(tag: u32) -> Option<SectionId> {
        match tag {
            1 => Some(SectionId::Config),
            2 => Some(SectionId::Chip),
            3 => Some(SectionId::Cores),
            4 => Some(SectionId::Faults),
            5 => Some(SectionId::Telemetry),
            7 => Some(SectionId::App),
            _ => None,
        }
    }

    /// A stable lowercase name for messages.
    pub fn name(self) -> &'static str {
        match self {
            SectionId::Config => "config",
            SectionId::Chip => "chip",
            SectionId::Cores => "cores",
            SectionId::Faults => "faults",
            SectionId::Telemetry => "telemetry",
            SectionId::App => "app",
        }
    }
}

/// Why a snapshot could not be decoded or restored. Total over arbitrary
/// input bytes — decoding never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The first four bytes are not [`MAGIC`].
    BadMagic,
    /// The container was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the header.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The byte stream ended mid-header, mid-frame, or mid-payload.
    Truncated,
    /// A section's payload does not match its recorded CRC-32.
    SectionCrc {
        /// The damaged section.
        section: SectionId,
    },
    /// The same section appears twice.
    DuplicateSection {
        /// The repeated section.
        section: SectionId,
    },
    /// A required section is absent.
    MissingSection {
        /// The absent section.
        section: SectionId,
    },
    /// A section tag this build does not know.
    UnknownSection {
        /// The unrecognised wire tag.
        tag: u32,
    },
    /// Bytes remain after the last declared section — appended garbage or
    /// a corrupted section count.
    TrailingBytes,
    /// A section's payload decoded structurally but a field is invalid.
    Malformed {
        /// The section holding the bad field.
        section: SectionId,
        /// What was wrong.
        what: &'static str,
    },
    /// The snapshot decoded but describes a chip that cannot be rebuilt
    /// (inconsistent dimensions, invalid wiring, a core image that fails
    /// its own validation).
    Invalid(String),
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::BadMagic => write!(f, "not a snapshot: bad magic"),
            RestoreError::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found} (this build reads {expected})")
            }
            RestoreError::Truncated => write!(f, "snapshot truncated"),
            RestoreError::SectionCrc { section } => {
                write!(f, "section '{}' failed its CRC check", section.name())
            }
            RestoreError::DuplicateSection { section } => {
                write!(f, "section '{}' appears more than once", section.name())
            }
            RestoreError::MissingSection { section } => {
                write!(f, "required section '{}' is missing", section.name())
            }
            RestoreError::UnknownSection { tag } => write!(f, "unknown section tag {tag}"),
            RestoreError::TrailingBytes => {
                write!(f, "bytes remain after the last declared section")
            }
            RestoreError::Malformed { section, what } => {
                write!(f, "section '{}' is malformed: {what}", section.name())
            }
            RestoreError::Invalid(what) => write!(f, "snapshot is not restorable: {what}"),
        }
    }
}

impl std::error::Error for RestoreError {}

impl RestoreError {
    /// Attributes a wire-level decode failure to `section`.
    pub fn from_wire(section: SectionId, e: WireError) -> RestoreError {
        match e {
            WireError::Truncated => RestoreError::Truncated,
            WireError::Malformed(what) => RestoreError::Malformed { section, what },
        }
    }
}

/// Frames `sections` (in the given order) into a container byte stream.
pub fn encode_container(sections: &[(SectionId, Vec<u8>)]) -> Vec<u8> {
    let total: usize = sections.iter().map(|(_, p)| p.len() + 16).sum();
    let mut out = Vec::with_capacity(12 + total);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for (id, payload) in sections {
        out.extend_from_slice(&id.tag().to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// Parses a container into its sections (file order), verifying the magic,
/// the version, and every section CRC. Never panics.
pub fn decode_container(bytes: &[u8]) -> Result<Vec<(SectionId, &[u8])>, RestoreError> {
    let mut r = Reader::new(bytes);
    let magic = r.bytes(4).map_err(|_| RestoreError::Truncated)?;
    if magic != MAGIC {
        return Err(RestoreError::BadMagic);
    }
    let version = r.u32().map_err(|_| RestoreError::Truncated)?;
    if version != VERSION {
        return Err(RestoreError::VersionMismatch {
            found: version,
            expected: VERSION,
        });
    }
    let count = r.u32().map_err(|_| RestoreError::Truncated)?;
    let mut sections: Vec<(SectionId, &[u8])> = Vec::new();
    for _ in 0..count {
        let tag = r.u32().map_err(|_| RestoreError::Truncated)?;
        let len = r.usize().map_err(|_| RestoreError::Truncated)?;
        let crc = r.u32().map_err(|_| RestoreError::Truncated)?;
        let section = SectionId::from_tag(tag).ok_or(RestoreError::UnknownSection { tag })?;
        let payload = r.bytes(len).map_err(|_| RestoreError::Truncated)?;
        if crc32(payload) != crc {
            return Err(RestoreError::SectionCrc { section });
        }
        if sections.iter().any(|(id, _)| *id == section) {
            return Err(RestoreError::DuplicateSection { section });
        }
        sections.push((section, payload));
    }
    if r.remaining() > 0 {
        return Err(RestoreError::TrailingBytes);
    }
    Ok(sections)
}

/// Verifies container integrity — magic, version, framing, every section
/// CRC — without decoding any payload semantics. This is the check
/// [`crate::CheckpointPolicy::load_newest_verifying`] applies when falling
/// back past a corrupt latest snapshot.
pub fn verify(bytes: &[u8]) -> Result<(), RestoreError> {
    decode_container(bytes).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        encode_container(&[
            (SectionId::Config, vec![1, 2, 3]),
            (SectionId::Chip, vec![]),
            (SectionId::Cores, vec![9; 100]),
        ])
    }

    #[test]
    fn round_trip_preserves_order_and_payloads() {
        let bytes = sample();
        let sections = decode_container(&bytes).unwrap();
        assert_eq!(sections.len(), 3);
        assert_eq!(sections[0], (SectionId::Config, &[1u8, 2, 3][..]));
        assert_eq!(sections[1], (SectionId::Chip, &[][..]));
        assert_eq!(sections[2].1.len(), 100);
    }

    #[test]
    fn bad_magic() {
        let mut bytes = sample();
        bytes[0] = b'X';
        assert_eq!(decode_container(&bytes), Err(RestoreError::BadMagic));
    }

    #[test]
    fn version_mismatch() {
        let mut bytes = sample();
        bytes[4] = 0xFF;
        assert!(matches!(
            decode_container(&bytes),
            Err(RestoreError::VersionMismatch {
                expected: VERSION,
                ..
            })
        ));
    }

    #[test]
    fn truncation_anywhere_is_typed() {
        let bytes = sample();
        for cut in 0..bytes.len() {
            let err = decode_container(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, RestoreError::Truncated),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn payload_bit_flip_fails_the_section_crc() {
        let mut bytes = sample();
        let n = bytes.len();
        bytes[n - 1] ^= 0x40; // inside the cores payload
        assert_eq!(
            decode_container(&bytes),
            Err(RestoreError::SectionCrc {
                section: SectionId::Cores
            })
        );
    }

    #[test]
    fn unknown_and_duplicate_sections_are_rejected() {
        let bytes = encode_container(&[(SectionId::App, vec![1])]);
        // 99 was never assigned; 6 is the retired mesh-NoC section.
        for tag in [99u8, 6] {
            let mut unknown = bytes.clone();
            unknown[12] = tag; // overwrite the tag
            assert_eq!(
                decode_container(&unknown),
                Err(RestoreError::UnknownSection {
                    tag: u32::from(tag)
                })
            );
        }

        let twice = encode_container(&[(SectionId::App, vec![1]), (SectionId::App, vec![2])]);
        assert_eq!(
            decode_container(&twice),
            Err(RestoreError::DuplicateSection {
                section: SectionId::App
            })
        );
    }

    #[test]
    fn appended_garbage_is_rejected() {
        let mut bytes = sample();
        bytes.push(0xAA);
        assert_eq!(decode_container(&bytes), Err(RestoreError::TrailingBytes));
    }

    #[test]
    fn arbitrary_prefixes_never_panic() {
        // A fuzz-ish sweep: every prefix of a valid container, with every
        // byte of a short corrupt header, decodes to Ok or a typed error.
        let bytes = sample();
        for cut in 0..bytes.len() {
            let _ = decode_container(&bytes[..cut]);
        }
        for b in 0..=255u8 {
            let _ = decode_container(&[b; 7]);
            let _ = decode_container(&[b; 23]);
        }
    }
}
