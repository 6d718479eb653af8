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
//! A container is a **delta** when its first section is
//! [`SectionId::Base`]: it then holds only the state ticking changes and
//! names, by [`BaseRef`], the full checkpoint that holds the rest.
//!
//! Decoding is total: **no** input byte sequence can panic it. Every
//! malformation maps to a typed [`RestoreError`].

use crate::crc::crc32;
use crate::wire::{Reader, WireError, Writer};

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
    /// The [`BaseRef`] of a delta's base; always a delta's first section.
    Base = 8,
    /// Per-core dynamic images of a delta, row-major.
    Dynamics = 9,
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
            8 => Some(SectionId::Base),
            9 => Some(SectionId::Dynamics),
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
            SectionId::Base => "base",
            SectionId::Dynamics => "dynamics",
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
    /// A delta names a base that no checkpoint file beside it matches: the
    /// base is gone, or another checkpoint now holds its tick.
    UnknownBase {
        /// The tick of the missing base.
        tick: u64,
    },
    /// A delta's base is on disk but fails verification.
    CorruptBase {
        /// The tick of the damaged base.
        tick: u64,
    },
    /// A delta does not fit the base it names: another grid or core shape,
    /// a tick before the base's, or a base that is itself a delta.
    BaseMismatch {
        /// What disagrees.
        what: &'static str,
    },
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
            RestoreError::UnknownBase { tick } => {
                write!(f, "the base checkpoint at tick {tick} is missing")
            }
            RestoreError::CorruptBase { tick } => {
                write!(f, "the base checkpoint at tick {tick} is corrupt")
            }
            RestoreError::BaseMismatch { what } => {
                write!(f, "delta does not fit its base: {what}")
            }
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

/// Bytes of the container header: magic, version, section count.
const HEADER_LEN: usize = 12;

/// Bytes of a section frame: tag, len, crc.
const FRAME_LEN: usize = 16;

/// Encodes a container in one buffer and one pass — the only code that
/// frames sections. The header is written up front; each section reserves
/// its frame, has its payload written in place behind it, and then gets
/// its `len` and `crc` filled in, so no payload is ever copied.
#[derive(Debug)]
pub struct ContainerWriter {
    w: Writer,
    sections: u32,
}

impl ContainerWriter {
    /// A container with room for `capacity` bytes in total, header and
    /// frames included; it grows past that if it must.
    pub fn with_capacity(capacity: usize) -> ContainerWriter {
        let mut w = Writer::with_capacity(capacity);
        w.bytes(&MAGIC);
        w.u32(VERSION);
        w.u32(0); // the section count, filled in by `finish`
        ContainerWriter { w, sections: 0 }
    }

    /// Appends section `id`, whose payload is whatever `write` appends.
    pub fn section(&mut self, id: SectionId, write: impl FnOnce(&mut Writer)) {
        let frame = self.w.as_bytes().len();
        self.w.u32(id.tag());
        self.w.u64(0); // len
        self.w.u32(0); // crc
        write(&mut self.w);
        let payload = &self.w.as_bytes()[frame + FRAME_LEN..];
        let (len, crc) = (payload.len() as u64, crc32(payload));
        self.w.patch(frame + 4, &len.to_le_bytes());
        self.w.patch(frame + 12, &crc.to_le_bytes());
        self.sections += 1;
    }

    /// The finished container bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.w.patch(8, &self.sections.to_le_bytes());
        self.w.into_bytes()
    }
}

/// Frames `sections` (in the given order) into a container byte stream.
pub fn encode_container(sections: &[(SectionId, Vec<u8>)]) -> Vec<u8> {
    let total: usize = sections.iter().map(|(_, p)| FRAME_LEN + p.len()).sum();
    let mut c = ContainerWriter::with_capacity(HEADER_LEN + total);
    for (id, payload) in sections {
        c.section(*id, |w| w.bytes(payload));
    }
    c.finish()
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

/// The CRC-32 of a container's header and section frames. Each frame holds
/// its payload's CRC-32, so the digest moves with the content of every
/// section, yet it reads only the framing — a few hundred bytes, not a pass
/// over the whole file. Total over arbitrary bytes: whatever framing they
/// have is digested.
fn frame_digest(bytes: &[u8]) -> u32 {
    let mut r = Reader::new(bytes);
    let mut framing = r.bytes(HEADER_LEN).unwrap_or_default().to_vec();
    while let Ok(frame) = r.bytes(FRAME_LEN) {
        framing.extend_from_slice(frame);
        let len = Reader::new(&frame[4..]).usize();
        if len.and_then(|len| r.bytes(len)).is_err() {
            break;
        }
    }
    crc32(&framing)
}

/// The full checkpoint a delta was taken against: its tick, which names
/// its file, and a digest of its bytes, which tells it apart from any other
/// checkpoint later written at that tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaseRef {
    /// The tick the base was taken at.
    pub tick: u64,
    /// The CRC-32 of the base's header and section frames. Each frame
    /// holds its payload's CRC-32, so the digest covers every section's
    /// content while reading only the framing, not the whole base.
    pub digest: u32,
}

/// Bytes of a [`SectionId::Base`] payload: tick and digest.
const BASE_LEN: usize = 12;

/// Bytes from the start of a delta through its base reference.
pub(crate) const BASE_PREFIX_LEN: usize = HEADER_LEN + FRAME_LEN + BASE_LEN;

impl BaseRef {
    /// The reference a delta records for `bytes`, a full checkpoint taken
    /// at `tick`.
    pub fn of(tick: u64, bytes: &[u8]) -> BaseRef {
        BaseRef {
            tick,
            digest: frame_digest(bytes),
        }
    }

    /// Writes the [`SectionId::Base`] payload.
    pub fn write(&self, w: &mut Writer) {
        w.u64(self.tick);
        w.u32(self.digest);
    }

    fn read(payload: &[u8]) -> Result<BaseRef, WireError> {
        let mut r = Reader::new(payload);
        let base = BaseRef {
            tick: r.u64()?,
            digest: r.u32()?,
        };
        r.finish()?;
        Ok(base)
    }

    /// The base a decoded container names: `Some` exactly when its first
    /// section is [`SectionId::Base`], i.e. when it is a delta.
    pub fn from_sections(sections: &[(SectionId, &[u8])]) -> Result<Option<BaseRef>, RestoreError> {
        match sections.first() {
            Some(&(SectionId::Base, payload)) => BaseRef::read(payload)
                .map(Some)
                .map_err(|e| RestoreError::from_wire(SectionId::Base, e)),
            _ => Ok(None),
        }
    }

    /// The base named by a container that starts with `prefix` (its first
    /// [`BASE_PREFIX_LEN`] bytes), when that container is a delta — what
    /// retention reads to keep bases alive without reading whole files.
    pub(crate) fn from_prefix(prefix: &[u8]) -> Option<BaseRef> {
        let mut r = Reader::new(prefix);
        let framed = r.bytes(4).ok()? == MAGIC
            && r.u32().ok()? == VERSION
            && r.u32().ok()? > 0
            && r.u32().ok()? == SectionId::Base.tag()
            && r.usize().ok()? == BASE_LEN;
        let crc = r.u32().ok()?;
        let payload = r.bytes(BASE_LEN).ok()?;
        if !framed || crc32(payload) != crc {
            return None;
        }
        BaseRef::read(payload).ok()
    }
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
    fn every_byte_of_a_two_block_payload_is_covered_by_its_crc() {
        // 37 bytes: two whole 16-byte CRC blocks and a 5-byte tail.
        let payload: Vec<u8> = (0..37u8).map(|i| i.wrapping_mul(29)).collect();
        let bytes = encode_container(&[(SectionId::Cores, payload)]);
        let start = HEADER_LEN + FRAME_LEN;
        assert_eq!(bytes.len(), start + 37);
        for at in start..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0xFF;
            assert_eq!(
                decode_container(&flipped),
                Err(RestoreError::SectionCrc {
                    section: SectionId::Cores
                }),
                "flip at payload byte {}",
                at - start
            );
        }
    }

    #[test]
    fn a_frame_claiming_u64_max_bytes_is_truncated() {
        let mut bytes = encode_container(&[(SectionId::App, vec![1, 2, 3])]);
        bytes[HEADER_LEN + 4..HEADER_LEN + 12].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(decode_container(&bytes), Err(RestoreError::Truncated));
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
    fn a_base_ref_names_its_bytes_and_heads_its_delta() {
        let base = sample();
        let id = BaseRef::of(7, &base);
        // A payload that differs by one byte moves the digest, though only
        // the frames are read.
        let mut cores = vec![9; 100];
        cores[50] = 8;
        let other = encode_container(&[
            (SectionId::Config, vec![1, 2, 3]),
            (SectionId::Chip, vec![]),
            (SectionId::Cores, cores),
        ]);
        assert_ne!(BaseRef::of(7, &other), id);

        // A delta leads with the reference, readable from its prefix alone.
        let mut c = ContainerWriter::with_capacity(64);
        c.section(SectionId::Base, |w| id.write(w));
        c.section(SectionId::App, |w| w.bytes(&[1]));
        let delta = c.finish();
        let sections = decode_container(&delta).unwrap();
        assert_eq!(BaseRef::from_sections(&sections), Ok(Some(id)));
        assert_eq!(BaseRef::from_prefix(&delta[..BASE_PREFIX_LEN]), Some(id));
        assert_eq!(BaseRef::from_prefix(&base[..BASE_PREFIX_LEN]), None);
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
