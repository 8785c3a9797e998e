// Byte codec for whole net::Packet frames, and the only encoding the
// protocol's messages have. The UDP conduit (runtime/real.h) sends these
// bytes; the simulator ships packets as shared C++ objects but prices each
// proto envelope at the length of its blob here (proto::Message::EncodedSize),
// so sim and real runtime agree on what an envelope costs.
//
// Frame layout mirrors wal::EncodeRecord: fixed32 CRC32C over the body, then
// the body — packet transport fields as varints (zigzag for signed values),
// piggybacked hints, then the primary payload and each coalesced rider as
// length-prefixed envelope blobs. An envelope blob is a kind byte (one per
// proto message type) and the causal trace id, followed by the message
// fields. The frame's one CRC covers every envelope in it. Decoding is
// defensive end to end: arbitrary bytes — truncations, forged counts, ids
// wider than their type, bad checksums, unknown kinds, trailing garbage —
// surface as Status::Corruption, never undefined behaviour, because a real
// socket can hand us anything.
#pragma once

#include <string>
#include <string_view>

#include "common/status.h"
#include "net/message.h"

namespace dvp::proto {

/// Serializes one envelope (kind byte + fields). Used for packet payloads and
/// riders; exposed for tests. Returns an empty string for envelope types the
/// codec does not know (nothing in the protocol sends such a payload).
std::string EncodeEnvelope(const net::Envelope& env);

/// Appends one envelope blob to *out — same bytes as EncodeEnvelope without
/// the temporary string (unknown envelope types append nothing).
void EncodeEnvelopeTo(const net::Envelope& env, std::string* out);

/// Decodes an envelope blob produced by EncodeEnvelope.
StatusOr<net::EnvelopePtr> DecodeEnvelope(std::string_view blob);

/// Serializes a whole packet: transport header, ack, hints, payload, riders.
std::string EncodePacket(const net::Packet& packet);

/// Appends a whole frame (fixed32 CRC + body) to *out, byte-for-byte equal to
/// EncodePacket. `scratch` is a caller-owned buffer reused for nested
/// envelope blobs; with warmed capacities in *out and *scratch the call
/// performs zero heap allocations — the transport fast path depends on that.
void EncodePacketTo(const net::Packet& packet, std::string* out,
                    std::string* scratch);

/// Broadcast fan-out helper: the frame layout is CRC | src | dst | rest, and
/// for a fan-out only `dst` (and hence the CRC) differs per leg. Encodes
/// `rest` once into *tail when *tail is empty, then assembles the frame for
/// `dst` by splicing the header onto the shared tail and patching the
/// checksum. Byte-for-byte equal to EncodePacket on a copy of `packet` with
/// its dst replaced. Callers reuse one cleared *tail per fan-out.
void EncodePacketWithDstTo(const net::Packet& packet, SiteId dst,
                           std::string* out, std::string* tail,
                           std::string* scratch);

/// Decodes a frame produced by EncodePacket. Rejects (kCorruption) bad
/// checksums, truncations, unknown envelope kinds, and trailing garbage.
StatusOr<net::Packet> DecodePacket(std::string_view frame);

/// True when a decoded packet is addressed to `receiver` and every other
/// site id it carries names one of the cluster's `num_sites` sites: its src,
/// and the site each envelope names (a request's origin, a transfer's or
/// closure's src, an ack's, NACK's or snapshot reply's from). A receiver
/// must drop any other frame: it would owe the stranger an ack, or ship a Vm
/// to it.
bool AddressedWithin(const net::Packet& packet, SiteId receiver,
                     uint32_t num_sites);

}  // namespace dvp::proto
