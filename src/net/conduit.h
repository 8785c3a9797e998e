// The transport-endpoint half of the runtime seam: everything the Site and
// its Transport ever asked of the simulated Network, as an interface. Two
// implementations:
//
//  * net::Network (network.h) — the simulated wire: per-pair Link fault
//    models, PartitionOracle, delivery as a kernel event. Packets cross as
//    shared C++ objects, each envelope priced at its packet-codec length
//    (WireBytes in message.h).
//  * runtime::Real's UDP conduit (runtime/real.h) — real loopback UDP
//    datagrams framed with the Packet byte codec (proto/packet_codec.h),
//    received on the destination site's event-loop thread.
//
// Contract: Send never fails from the caller's perspective (loss is silent,
// exactly as the paper's model demands — no undeliverable-message
// notifications); delivery happens on the destination site's runtime (its
// kernel event, or its loop thread), never synchronously inside Send.
#pragma once

#include <cstdint>
#include <functional>

#include "common/types.h"
#include "net/message.h"

namespace dvp::net {

/// Callback a site registers to receive packets. A site that is crashed
/// deregisters (or returns false from its liveness probe) and in-flight
/// packets addressed to it are dropped.
using DeliveryFn = std::function<void(const Packet&)>;

class Conduit {
 public:
  virtual ~Conduit() = default;

  /// Registers the delivery callback for a site. `is_up` gates delivery so a
  /// crashed site silently loses incoming packets.
  virtual void RegisterEndpoint(SiteId site, DeliveryFn deliver,
                                std::function<bool()> is_up) = 0;

  /// Sends a packet. Loss is silent.
  virtual void Send(Packet packet) = 0;

  /// Broadcast helper used by Conc2: delivers copies of the payload to every
  /// other site. Only the sim network gives it the loss-free, identical
  /// timing of an atomic ordered broadcast (§6.2); the real backend's is a
  /// best-effort datagram fan-out, which is why system::RealCluster refuses
  /// Conc2 at construction (DESIGN § runtime seam).
  virtual void Broadcast(SiteId src, EnvelopePtr payload) = 0;

  virtual uint32_t num_sites() const = 0;
};

}  // namespace dvp::net
