#ifndef DYNAPROX_NET_BYTE_METER_H_
#define DYNAPROX_NET_BYTE_METER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace dynaprox::net {

// Models network-protocol overhead the way the paper's Sniffer measurements
// include it: TCP/IP headers per packet plus fixed per-message cost. The
// paper explains the analytical-vs-experimental gap in Figures 3(b)/5/6 by
// exactly this overhead, so the simulation makes it explicit.
struct ProtocolModel {
  // Per-packet header bytes (IPv4 20 + TCP 20).
  size_t per_packet_header_bytes = 40;
  // Maximum segment size (Ethernet MTU 1500 - 40).
  size_t mss_bytes = 1460;
  // Fixed per-message cost (connection handshake amortization, ACKs).
  size_t per_message_bytes = 120;

  // A model that counts application payload only (the paper's analytical
  // expressions ignore protocol headers).
  static ProtocolModel PayloadOnly() { return ProtocolModel{0, 1460, 0}; }

  // Wire bytes for a message of `payload` application bytes.
  size_t WireBytes(size_t payload) const {
    size_t packets = payload == 0 ? 1 : (payload + mss_bytes - 1) / mss_bytes;
    return payload + packets * per_packet_header_bytes + per_message_bytes;
  }
};

// Accumulates traffic statistics for one measurement point (e.g. the link
// between the origin site and the DPC). This is the reproduction's stand-in
// for the Sniffer network monitor in Figure 4. Thread-safe (counters are
// atomic; messages crossing a shared link may come from many connections).
class ByteMeter {
 public:
  ByteMeter() = default;
  explicit ByteMeter(ProtocolModel model) : model_(model) {}

  ByteMeter(const ByteMeter&) = delete;
  ByteMeter& operator=(const ByteMeter&) = delete;

  // Records one message of `payload_bytes` application bytes.
  void RecordMessage(size_t payload_bytes) {
    messages_.fetch_add(1, std::memory_order_relaxed);
    payload_bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
    wire_bytes_.fetch_add(model_.WireBytes(payload_bytes),
                          std::memory_order_relaxed);
  }

  // Records `payload_bytes` continuing a message of which `message_bytes`
  // are already recorded (streamed body chunks). Packets are counted over
  // the whole message, so a message recorded in pieces meters exactly
  // what one RecordMessage of its total would; the message count and
  // per-message cost do not accrue again.
  void RecordBytes(size_t message_bytes, size_t payload_bytes) {
    if (payload_bytes == 0) return;
    payload_bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
    wire_bytes_.fetch_add(model_.WireBytes(message_bytes + payload_bytes) -
                              model_.WireBytes(message_bytes),
                          std::memory_order_relaxed);
  }

  void Reset() {
    messages_.store(0, std::memory_order_relaxed);
    payload_bytes_.store(0, std::memory_order_relaxed);
    wire_bytes_.store(0, std::memory_order_relaxed);
  }

  uint64_t messages() const {
    return messages_.load(std::memory_order_relaxed);
  }
  // Application bytes (what Section 5's B counts).
  uint64_t payload_bytes() const {
    return payload_bytes_.load(std::memory_order_relaxed);
  }
  // Bytes including protocol headers (what the Sniffer counts).
  uint64_t wire_bytes() const {
    return wire_bytes_.load(std::memory_order_relaxed);
  }

  const ProtocolModel& model() const { return model_; }

 private:
  ProtocolModel model_;
  std::atomic<uint64_t> messages_{0};
  std::atomic<uint64_t> payload_bytes_{0};
  std::atomic<uint64_t> wire_bytes_{0};
};

}  // namespace dynaprox::net

#endif  // DYNAPROX_NET_BYTE_METER_H_
