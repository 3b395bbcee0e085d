#include "core/mitigations.hpp"

#include <memory>

namespace blap::core {

hci::SnoopLog::Filter make_link_key_snoop_filter(SnoopFilterMode mode, std::uint64_t rng_seed) {
  auto rng = std::make_shared<Rng>(rng_seed);
  return [mode, rng](hci::SnoopRecord record) -> std::optional<hci::SnoopRecord> {
    auto& payload = record.packet.payload;
    const auto field = hci::locate_link_key(record.packet.type, payload);
    if (!field) return record;
    switch (mode) {
      case SnoopFilterMode::kHeaderOnly:
        // Keep only the header, whether or not the key is complete; orig_len
        // keeps the truth.
        record.original_length = static_cast<std::uint32_t>(record.packet.to_wire().size());
        if (payload.size() > field->header) payload.resize(field->header);
        return record;
      case SnoopFilterMode::kRandomizeKey:
        if (field->key_present) {
          const auto random = rng->bytes<16>();
          std::copy(random.begin(), random.end(),
                    payload.begin() + static_cast<std::ptrdiff_t>(field->key_offset()));
        }
        return record;
    }
    return record;
  };
}

void apply_snoop_filter(Device& device, SnoopFilterMode mode) {
  device.host().snoop().set_filter(make_link_key_snoop_filter(mode));
}

void apply_hci_payload_encryption(Device& device, std::uint64_t key_seed) {
  Rng rng(key_seed);
  device.transport().set_link_key_payload_protection(rng.bytes<16>());
}

void apply_page_blocking_detection(Device& device) {
  device.host().config().detect_page_blocking = true;
}

}  // namespace blap::core
