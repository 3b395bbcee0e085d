#include "core/snoop_extractor.hpp"

#include <algorithm>

namespace blap::core {

const char* to_string(KeySource source) {
  switch (source) {
    case KeySource::kLinkKeyRequestReply: return "HCI_Link_Key_Request_Reply";
    case KeySource::kLinkKeyNotification: return "HCI_Link_Key_Notification";
  }
  return "?";
}

std::vector<ExtractedKey> extract_link_keys(const hci::SnoopLog& log) {
  std::vector<ExtractedKey> out;
  std::size_t frame = 0;
  for (const auto& record : log.records()) {
    ++frame;
    const auto& packet = record.packet;
    const auto field = hci::locate_link_key(packet.type, packet.payload);
    if (!field || !field->key_present) continue;
    ExtractedKey key{field->peer(packet.payload), {},
                     packet.type == hci::PacketType::kCommand ? KeySource::kLinkKeyRequestReply
                                                              : KeySource::kLinkKeyNotification,
                     record.timestamp_us, frame};
    // The wire carries the key least-significant byte first.
    const BytesView wire_key = field->key(packet.payload);
    std::reverse_copy(wire_key.begin(), wire_key.end(), key.key.begin());
    out.push_back(key);
  }
  return out;
}

std::optional<ExtractedKey> extract_link_key_for(const hci::SnoopLog& log, const BdAddr& peer) {
  std::optional<ExtractedKey> latest;
  for (const auto& key : extract_link_keys(log)) {
    if (key.peer == peer) latest = key;
  }
  return latest;
}

}  // namespace blap::core
