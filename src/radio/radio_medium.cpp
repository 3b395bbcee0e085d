#include "radio/radio_medium.hpp"

#include <algorithm>

#include "chaos/failpoint.hpp"
#include "common/log.hpp"

namespace blap::radio {

void RadioMedium::attach(RadioEndpoint* endpoint) {
  const EndpointHandle h = registry_.attach(endpoint);
  if (links_of_slot_.size() <= h.slot) links_of_slot_.resize(h.slot + 1);
}

void RadioMedium::detach(RadioEndpoint* endpoint) {
  const EndpointHandle h = registry_.handle_of(endpoint);
  if (!h.valid()) return;
  // Copy: close_link() edits the per-slot list it is iterating from. The
  // list is ascending by construction, so teardown order matches the old
  // links_-walk order.
  const std::vector<LinkId> doomed = links_of_slot_[h.slot];
  registry_.detach(endpoint);
  for (LinkId id : doomed) close_link(id, endpoint, close_reason::kConnectionTimeout);
}

void RadioMedium::notify_endpoint_changed(RadioEndpoint* endpoint) {
  const EndpointHandle h = registry_.handle_of(endpoint);
  if (!h.valid()) return;
  const BdAddr before = registry_.address_of(endpoint);
  registry_.refresh(endpoint);
  if (before == endpoint->radio_address()) return;
  // The endpoint was spoofed while holding live links: re-key the
  // address-pair index so link_between() keeps resolving.
  for (LinkId id : links_of_slot_[h.slot]) {
    auto it = links_.find(id);
    if (it == links_.end()) continue;
    Link& link = it->second;
    link_index_.erase(link_key(link.addr_a, link.addr_b, id));
    link.addr_a = link.a->radio_address();
    link.addr_b = link.b->radio_address();
    link_index_.insert(link_key(link.addr_a, link.addr_b, id));
  }
}

void RadioMedium::index_link(LinkId id, Link& link) {
  link.addr_a = link.a->radio_address();
  link.addr_b = link.b->radio_address();
  link_index_.insert(link_key(link.addr_a, link.addr_b, id));
  links_of_slot_[link.a_handle.slot].push_back(id);
  links_of_slot_[link.b_handle.slot].push_back(id);
}

void RadioMedium::unindex_link(LinkId id, const Link& link) {
  link_index_.erase(link_key(link.addr_a, link.addr_b, id));
  std::erase(links_of_slot_[link.a_handle.slot], id);
  std::erase(links_of_slot_[link.b_handle.slot], id);
}

void RadioMedium::start_inquiry(RadioEndpoint* requester, SimTime duration,
                                std::function<void(const InquiryResponse&)> on_response,
                                std::function<void()> on_complete) {
  if (obs_ != nullptr) {
    obs_->count("radio.inquiries");
    obs_->span(scheduler_.now(), scheduler_.now() + duration,
               obs_->device_tid(requester->radio_name()), obs::Layer::kRadio, "inquiry");
  }
  const SimTime jitter_span = duration > 1 ? duration - 1 : 1;
  if (registry_.inquiry_scanner_count() < inquiry_batch_threshold_) {
    // Small scanner sets take the literal historical path: one scheduler
    // event per response, so dispatch counts (and Observer event metrics)
    // are unchanged for every existing scenario.
    registry_.for_each_inquiry_scanner([&](RadioEndpoint* ep) {
      if (ep == requester || !ep->inquiry_scan_enabled()) return;
      // FHS response collides with another responder's and is lost.
      if (BLAP_FAILPOINT("radio.inquiry.response_lost")) return;
      if (obs_ != nullptr) obs_->count("radio.inquiry_responses");
      // Responders answer somewhere inside the inquiry window; inquiry scan
      // windows are dense enough that every scanning device is found.
      const SimTime latency = 1 + rng_.uniform(jitter_span);
      InquiryResponse response{ep->radio_address(), ep->radio_class_of_device(),
                               ep->radio_name()};
      scheduler_.schedule_in(latency, [on_response, response] {
        if (on_response) on_response(response);
      });
    });
  } else {
    // Inquiry-response storm: collect every response up front and deliver
    // through one walking cursor event instead of k queue entries. The
    // sequence numbers the individual events would have drawn are reserved
    // as one contiguous block and assigned in draw order, so after sorting
    // by (when, seq) the cursor replays the exact global order the heap
    // would have produced — no event from outside the batch can carry a
    // sequence number inside the reserved range.
    auto batch = std::make_shared<InquiryBatch>();
    batch->on_response = on_response;
    const SimTime now = scheduler_.now();
    registry_.for_each_inquiry_scanner([&](RadioEndpoint* ep) {
      if (ep == requester || !ep->inquiry_scan_enabled()) return;
      if (BLAP_FAILPOINT("radio.inquiry.response_lost")) return;
      if (obs_ != nullptr) obs_->count("radio.inquiry_responses");
      const SimTime latency = 1 + rng_.uniform(jitter_span);
      batch->entries.push_back(InquiryBatch::Entry{
          now + latency, 0,
          InquiryResponse{ep->radio_address(), ep->radio_class_of_device(),
                          ep->radio_name()}});
    });
    if (!batch->entries.empty()) {
      const std::uint64_t base = scheduler_.reserve_seqs(batch->entries.size());
      for (std::size_t i = 0; i < batch->entries.size(); ++i)
        batch->entries[i].seq = base + i;
      std::sort(batch->entries.begin(), batch->entries.end(),
                [](const InquiryBatch::Entry& x, const InquiryBatch::Entry& y) {
                  return x.when != y.when ? x.when < y.when : x.seq < y.seq;
                });
      schedule_batch_delivery(std::move(batch));
    }
  }
  scheduler_.schedule_in(duration, [on_complete] {
    if (on_complete) on_complete();
  });
}

void RadioMedium::schedule_batch_delivery(std::shared_ptr<InquiryBatch> batch) {
  const InquiryBatch::Entry& head = batch->entries[batch->next];
  scheduler_.schedule_at_seq(head.when, head.seq, [this, batch] {
    const SimTime when = batch->entries[batch->next].when;
    do {
      const InquiryBatch::Entry& entry = batch->entries[batch->next++];
      if (batch->on_response) batch->on_response(entry.response);
    } while (batch->next < batch->entries.size() && batch->entries[batch->next].when == when);
    if (batch->next < batch->entries.size()) schedule_batch_delivery(batch);
  });
}

void RadioMedium::page(RadioEndpoint* initiator, const BdAddr& target, SimTime timeout,
                       std::function<void(std::optional<LinkId>)> on_result) {
  // Candidates: every page-scanning endpoint owning the target address,
  // straight from the BD_ADDR index. More than one candidate is the
  // BD_ADDR-spoofing situation; the earliest sampled scan window wins the
  // race. The index enumerates candidates in attach order — the order the
  // old linear scan drew latencies from the shared Rng stream in — and the
  // page-scan bit is re-read from the live virtual, so an endpoint that
  // missed a scan-state notify still answers correctly.
  RadioEndpoint* winner = nullptr;
  EndpointHandle winner_handle;
  SimTime best_latency = 0;
  struct Candidate {
    RadioEndpoint* ep;
    SimTime latency;
  };
  std::vector<Candidate> candidates;
  registry_.for_each_candidate(target, [&](RadioEndpoint* ep, EndpointHandle handle) {
    if (ep == initiator || !ep->page_scan_enabled()) return;
    // The candidate's every scan window misses the whole page train (deep
    // interference): it drops out of the race before sampling a latency.
    if (BLAP_FAILPOINT("radio.page.scan_missed")) return;
    const SimTime latency = ep->sample_page_response_latency(rng_);
    candidates.push_back(Candidate{ep, latency});
    if (winner == nullptr || latency < best_latency) {
      winner = ep;
      winner_handle = handle;
      best_latency = latency;
    }
  });

  if (obs_ != nullptr) {
    obs_->count("radio.pages");
    const SimTime now = scheduler_.now();
    // One span per candidate on the candidate's own lane: from page start
    // until its sampled scan window catches the train. With a spoofed
    // BD_ADDR two lanes carry overlapping spans — the race of Table II.
    for (const Candidate& c : candidates) {
      if (!obs_->tracing()) break;
      const bool won = c.ep == winner && best_latency <= timeout;
      obs_->span(now, now + c.latency, obs_->device_tid(c.ep->radio_name()),
                 obs::Layer::kRadio, "page_scan_race",
                 strfmt("%s for %s (latency %llu us)", won ? "WINS" : "loses",
                        target.to_string().c_str(),
                        static_cast<unsigned long long>(c.latency)));
    }
    obs_->instant(now, obs_->device_tid(initiator->radio_name()), obs::Layer::kRadio,
                  "page_start", strfmt("target %s, %zu candidate(s)",
                                       target.to_string().c_str(), candidates.size()));
  }

  if (winner == nullptr || best_latency > timeout) {
    if (obs_ != nullptr) obs_->count("radio.page_timeouts");
    // The initiator gives up at the full page timeout whether nobody scans
    // or the only scan window falls past the deadline.
    scheduler_.schedule_in(timeout, [on_result] {
      if (on_result) on_result(std::nullopt);
    });
    return;
  }
  if (obs_ != nullptr) obs_->observe("radio.page_latency_us", best_latency);

  const LinkId id = next_link_id_++;
  const EndpointHandle initiator_handle = registry_.handle_of(initiator);
  scheduler_.schedule_in(best_latency, [this, id, initiator_handle, winner_handle,
                                        on_result] {
    // Either side may have detached while the page train was running; a
    // link must never come up holding a dangling endpoint. The handles go
    // stale on detach, so this is O(1) — and, unlike the pointer scan it
    // replaces, immune to an endpoint detaching and re-attaching in the
    // window (a new attachment is a new generation).
    RadioEndpoint* live_initiator = registry_.resolve(initiator_handle);
    RadioEndpoint* responder = registry_.resolve(winner_handle);
    if (live_initiator == nullptr || responder == nullptr) {
      if (on_result) on_result(std::nullopt);
      return;
    }
    // The FHS/ID exchange died at the last moment: no link comes up and the
    // initiator sees an ordinary page timeout.
    if (BLAP_FAILPOINT("radio.page.train_lost")) {
      if (on_result) on_result(std::nullopt);
      return;
    }
    Link link;
    link.a = live_initiator;
    link.b = responder;
    link.a_handle = initiator_handle;
    link.b_handle = winner_handle;
    if (fault_plan_.enabled())
      link.channel = std::make_unique<faults::ChannelModel>(fault_plan_, id);
    Link& stored = links_[id] = std::move(link);
    index_link(id, stored);
    if (obs_ != nullptr) {
      obs_->count("radio.links_up");
      obs_->instant(scheduler_.now(), obs_->device_tid(responder->radio_name()),
                    obs::Layer::kRadio, "link_up",
                    strfmt("link %llu, paged by %s", static_cast<unsigned long long>(id),
                           live_initiator->radio_name().c_str()));
    }
    BLAP_DEBUG("radio", "link %llu up: %s -> %s", static_cast<unsigned long long>(id),
               live_initiator->radio_address().to_string().c_str(),
               responder->radio_address().to_string().c_str());
    // The responder's baseband misses the link-up (its POLL/NULL handshake
    // was jammed): the link exists but only the initiator knows. The
    // initiator's LMP response timeout is the genuine recovery path.
    if (!BLAP_FAILPOINT("radio.link.responder_notify_lost"))
      responder->on_link_established(id, live_initiator->radio_address(), false);
    live_initiator->on_link_established(id, responder->radio_address(), true);
    if (on_result) on_result(id);
  });
}

void RadioMedium::send_frame(LinkId link, RadioEndpoint* sender, Bytes frame,
                             TxReport on_report) {
  auto it = links_.find(link);
  if (it == links_.end()) return;
  const bool sender_is_a = it->second.a == sender;
  RadioEndpoint* receiver = sender_is_a ? it->second.b : it->second.a;
  const EndpointHandle receiver_handle =
      sender_is_a ? it->second.b_handle : it->second.a_handle;
  if (obs_ != nullptr) {
    obs_->count("radio.frames");
    obs_->observe("radio.frame_bytes", frame.size());
  }
  // The sniffer sees the frame as transmitted. Modelling an *ideal* capture
  // device (it hears what the sender put on the air, before channel damage)
  // keeps retroactive-decryption experiments meaningful under loss — and
  // keeps capture bytes identical to a fault-free run for the same traffic.
  if (!sniffers_.empty()) {
    SniffedFrame sniffed;
    sniffed.timestamp_us = scheduler_.now();
    sniffed.link = link;
    sniffed.sender = sender->radio_address();
    sniffed.receiver = receiver->radio_address();
    sniffed.frame = frame;
    for (const auto& sniffer : sniffers_) sniffer(sniffed);
  }

  // Channel verdict. Without a fault plan there is no ChannelModel: no Rng
  // draw, no branch below taken — the frame behaves exactly as it always has.
  auto verdict = faults::FaultVerdict::kDeliver;
  if (it->second.channel != nullptr) {
    verdict = it->second.channel->judge(scheduler_.now());
    if (verdict == faults::FaultVerdict::kCorrupt) it->second.channel->corrupt(frame);
    if (obs_ != nullptr && verdict != faults::FaultVerdict::kDeliver)
      obs_->count(strfmt("radio.faults.%s", faults::to_string(verdict)));
  }
  // Residual corruption escapes the CRC: the damaged frame is delivered and
  // the baseband ACKs it. Only outright drops count as undelivered.
  bool delivered = verdict == faults::FaultVerdict::kDeliver ||
                   verdict == faults::FaultVerdict::kCorrupt;
  // A burst of interference swallows the frame; the NAK still reaches the
  // sender (ARQ handles it), so the loss is recoverable by retransmission.
  if (BLAP_FAILPOINT("radio.frame.drop")) delivered = false;

  if (delivered) {
    scheduler_.schedule_in(frame_latency_,
                           [this, link, receiver_handle, frame = std::move(frame)] {
      // The link may have died while the frame was in flight (link ids are
      // never reused, so presence in links_ is conclusive); the receiver
      // handle going stale with the link still up cannot happen, but the
      // resolve keeps the dereference provably safe.
      if (!links_.contains(link)) return;
      RadioEndpoint* live_receiver = registry_.resolve(receiver_handle);
      if (live_receiver == nullptr) return;
      live_receiver->on_air_frame(link, frame);
    });
  }
  if (on_report) {
    // The return-slot ACK/NAK itself is lost: the sender hears nothing and
    // must fall back on its own retransmission timer.
    if (BLAP_FAILPOINT("radio.frame.report_lost")) return;
    // ACK/NAK lands after one TDD round trip (frame slot + return slot).
    const EndpointHandle sender_handle = registry_.handle_of(sender);
    scheduler_.schedule_in(2 * frame_latency_,
                           [this, sender_handle, delivered, on_report = std::move(on_report)] {
                             if (registry_.resolve(sender_handle) == nullptr) return;
                             on_report(delivered);
                           });
  }
}

void RadioMedium::close_link(LinkId link, RadioEndpoint* closer, std::uint8_t reason) {
  auto it = links_.find(link);
  if (it == links_.end()) return;
  const EndpointHandle peer_handle =
      it->second.a == closer ? it->second.b_handle : it->second.a_handle;
  unindex_link(link, it->second);
  links_.erase(it);
  if (obs_ != nullptr) {
    obs_->count("radio.links_closed");
    obs_->instant(scheduler_.now(), obs_->device_tid(closer->radio_name()),
                  obs::Layer::kRadio, "link_closed",
                  strfmt("link %llu, reason 0x%02x", static_cast<unsigned long long>(link),
                         reason));
  }
  BLAP_DEBUG("radio", "link %llu closed (reason 0x%02x)", static_cast<unsigned long long>(link),
             reason);
  // The closer's LMP_detach never reaches the peer: the peer only learns of
  // the teardown when its own supervision timeout expires.
  if (BLAP_FAILPOINT("radio.close.notify_lost")) return;
  // The peer learns of the teardown after one frame flight time — unless it
  // detached while the frame flew, which stales the handle.
  scheduler_.schedule_in(frame_latency_, [this, peer_handle, link, reason] {
    RadioEndpoint* peer = registry_.resolve(peer_handle);
    if (peer == nullptr) return;
    peer->on_link_closed(link, reason);
  });
}

std::vector<RadioMedium::LinkAuditView> RadioMedium::audit_links() const {
  std::vector<LinkAuditView> out;
  out.reserve(links_.size());
  for (const auto& [id, link] : links_) out.push_back(LinkAuditView{id, link.a, link.b});
  return out;
}

bool RadioMedium::audit_registry(std::string* why) const {
  std::size_t attached = 0;
  bool generations_ok = true;
  registry_.for_each_attached([&](RadioEndpoint* endpoint) {
    ++attached;
    const EndpointHandle h = registry_.handle_of(endpoint);
    if (!h.valid() || registry_.resolve(h) != endpoint) generations_ok = false;
  });
  if (!generations_ok) {
    if (why != nullptr) *why = "an attached endpoint fails its own generation-checked resolve";
    return false;
  }
  if (attached != registry_.size()) {
    if (why != nullptr)
      *why = strfmt("registry iterates %zu endpoints but reports size %zu", attached,
                    registry_.size());
    return false;
  }
  return true;
}

bool RadioMedium::audit_consistency(std::string* why) const {
  const auto fail = [&](std::string message) {
    if (why != nullptr) *why = std::move(message);
    return false;
  };
  if (link_index_.size() != links_.size())
    return fail(strfmt("address-pair index holds %zu entries for %zu links",
                       link_index_.size(), links_.size()));
  std::size_t slot_entries = 0;
  for (const auto& slot_links : links_of_slot_) slot_entries += slot_links.size();
  if (slot_entries != 2 * links_.size())
    return fail(strfmt("per-slot lists hold %zu entries for %zu links", slot_entries,
                       links_.size()));
  for (const auto& [id, link] : links_) {
    const auto text_id = static_cast<unsigned long long>(id);
    if (registry_.resolve(link.a_handle) != link.a ||
        registry_.resolve(link.b_handle) != link.b)
      return fail(strfmt("link %llu holds a stale endpoint handle", text_id));
    if (!link_index_.contains(link_key(link.addr_a, link.addr_b, id)))
      return fail(strfmt("link %llu missing from the address-pair index", text_id));
    if (link.a_handle.slot >= links_of_slot_.size() ||
        link.b_handle.slot >= links_of_slot_.size())
      return fail(strfmt("link %llu references a slot past the per-slot lists", text_id));
    const auto& a_links = links_of_slot_[link.a_handle.slot];
    const auto& b_links = links_of_slot_[link.b_handle.slot];
    // blap-lint: radio-scan-ok — audit-only membership probe; the invariant
    // being checked is precisely that these per-slot lists stay tiny
    if (std::find(a_links.begin(), a_links.end(), id) == a_links.end() ||
        std::find(b_links.begin(), b_links.end(), id) == b_links.end())
      return fail(strfmt("link %llu missing from a per-slot list", text_id));
    if ((link.channel != nullptr) != fault_plan_.enabled())
      return fail(strfmt("link %llu channel state disagrees with the fault plan", text_id));
  }
  return true;
}

RadioEndpoint* RadioMedium::peer_of(LinkId link, const RadioEndpoint* self) const {
  auto it = links_.find(link);
  if (it == links_.end()) return nullptr;
  if (it->second.a == self) return it->second.b;
  if (it->second.b == self) return it->second.a;
  return nullptr;
}

std::optional<LinkId> RadioMedium::link_between(const BdAddr& x, const BdAddr& y) const {
  // The pair index is keyed (lo, hi, id), so the first entry at or past
  // (lo, hi, 0) is the lowest live link id over this address pair — the
  // deterministic winner when a spoofing scenario creates several.
  const auto probe = link_key(x, y, 0);
  const auto it = link_index_.lower_bound(probe);
  if (it == link_index_.end()) return std::nullopt;
  if (std::get<0>(*it) != std::get<0>(probe) || std::get<1>(*it) != std::get<1>(probe))
    return std::nullopt;
  return std::get<2>(*it);
}

void RadioMedium::set_fault_plan(faults::FaultPlan plan) {
  fault_plan_ = std::move(plan);
  // Rebuild per-link channel state so a plan installed mid-scenario (e.g.
  // "the jammer arrives after pairing") applies to live links too.
  for (auto& [id, link] : links_)
    link.channel = fault_plan_.enabled()
                       ? std::make_unique<faults::ChannelModel>(fault_plan_, id)
                       : nullptr;
}

template <state::StateIo Io, state::ConstOnSave<Io> Self>
void RadioMedium::head_fields(Io& io, Self& self) {
  io.field(self.frame_latency_);
  io.field(self.next_link_id_);
  io.field(self.rng_);
  io.field(self.fault_plan_);
  io.attached(self.sniffers_);
}

bool RadioMedium::persist(state::StateWriter& w,
                          std::span<RadioEndpoint* const> roster) const {
  std::map<const RadioEndpoint*, std::uint64_t> roster_index;
  for (std::size_t i = 0; i < roster.size(); ++i)
    roster_index.emplace(roster[i], static_cast<std::uint64_t>(i));
  const auto index_of = [&roster_index](const RadioEndpoint* endpoint) -> std::int64_t {
    const auto it = roster_index.find(endpoint);
    return it == roster_index.end() ? -1 : static_cast<std::int64_t>(it->second);
  };

  head_fields(w, *this);

  // Attachment set, in attach order (the paging race draws candidate
  // latencies in attach order, so the order is behaviourally significant).
  w.u64(registry_.size());
  bool all_resolved = true;
  registry_.for_each_attached([&](const RadioEndpoint* endpoint) {
    const std::int64_t index = index_of(endpoint);
    if (index < 0) {
      all_resolved = false;
      return;
    }
    w.u64(static_cast<std::uint64_t>(index));
  });
  if (!all_resolved) return false;

  w.u64(links_.size());
  for (const auto& [id, link] : links_) {
    const std::int64_t a = index_of(link.a);
    const std::int64_t b = index_of(link.b);
    if (a < 0 || b < 0) return false;
    w.u64(id);
    w.u64(static_cast<std::uint64_t>(a));
    w.u64(static_cast<std::uint64_t>(b));
    w.opt(link.channel);
  }
  return true;
}

void RadioMedium::persist(state::StateReader& r, std::span<RadioEndpoint* const> roster) {
  head_fields(r, *this);

  const auto endpoint_at = [&](std::uint64_t index) -> RadioEndpoint* {
    if (index >= roster.size()) {
      r.fail("endpoint index out of range");
      return nullptr;
    }
    return roster[static_cast<std::size_t>(index)];
  };

  const std::uint64_t attached = r.u64();
  std::vector<RadioEndpoint*> in_order;
  // Bounded by the roster, not by the decoded count (untrusted bytes).
  in_order.reserve(std::min<std::size_t>(roster.size(), static_cast<std::size_t>(attached)));
  for (std::uint64_t i = 0; i < attached && r.ok(); ++i) {
    RadioEndpoint* endpoint = endpoint_at(r.u64());
    if (endpoint != nullptr) in_order.push_back(endpoint);
  }
  // The registry indexes each endpoint's *current* virtuals here; device
  // sections restore after the medium's, and the controller's load ends
  // with notify_endpoint_changed(), which re-syncs address and scan bits.
  registry_.load(in_order);
  std::size_t max_slot = 0;
  for (RadioEndpoint* endpoint : in_order)
    max_slot = std::max<std::size_t>(max_slot, registry_.handle_of(endpoint).slot + 1);
  if (links_of_slot_.size() < max_slot) links_of_slot_.resize(max_slot);
  for (auto& slot_links : links_of_slot_) slot_links.clear();
  link_index_.clear();

  links_.clear();
  const std::uint64_t stored_links = r.u64();
  for (std::uint64_t i = 0; i < stored_links && r.ok(); ++i) {
    const LinkId id = r.u64();
    Link link;
    link.a = endpoint_at(r.u64());
    link.b = endpoint_at(r.u64());
    link.a_handle = registry_.handle_of(link.a);
    link.b_handle = registry_.handle_of(link.b);
    if (r.boolean()) {
      link.channel = std::make_unique<faults::ChannelModel>(fault_plan_, id);
      r.field(*link.channel);
    }
    if (r.ok() && link.a_handle.valid() && link.b_handle.valid()) {
      Link& stored = links_[id] = std::move(link);
      index_link(id, stored);
    }
  }
}

}  // namespace blap::radio
