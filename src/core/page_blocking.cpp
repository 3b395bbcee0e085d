#include "core/page_blocking.hpp"

#include "common/log.hpp"

namespace blap::core {

PageBlockingReport PageBlockingAttack::run(Simulation& sim, Device& attacker,
                                           Device& accessory, Device& target,
                                           const PageBlockingOptions& options) {
  PageBlockingReport report;
  const BdAddr m_addr = target.address();
  const BdAddr c_addr = accessory.address();

  obs::Observer* obs = sim.observer();
  const std::uint32_t a_tid = obs != nullptr ? obs->device_tid(attacker.spec().name) : 0;
  if (obs != nullptr) obs->count("attack.page_blocking.runs");

  // Step 1: A sets NoInputNoOutput to force Just Works later.
  attacker.host().config().io_capability = hci::IoCapability::kNoInputNoOutput;
  // Step 2: A impersonates C (address + hands-free class of device).
  attacker.spoof_identity(c_addr, ClassOfDevice(ClassOfDevice::kHandsFree));
  if (obs != nullptr && obs->tracing())
    obs->instant(sim.now(), a_tid, obs::Layer::kAttack, "spoof_identity",
                 strfmt("A now answers as C (%s, NoInputNoOutput)", c_addr.to_string().c_str()));
  // A's host will hold the PLOC once the connection completes (Fig. 13).
  attacker.host().hooks().ploc_delay = options.ploc_hold;

  // M records its HCI dump so we can check the Fig. 12b flow afterwards.
  // (For devices without a dump — the iPhone row — the same analysis runs on
  // A's dump in the paper; here the tap exists on every simulated device.)
  target.host().config().hci_dump_available = true;
  target.host().enable_snoop(true);

  // Step 3: A establishes the connection to M and stays in PLOC.
  const std::uint64_t connect_span =
      obs != nullptr ? obs->begin_span(sim.now(), a_tid, obs::Layer::kAttack, "ploc_connect",
                                       "A pages M, then stalls its own host")
                     : 0;
  bool connected = false;
  attacker.host().connect_only(m_addr, [&](hci::Status status) {
    connected = status == hci::Status::kSuccess;
  });
  sim.run_for(3 * kSecond);
  // A's host is stalled inside PLOC, so its callback has not fired yet; the
  // ground truth is M's side of the link.
  report.ploc_established = target.host().has_acl(c_addr);
  if (obs != nullptr) {
    obs->count(report.ploc_established ? "attack.page_blocking.ploc_established"
                                       : "attack.page_blocking.ploc_failed");
    if (connect_span != 0)
      obs->end_span(sim.now(), connect_span,
                    report.ploc_established ? "PLOC up (M sees an ACL from \"C\")"
                                            : "no PLOC — M never saw the connection");
  }
  if (!report.ploc_established) {
    sim.run_for(options.window);
    return report;
  }

  // Optional keep-alive: the attack tooling (below the stalled host) sends
  // L2CAP echo requests on the new link so M's idle timer keeps resetting.
  EventHandle keepalive_timer;
  std::function<void()> send_keepalive = [&] {
    // The attacker reads the connection handle from its own controller's
    // traffic; handles are small integers assigned per controller, and the
    // PLOC link is A's only connection: probe the first few.
    for (hci::ConnectionHandle handle = 1; handle <= 4; ++handle) {
      ByteWriter echo;
      echo.u16(0x0001);                                 // L2CAP signaling CID
      echo.u8(0x08).u8(0xEE).u16(4).raw(Bytes{'b', 'l', 'a', 'p'});  // echo req
      attacker.transport().send(hci::Direction::kHostToController,
                                hci::make_acl(handle, echo.data()));
    }
    keepalive_timer = sim.scheduler().schedule_in(options.keepalive_interval, send_keepalive);
  };
  if (options.keepalive) send_keepalive();

  // Steps 4-6: M's user discovers devices and initiates pairing with "C".
  bool m_done = false;
  hci::Status m_status = hci::Status::kSuccess;
  sim.scheduler().schedule_in(options.pairing_delay, [&] {
    target.host().discover(2, [&](std::vector<host::HostStack::Discovered> found) {
      // C answers the inquiry (step 5). The user selects it and pairs.
      bool saw_c = false;
      for (const auto& device : found)
        if (device.address == c_addr) saw_c = true;
      if (!saw_c) BLAP_WARN("attack", "victim did not discover C during inquiry");
      target.host().pair(c_addr, [&](hci::Status status) {
        m_done = true;
        m_status = status;
      });
    });
  });

  const std::uint64_t window_span =
      obs != nullptr
          ? obs->begin_span(sim.now(), a_tid, obs::Layer::kAttack, "victim_pairing_window",
                            "waiting for M to discover and pair with the spoofed \"C\"")
          : 0;
  sim.run_for(options.window);
  keepalive_timer.cancel();

  report.pairing_completed = m_done && m_status == hci::Status::kSuccess;
  if (obs != nullptr && window_span != 0)
    obs->end_span(sim.now(), window_span,
                  report.pairing_completed ? "M paired the attacker" : "no pairing");
  report.m_pair_status = m_done ? m_status : hci::Status::kConnectionTimeout;

  // MITM check: M believes it paired C, but the bond key must live in A.
  const auto m_bond = target.host().security().link_key_for(c_addr);
  const auto a_bond = attacker.host().security().link_key_for(m_addr);
  report.mitm_established = report.pairing_completed && m_bond && a_bond && *m_bond == *a_bond;
  report.attacker_holds_link_key = report.mitm_established;
  if (obs != nullptr) {
    obs->count(report.mitm_established ? "attack.page_blocking.mitm_success"
                                       : "attack.page_blocking.mitm_failed");
    if (obs->tracing())
      obs->instant(sim.now(), a_tid, obs::Layer::kAttack, "mitm_verdict",
                   report.mitm_established
                       ? "A holds the bond key M filed under C's address"
                       : "attacker does not hold M's bond key");
  }

  if (const auto* bond = target.host().security().bond_for(c_addr)) {
    report.downgraded_to_just_works =
        bond->key_type == crypto::LinkKeyType::kUnauthenticatedCombinationP192 ||
        bond->key_type == crypto::LinkKeyType::kUnauthenticatedCombinationP256;
  }
  for (const auto& popup : target.host().popup_history()) {
    if (!(popup.peer == c_addr)) continue;
    report.popup_shown |= popup.shown_to_user;
    report.popup_had_numeric_value |= popup.numeric_value.has_value();
  }

  const FlowAnalysis analysis = classify_pairing_flow(target.host().snoop());
  report.m_flow = analysis.flow;
  return report;
}

bool PageBlockingAttack::baseline_trial(Simulation& sim, Device& attacker, Device& accessory,
                                        Device& target) {
  const BdAddr c_addr = accessory.address();
  obs::Observer* obs = sim.observer();
  if (obs != nullptr) {
    obs->count("attack.baseline.trials");
    if (obs->tracing())
      obs->instant(sim.now(), obs->device_tid(attacker.spec().name), obs::Layer::kAttack,
                   "baseline_page_race",
                   "A spoofs C but stays passive — the paging race decides who M reaches");
  }
  // The attacker spoofs C and waits in page-scan — but does NOT initiate.
  attacker.host().config().io_capability = hci::IoCapability::kNoInputNoOutput;
  attacker.spoof_identity(c_addr, ClassOfDevice(ClassOfDevice::kHandsFree));

  // M initiates pairing with C; the medium resolves the page-scan race
  // between the two devices owning C's address.
  bool done = false;
  hci::Status status = hci::Status::kSuccess;
  target.host().pair(c_addr, [&](hci::Status s) {
    done = true;
    status = s;
  });
  sim.run_for(30 * kSecond);
  if (!done || status != hci::Status::kSuccess) {
    if (obs != nullptr) obs->count("attack.baseline.pair_failed");
    return false;
  }

  // Who got the connection? The winner holds the new bond's link key.
  const auto m_key = target.host().security().link_key_for(c_addr);
  const auto a_key = attacker.host().security().link_key_for(target.address());
  const bool attacker_won = m_key.has_value() && a_key.has_value() && *m_key == *a_key;
  if (obs != nullptr)
    obs->count(attacker_won ? "attack.baseline.race_won" : "attack.baseline.race_lost");
  return attacker_won;
}

}  // namespace blap::core
