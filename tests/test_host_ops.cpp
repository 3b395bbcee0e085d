// The host operation contract, for each of pair, connect_pan, pull_phonebook,
// read_messages and connect_hfp: one op at a time, and every op — succeeded,
// refused, cut off or retried — fires its caller's callback exactly once and
// leaves the host quiescent (no completion callback armed anywhere), so a
// strict snapshot of the cell is possible again.
#include <gtest/gtest.h>

#include "chaos/failpoint.hpp"
#include "core/device.hpp"

namespace blap::core {
namespace {

enum class Op { kPair, kPan, kPbap, kMap, kHfp };

const char* name_of(Op op) {
  switch (op) {
    case Op::kPair: return "Pair";
    case Op::kPan: return "Pan";
    case Op::kPbap: return "Pbap";
    case Op::kMap: return "Map";
    case Op::kHfp: return "Hfp";
  }
  return "?";
}

/// The PSM a profile op opens its channel on (pair opens none).
std::uint16_t psm_of(Op op) {
  switch (op) {
    case Op::kPan: return host::psm::kBnep;
    case Op::kPbap: return host::psm::kPbap;
    case Op::kMap: return host::psm::kMap;
    case Op::kHfp: return host::psm::kHfp;
    case Op::kPair: break;
  }
  return 0;
}

/// Every callback of one op lands here.
struct Outcome {
  int calls = 0;
  bool ok = false;  // pair: kSuccess; PAN/HFP: true; PBAP/MAP: a value
  hci::Status status = hci::Status::kSuccess;    // pair only
  std::optional<std::vector<std::string>> data;  // PBAP/MAP only
};

void start(Op op, host::HostStack& host, const BdAddr& peer, Outcome& out) {
  const auto on_bool = [&out](bool ok) {
    ++out.calls;
    out.ok = ok;
  };
  const auto on_data = [&out](std::optional<std::vector<std::string>> data) {
    ++out.calls;
    out.ok = data.has_value();
    out.data = std::move(data);
  };
  switch (op) {
    case Op::kPair:
      host.pair(peer, [&out](hci::Status status) {
        ++out.calls;
        out.status = status;
        out.ok = status == hci::Status::kSuccess;
      });
      break;
    case Op::kPan: host.connect_pan(peer, on_bool); break;
    case Op::kPbap: host.pull_phonebook(peer, on_data); break;
    case Op::kMap: host.read_messages(peer, on_data); break;
    case Op::kHfp: host.connect_hfp(peer, on_bool); break;
  }
}

class HostOps : public ::testing::TestWithParam<Op> {
 protected:
  void SetUp() override { build({}); }

  void build(hci::IoCapability server_io) {
    sim_ = std::make_unique<Simulation>(4000 + static_cast<int>(GetParam()));
    DeviceSpec c;
    c.name = "client";
    c.address = *BdAddr::parse("00:00:00:00:0c:01");
    DeviceSpec s;
    s.name = "server";
    s.address = *BdAddr::parse("00:00:00:00:0c:02");
    s.host.io_capability = server_io;
    client_ = &sim_->add_device(c);
    server_ = &sim_->add_device(s);
  }

  host::HostStack& client() { return client_->host(); }
  host::HostStack& server() { return server_->host(); }

  void start_op(Outcome& out) { start(GetParam(), client(), server_->address(), out); }

  /// Run until `done` holds or 60 s of virtual time pass.
  template <typename Pred>
  void run_until(Pred done) {
    for (int i = 0; i < 600 && !done(); ++i) sim_->run_for(100 * kMillisecond);
  }

  /// Run the op to its callback, then long enough for any second callback.
  void finish(Outcome& out) {
    run_until([&] { return out.calls > 0; });
    sim_->run_for(5 * kSecond);
  }

  /// A plain, unauthenticated ACL from client to server.
  void connect_plain() {
    bool up = false;
    client().connect_only(server_->address(), [&up](hci::Status s) {
      up = s == hci::Status::kSuccess;
    });
    run_until([&] { return up; });
    ASSERT_TRUE(up);
  }

  void expect_success(const Outcome& out) {
    EXPECT_EQ(out.calls, 1);
    EXPECT_TRUE(out.ok) << "pair status " << hci::to_string(out.status);
    if (GetParam() == Op::kPbap) {
      ASSERT_TRUE(out.data.has_value());
      EXPECT_EQ(out.data->size(), server().pbap().phonebook().size());
    }
    if (GetParam() == Op::kMap) {
      ASSERT_TRUE(out.data.has_value());
      EXPECT_EQ(out.data->size(), server().map().message_count());
    }
  }

  void expect_failure(const Outcome& out) {
    EXPECT_EQ(out.calls, 1);
    EXPECT_FALSE(out.ok);
    EXPECT_FALSE(out.data.has_value());
    if (GetParam() == Op::kPair) {
      EXPECT_NE(out.status, hci::Status::kSuccess);
    }
  }

  std::unique_ptr<Simulation> sim_;
  Device* client_ = nullptr;
  Device* server_ = nullptr;
};

TEST_P(HostOps, Success) {
  Outcome out;
  start_op(out);
  finish(out);
  expect_success(out);
  EXPECT_TRUE(client().quiescent());
}

TEST_P(HostOps, BusySlotFailsAtOnceAndFirstOpFinishes) {
  Outcome first;
  Outcome second;
  start_op(first);
  start_op(second);
  // The second op is answered synchronously, before any event runs.
  EXPECT_EQ(second.calls, 1);
  EXPECT_FALSE(second.ok);
  EXPECT_FALSE(second.data.has_value());
  if (GetParam() == Op::kPair) {
    EXPECT_EQ(second.status, hci::Status::kPairingNotAllowed);
  }
  finish(first);
  expect_success(first);
  EXPECT_EQ(second.calls, 1);
  EXPECT_TRUE(client().quiescent());
}

TEST_P(HostOps, RefusedFailsOnce) {
  if (GetParam() == Op::kPair) {
    // Pairing has no channel: the refusal is the peer's user rejecting the
    // numeric-comparison popup.
    struct Refuser : host::UserAgent {
      bool on_pairing_popup(const BdAddr&, std::optional<std::uint32_t>) override {
        return false;
      }
    };
    static Refuser refuser;
    server().set_user_agent(&refuser);
  } else {
    // A Just Works bond holds no MITM-protected key, so a level-3 service
    // refuses the channel after the link is authenticated and encrypted.
    build(hci::IoCapability::kNoInputNoOutput);
    host::L2cap::Service level3;
    level3.requires_authentication = true;
    level3.minimum_security = host::L2cap::SecurityLevel::kMitmProtected;
    server().l2cap().register_service(psm_of(GetParam()), std::move(level3));
  }
  Outcome out;
  start_op(out);
  finish(out);
  expect_failure(out);
  if (GetParam() != Op::kPair) {
    EXPECT_TRUE(client().security().is_bonded(server_->address()));
  }
  EXPECT_TRUE(client().quiescent());
}

TEST_P(HostOps, LinkDroppedMidOpFailsOnce) {
  bool request_seen = false;
  if (GetParam() == Op::kPair || GetParam() == Op::kHfp) {
    // Neither sends anything over its channel: drop the link while the
    // authentication it started over an existing ACL is in flight.
    connect_plain();
    Outcome out;
    start_op(out);
    client().disconnect(server_->address());
    finish(out);
    expect_failure(out);
    EXPECT_TRUE(client().quiescent());
    return;
  }
  // The server accepts the channel and swallows the request, so the op
  // waits on its reply until the link goes.
  host::L2cap::Service silent;
  silent.requires_authentication = true;
  silent.on_data = [&request_seen](const host::L2capChannel&, BytesView) { request_seen = true; };
  server().l2cap().register_service(psm_of(GetParam()), std::move(silent));
  Outcome out;
  start_op(out);
  run_until([&] { return request_seen; });
  ASSERT_TRUE(request_seen);
  EXPECT_EQ(out.calls, 0);
  client().disconnect(server_->address());
  finish(out);
  expect_failure(out);
  EXPECT_TRUE(client().quiescent());
}

TEST_P(HostOps, TransientFailureRetriedOnce) {
  // The watchdog fires 1 ms into the op: a Connection Timeout, which fault
  // recovery retries after its backoff. The caller sees only the retry.
  connect_plain();
  client().config().fault_recovery = true;
  auto plan = chaos::ChaosPlan::inject({{"host.pair.watchdog_early", 0}});
  chaos::ScopedChaosPlan armed(plan);
  Outcome out;
  start_op(out);
  finish(out);
  EXPECT_EQ(plan.fired(), 1u);
  expect_success(out);
  EXPECT_TRUE(client().quiescent());
}

TEST_P(HostOps, FinishedOpDisarmsItsWatchdog) {
  // Under fault recovery every op arms a 90 s watchdog. Once the op has
  // finished, that watchdog must not fire into the next op to the peer: a
  // pair() that pages afresh and is still in flight 90 s after the first
  // op started. A stale watchdog fails it, and its retry pages again.
  client().config().fault_recovery = true;
  const SimTime started = sim_->now();
  Outcome first;
  start_op(first);
  finish(first);
  expect_success(first);
  client().disconnect(server_->address());
  sim_->run_for(started + 90 * kSecond - 20 * kMillisecond - sim_->now());
  int pages = 0;
  client_->transport().add_tap([&pages](hci::Direction direction, const hci::HciPacket& packet) {
    if (direction == hci::Direction::kHostToController &&
        packet.command_opcode() == hci::op::kCreateConnection)
      ++pages;
  });
  Outcome second;
  start(Op::kPair, client(), server_->address(), second);
  finish(second);
  EXPECT_EQ(second.calls, 1);
  EXPECT_TRUE(second.ok) << "pair status " << hci::to_string(second.status);
  EXPECT_EQ(pages, 1);
  EXPECT_TRUE(client().quiescent());
}

// MAP is the one op with state of its own (the read in progress). A link
// lost while the handle list is outstanding, for a transient reason, is
// retried: the retry must read the store afresh, not resume the old read.
TEST(HostOpsMap, TransientDropMidReadRetriesFromAnEmptyRead) {
  Simulation sim(4100);
  DeviceSpec c;
  c.name = "client";
  c.address = *BdAddr::parse("00:00:00:00:0c:01");
  DeviceSpec s;
  s.name = "server";
  s.address = *BdAddr::parse("00:00:00:00:0c:02");
  Device& client = sim.add_device(c);
  Device& server = sim.add_device(s);
  client.host().config().fault_recovery = true;
  // The server's MAP swallows the first request, then serves as usual.
  int requests = 0;
  host::L2cap::Service map;
  map.requires_authentication = true;
  map.on_data = [&](const host::L2capChannel& channel, BytesView data) {
    if (requests++ > 0) server.host().map().handle_server(server.host().l2cap(), channel, data);
  };
  server.host().l2cap().register_service(host::psm::kMap, std::move(map));

  Outcome out;
  start(Op::kMap, client.host(), server.address(), out);
  for (int i = 0; i < 600 && requests == 0; ++i) sim.run_for(100 * kMillisecond);
  ASSERT_EQ(requests, 1);
  server.host().disconnect(client.address(), hci::Status::kConnectionTimeout);
  for (int i = 0; i < 600 && out.calls == 0; ++i) sim.run_for(100 * kMillisecond);
  sim.run_for(5 * kSecond);
  EXPECT_EQ(out.calls, 1);
  ASSERT_TRUE(out.data.has_value());
  EXPECT_EQ(out.data->size(), server.host().map().message_count());
  EXPECT_EQ(requests, 1 + 1 + static_cast<int>(server.host().map().message_count()));
  EXPECT_TRUE(client.host().quiescent());
}

INSTANTIATE_TEST_SUITE_P(AllOps, HostOps,
                         ::testing::Values(Op::kPair, Op::kPan, Op::kPbap, Op::kMap, Op::kHfp),
                         [](const ::testing::TestParamInfo<Op>& param) {
                           return std::string(name_of(param.param));
                         });

}  // namespace
}  // namespace blap::core
