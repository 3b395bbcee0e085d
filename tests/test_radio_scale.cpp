// Tests for the population-scale radio medium: BD_ADDR-indexed page
// resolution, scanner-registry inquiry, batched response delivery, and
// generation-checked endpoint liveness. The contract under test throughout:
// the index is an *optimisation* — candidate sets, Rng draw order, winner
// selection and delivery timestamps must be exactly what the old linear
// scan over the attachment vector produced.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common/state_io.hpp"
#include "radio/radio_medium.hpp"

namespace blap::radio {
namespace {

/// Scriptable endpoint; mirrors test_radio.cpp's FakeEndpoint plus a draw
/// log so index-vs-linear equivalence can compare individual Rng samples.
class FakeEndpoint : public RadioEndpoint {
 public:
  FakeEndpoint(BdAddr addr, SimTime scan_interval)
      : addr_(addr), scan_interval_(scan_interval) {}

  BdAddr radio_address() const override { return addr_; }
  ClassOfDevice radio_class_of_device() const override { return cod_; }
  std::string radio_name() const override { return "fake"; }
  bool inquiry_scan_enabled() const override { return inquiry_scan_; }
  bool page_scan_enabled() const override { return page_scan_; }
  SimTime sample_page_response_latency(Rng& rng) override {
    ++latency_samples;
    if (sample_order != nullptr) sample_order->push_back(this);
    const SimTime latency = fixed_latency_ ? *fixed_latency_ : 1 + rng.uniform(scan_interval_);
    sampled_values.push_back(latency);
    return latency;
  }
  void on_link_established(LinkId link, const BdAddr& peer, bool initiator) override {
    links.push_back({link, peer, initiator});
  }
  void on_link_closed(LinkId link, std::uint8_t reason) override {
    closed.push_back({link, reason});
  }
  void on_air_frame(LinkId link, const Bytes& frame) override {
    frames.push_back({link, frame});
  }

  BdAddr addr_;
  ClassOfDevice cod_{0x240404};
  SimTime scan_interval_;
  std::optional<SimTime> fixed_latency_;
  bool inquiry_scan_ = true;
  bool page_scan_ = true;
  int latency_samples = 0;
  std::vector<SimTime> sampled_values;
  std::vector<const FakeEndpoint*>* sample_order = nullptr;

  struct LinkEvent {
    LinkId id;
    BdAddr peer;
    bool initiator;
  };
  std::vector<LinkEvent> links;
  std::vector<std::pair<LinkId, std::uint8_t>> closed;
  std::vector<std::pair<LinkId, Bytes>> frames;
};

BdAddr filler_address(std::uint32_t i) {
  std::array<std::uint8_t, 6> bytes = {0xc0, 0xfe,
                                       static_cast<std::uint8_t>((i >> 24) & 0xFF),
                                       static_cast<std::uint8_t>((i >> 16) & 0xFF),
                                       static_cast<std::uint8_t>((i >> 8) & 0xFF),
                                       static_cast<std::uint8_t>(i & 0xFF)};
  return BdAddr(bytes);
}

class RadioScaleTest : public ::testing::Test {
 protected:
  RadioScaleTest() : medium(sched, Rng(5)) {}

  /// Attach `count` page+inquiry-scanning endpoints with unique addresses.
  void attach_fillers(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      fillers.push_back(std::make_unique<FakeEndpoint>(
          filler_address(static_cast<std::uint32_t>(i)), kSecond));
      medium.attach(fillers.back().get());
    }
  }

  Scheduler sched;
  RadioMedium medium;
  std::vector<std::unique_ptr<FakeEndpoint>> fillers;
};

// The spoofing race from test_radio.cpp, but buried in a 2000-endpoint
// crowd: only the two owners of the paged address may be sampled, and the
// fixed latencies still pick the winner deterministically.
TEST_F(RadioScaleTest, SpoofedDuplicatesResolveInsideLargeCrowd) {
  attach_fillers(1000);
  const BdAddr shared = *BdAddr::parse("00:00:00:00:00:02");
  FakeEndpoint pager(*BdAddr::parse("00:00:00:00:00:01"), kSecond);
  FakeEndpoint real(shared, kSecond);
  FakeEndpoint spoof(shared, kSecond);
  real.fixed_latency_ = 800;
  spoof.fixed_latency_ = 300;
  medium.attach(&pager);
  medium.attach(&real);
  attach_fillers(1000);  // spoof attaches far from the real device
  medium.attach(&spoof);

  std::optional<LinkId> result;
  medium.page(&pager, shared, 5 * kSecond, [&](std::optional<LinkId> id) { result = id; });
  sched.run_all();

  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(real.links.size(), 0u);
  ASSERT_EQ(spoof.links.size(), 1u);
  EXPECT_EQ(real.latency_samples, 1);  // both owners raced...
  EXPECT_EQ(spoof.latency_samples, 1);
  for (const auto& filler : fillers)  // ...and nobody else was touched
    ASSERT_EQ(filler->latency_samples, 0);
  EXPECT_EQ(medium.link_between(pager.addr_, shared), result);
}

// link_between must return the lowest live link id when a spoofing scenario
// stacks several links over one address pair.
TEST_F(RadioScaleTest, LinkBetweenPicksLowestIdAmongDuplicates) {
  attach_fillers(500);
  const BdAddr shared = *BdAddr::parse("00:00:00:00:00:02");
  FakeEndpoint pager(*BdAddr::parse("00:00:00:00:00:01"), kSecond);
  FakeEndpoint real(shared, kSecond);
  FakeEndpoint spoof(shared, kSecond);
  real.fixed_latency_ = 800;
  spoof.fixed_latency_ = 300;
  medium.attach(&pager);
  medium.attach(&real);
  medium.attach(&spoof);

  std::optional<LinkId> first, second;
  medium.page(&pager, shared, 5 * kSecond, [&](std::optional<LinkId> id) { first = id; });
  medium.page(&pager, shared, 5 * kSecond, [&](std::optional<LinkId> id) { second = id; });
  sched.run_all();

  ASSERT_TRUE(first.has_value() && second.has_value());
  ASSERT_LT(*first, *second);
  EXPECT_EQ(medium.link_between(pager.addr_, shared), first);
  medium.close_link(*first, &pager, close_reason::kRemoteUserTerminated);
  EXPECT_EQ(medium.link_between(pager.addr_, shared), second);
  EXPECT_EQ(medium.link_between(pager.addr_, filler_address(3)), std::nullopt);
}

// The index enumerates candidates in attach order — the order the linear
// scan drew latencies from the shared Rng stream in. This is what keeps
// every seeded scenario's Rng consumption byte-identical.
TEST_F(RadioScaleTest, CandidatesSampledInAttachOrder) {
  const BdAddr shared = *BdAddr::parse("00:00:00:00:00:02");
  FakeEndpoint pager(*BdAddr::parse("00:00:00:00:00:01"), kSecond);
  FakeEndpoint x(shared, kSecond), y(shared, kSecond), z(shared, kSecond);
  std::vector<const FakeEndpoint*> order;
  x.sample_order = y.sample_order = z.sample_order = &order;

  medium.attach(&pager);
  attach_fillers(50);
  medium.attach(&y);
  attach_fillers(50);
  medium.attach(&z);
  attach_fillers(50);
  medium.attach(&x);

  medium.page(&pager, shared, 5 * kSecond, nullptr);
  sched.run_all();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], &y);
  EXPECT_EQ(order[1], &z);
  EXPECT_EQ(order[2], &x);
}

// Full equivalence with the pre-index algorithm: replay the linear scan
// over the attachment vector with an identically-seeded Rng and check the
// medium drew the same latencies and picked the same winner.
TEST_F(RadioScaleTest, IndexedPageMatchesLinearReferenceDraws) {
  const std::uint64_t seed = 77;
  medium.set_rng(Rng(seed));
  const BdAddr shared = *BdAddr::parse("00:00:00:00:00:02");
  FakeEndpoint pager(*BdAddr::parse("00:00:00:00:00:01"), kSecond);
  medium.attach(&pager);

  // Attachment vector in attach order, candidates scattered through it.
  std::vector<FakeEndpoint*> attach_order{&pager};
  std::vector<FakeEndpoint*> candidates;
  std::vector<std::unique_ptr<FakeEndpoint>> crowd;
  for (std::uint32_t i = 0; i < 300; ++i) {
    const bool is_candidate = i == 3 || i == 59 || i == 150 || i == 299;
    crowd.push_back(std::make_unique<FakeEndpoint>(
        is_candidate ? shared : filler_address(i), kSecond + 13 * i));
    medium.attach(crowd.back().get());
    attach_order.push_back(crowd.back().get());
    if (is_candidate) candidates.push_back(crowd.back().get());
  }

  medium.page(&pager, shared, 60 * kSecond, nullptr);
  sched.run_all();

  // Linear reference: same scan, same draws, same strict-< argmin.
  Rng reference(seed);
  FakeEndpoint* expected_winner = nullptr;
  SimTime best = 0;
  std::vector<SimTime> expected_draws;
  for (FakeEndpoint* ep : attach_order) {
    if (ep == &pager || !ep->page_scan_ || !(ep->addr_ == shared)) continue;
    const SimTime latency = 1 + reference.uniform(ep->scan_interval_);
    expected_draws.push_back(latency);
    if (expected_winner == nullptr || latency < best) {
      expected_winner = ep;
      best = latency;
    }
  }

  ASSERT_EQ(candidates.size(), 4u);
  std::vector<SimTime> actual_draws;
  for (FakeEndpoint* c : candidates) {
    ASSERT_EQ(c->sampled_values.size(), 1u);
    actual_draws.push_back(c->sampled_values[0]);
  }
  EXPECT_EQ(actual_draws, expected_draws);
  ASSERT_NE(expected_winner, nullptr);
  ASSERT_EQ(expected_winner->links.size(), 1u);
  for (FakeEndpoint* c : candidates) {
    if (c != expected_winner) {
      EXPECT_TRUE(c->links.empty());
    }
  }
}

// page() and start_inquiry() re-read the live scan bits on the candidate
// set, so flipping a bit without notify_endpoint_changed() is tolerated —
// the indexed bits are a superset filter, never the final answer.
TEST_F(RadioScaleTest, LiveScanBitsRecheckedWithoutNotify) {
  FakeEndpoint a(*BdAddr::parse("00:00:00:00:00:01"), kSecond);
  FakeEndpoint b(*BdAddr::parse("00:00:00:00:00:02"), kSecond);
  medium.attach(&a);
  medium.attach(&b);
  b.page_scan_ = false;     // flipped post-attach, no notify
  b.inquiry_scan_ = false;

  bool connected = true;
  medium.page(&a, b.addr_, kSecond, [&](std::optional<LinkId> id) { connected = id.has_value(); });
  std::size_t responses = 0;
  medium.start_inquiry(&a, 2 * kSecond, [&](const InquiryResponse&) { ++responses; },
                       nullptr);
  sched.run_all();
  EXPECT_FALSE(connected);
  EXPECT_EQ(b.latency_samples, 0);
  EXPECT_EQ(responses, 0u);
}

// Address changes DO require the notify: it re-keys both the BD_ADDR index
// and the address-pair index of live links.
TEST_F(RadioScaleTest, NotifyRekeysAddressIndexAndLiveLinks) {
  FakeEndpoint a(*BdAddr::parse("00:00:00:00:00:01"), kSecond);
  FakeEndpoint b(*BdAddr::parse("00:00:00:00:00:02"), kSecond);
  medium.attach(&a);
  medium.attach(&b);
  const BdAddr old_addr = b.addr_;
  std::optional<LinkId> link;
  medium.page(&a, b.addr_, 5 * kSecond, [&](std::optional<LinkId> id) { link = id; });
  sched.run_all();
  ASSERT_TRUE(link.has_value());

  b.addr_ = *BdAddr::parse("00:00:00:00:00:99");  // spoof mid-link
  medium.notify_endpoint_changed(&b);

  EXPECT_EQ(medium.link_between(a.addr_, b.addr_), link);
  EXPECT_EQ(medium.link_between(a.addr_, old_addr), std::nullopt);

  // New pages resolve against the new identity, not the stale key.
  bool found_new = false, found_old = true;
  medium.page(&a, b.addr_, 5 * kSecond,
              [&](std::optional<LinkId> id) { found_new = id.has_value(); });
  medium.page(&a, old_addr, kSecond,
              [&](std::optional<LinkId> id) { found_old = id.has_value(); });
  sched.run_all();
  EXPECT_TRUE(found_new);
  EXPECT_FALSE(found_old);
}

// Batched responses were captured by value at inquiry start — exactly like
// the per-response events of the unbatched path — so a responder detaching
// mid-window does not cancel its pending response, and the completion
// callback still fires at the end of the window.
TEST_F(RadioScaleTest, DetachMidInquiryStillDeliversPendingBatchedResponses) {
  medium.set_inquiry_batch_threshold(1);  // force the batch path
  FakeEndpoint requester(*BdAddr::parse("00:00:00:00:00:01"), kSecond);
  medium.attach(&requester);
  attach_fillers(24);

  std::vector<std::pair<SimTime, BdAddr>> seen;
  bool complete = false;
  medium.start_inquiry(&requester, 2 * kSecond,
                       [&](const InquiryResponse& r) { seen.emplace_back(sched.now(), r.address); },
                       [&] { complete = true; });
  // Latencies are >= 1, so a time-0 event detaches while every batched
  // response is still pending.
  FakeEndpoint* doomed = fillers[7].get();
  sched.schedule_in(0, [&] { medium.detach(doomed); });
  sched.run_all();

  EXPECT_EQ(seen.size(), 24u);
  EXPECT_TRUE(complete);
  bool doomed_heard = false;
  for (const auto& [when, addr] : seen)
    if (addr == doomed->addr_) doomed_heard = true;
  EXPECT_TRUE(doomed_heard);
  EXPECT_EQ(medium.endpoint_count(), 24u);
}

// The batch cursor must replay the exact delivery schedule the individual
// events would have produced: same timestamps, same order within each
// same-instant group, same Rng consumption afterwards.
TEST_F(RadioScaleTest, BatchedAndUnbatchedInquiriesDeliverIdentically) {
  struct Run {
    std::vector<std::pair<SimTime, BdAddr>> seen;
    SimTime completed_at = 0;
    SimTime follow_up_draw = 0;
  };
  auto run_with_threshold = [](std::size_t threshold) {
    Run run;
    Scheduler own_sched;
    RadioMedium own_medium(own_sched, Rng(11));
    own_medium.set_inquiry_batch_threshold(threshold);
    FakeEndpoint requester(*BdAddr::parse("00:00:00:00:00:01"), kSecond);
    own_medium.attach(&requester);
    std::vector<std::unique_ptr<FakeEndpoint>> crowd;
    for (std::uint32_t i = 0; i < 40; ++i) {
      crowd.push_back(std::make_unique<FakeEndpoint>(filler_address(i), kSecond));
      own_medium.attach(crowd.back().get());
    }
    // A short window concentrates responses into shared instants, which is
    // the case the cursor's same-instant grouping has to get right.
    own_medium.start_inquiry(&requester, 20,
                             [&](const InquiryResponse& r) {
                               run.seen.emplace_back(own_sched.now(), r.address);
                             },
                             [&] { run.completed_at = own_sched.now(); });
    own_sched.run_all();
    // The medium Rng must land in the same state either way: one more page
    // consumes the next draw, observable as the sampled latency.
    own_medium.page(&requester, crowd[0]->addr_, 5 * kSecond, nullptr);
    own_sched.run_all();
    run.follow_up_draw = crowd[0]->sampled_values.at(0);
    return run;
  };

  const Run batched = run_with_threshold(1);
  const Run unbatched = run_with_threshold(1'000'000);
  ASSERT_EQ(batched.seen.size(), 40u);
  EXPECT_EQ(batched.seen, unbatched.seen);
  EXPECT_EQ(batched.completed_at, unbatched.completed_at);
  EXPECT_EQ(batched.follow_up_draw, unbatched.follow_up_draw);
}

// Generation-checked liveness is strictly stronger than the pointer scan it
// replaced: an endpoint that detaches and re-attaches while a page train is
// in flight is a *new* attachment (new generation), so the old page must
// not come up against it. ABA on the raw pointer cannot resurrect the link.
TEST_F(RadioScaleTest, ReattachedEndpointDoesNotResurrectPendingLink) {
  FakeEndpoint a(*BdAddr::parse("00:00:00:00:00:01"), kSecond);
  FakeEndpoint b(*BdAddr::parse("00:00:00:00:00:02"), kSecond);
  b.fixed_latency_ = 500;
  medium.attach(&a);
  medium.attach(&b);

  std::optional<LinkId> result = LinkId{99};
  bool called = false;
  medium.page(&a, b.addr_, 5 * kSecond, [&](std::optional<LinkId> id) {
    result = id;
    called = true;
  });
  sched.schedule_in(100, [&] {
    medium.detach(&b);
    medium.attach(&b);  // same pointer, new generation
  });
  sched.run_all();

  EXPECT_TRUE(called);
  EXPECT_FALSE(result.has_value());
  EXPECT_TRUE(b.links.empty());

  // The re-attached endpoint is fully live for fresh pages.
  bool reconnected = false;
  medium.page(&a, b.addr_, 5 * kSecond,
              [&](std::optional<LinkId> id) { reconnected = id.has_value(); });
  sched.run_all();
  EXPECT_TRUE(reconnected);
}

// Only inquiry-scanning endpoints respond — and the scanner registry gives
// the same answer as walking all 3000 attachments would.
TEST_F(RadioScaleTest, InquiryHearsOnlyScannersInLargeCrowd) {
  FakeEndpoint requester(*BdAddr::parse("00:00:00:00:00:01"), kSecond);
  medium.attach(&requester);
  attach_fillers(3000);
  std::vector<FakeEndpoint*> quiet;
  for (std::size_t i = 0; i < fillers.size(); ++i)
    if (i % 100 != 0) {  // 30 of 3000 keep scanning
      fillers[i]->inquiry_scan_ = false;
      quiet.push_back(fillers[i].get());
    }
  // Scan bits changed after attach: route through the notify, as the
  // Controller's HCI write path does.
  for (FakeEndpoint* ep : quiet) medium.notify_endpoint_changed(ep);

  std::size_t responses = 0;
  bool complete = false;
  medium.start_inquiry(&requester, 2 * kSecond,
                       [&](const InquiryResponse&) { ++responses; }, [&] { complete = true; });
  sched.run_all();
  EXPECT_EQ(responses, 30u);
  EXPECT_TRUE(complete);
}

// Snapshot round-trip through the index: restoring onto a fresh medium and
// re-serialising must reproduce the exact bytes, and the restored index
// must answer link_between / peer_of / new pages correctly.
TEST_F(RadioScaleTest, SaveLoadRoundTripsThroughTheIndex) {
  const BdAddr shared = *BdAddr::parse("00:00:00:00:00:02");
  FakeEndpoint pager(*BdAddr::parse("00:00:00:00:00:01"), kSecond);
  FakeEndpoint real(shared, kSecond);
  FakeEndpoint spoof(shared, kSecond);
  real.fixed_latency_ = 800;
  spoof.fixed_latency_ = 300;
  medium.attach(&pager);
  medium.attach(&real);
  medium.attach(&spoof);
  std::optional<LinkId> link;
  medium.page(&pager, shared, 5 * kSecond, [&](std::optional<LinkId> id) { link = id; });
  sched.run_all();
  ASSERT_TRUE(link.has_value());

  const std::vector<RadioEndpoint*> roster{&pager, &real, &spoof};
  state::StateWriter w;
  ASSERT_TRUE(medium.persist(w, roster));
  const std::vector<std::uint8_t> bytes = w.take();

  Scheduler sched2;
  RadioMedium medium2(sched2, Rng(999));  // overwritten by the restore
  state::StateReader r(BytesView(bytes.data(), bytes.size()), state::RestoreMode::kRewind);
  medium2.persist(r, roster);
  ASSERT_TRUE(r.ok()) << r.error();

  state::StateWriter w2;
  ASSERT_TRUE(medium2.persist(w2, roster));
  EXPECT_EQ(w2.data(), bytes);

  EXPECT_EQ(medium2.link_between(pager.addr_, shared), link);
  EXPECT_EQ(medium2.peer_of(*link, &pager), &spoof);
  bool connected = false;
  medium2.page(&pager, shared, 5 * kSecond,
               [&](std::optional<LinkId> id) { connected = id.has_value(); });
  sched2.run_all();
  EXPECT_TRUE(connected);
}

TEST(EndpointRegistryLoad, UnchangedOrderEqualsFullRebuild) {
  // Spoofed duplicates, mixed scan bits, and endpoints changed behind the
  // registry's back: a load re-reads every endpoint's address and scan bits
  // whether it keeps the indexes or rebuilds them.
  const BdAddr a = filler_address(1), b = filler_address(2), c = filler_address(3);
  std::vector<std::unique_ptr<FakeEndpoint>> endpoints;
  for (const BdAddr& addr : {a, b, a, c, b, c})
    endpoints.push_back(std::make_unique<FakeEndpoint>(addr, 100));
  endpoints[2]->inquiry_scan_ = false;
  endpoints[4]->page_scan_ = false;
  std::vector<RadioEndpoint*> order;
  for (const auto& endpoint : endpoints) order.push_back(endpoint.get());

  EndpointRegistry kept;
  EndpointRegistry rebuilt;
  for (RadioEndpoint* endpoint : order) {
    kept.attach(endpoint);
    rebuilt.attach(endpoint);
  }
  endpoints[1]->inquiry_scan_ = false;  // no notify
  endpoints[5]->addr_ = a;              // spoofed, no notify
  kept.load(order);
  const std::vector<RadioEndpoint*> reversed(order.rbegin(), order.rend());
  rebuilt.load(reversed);  // a different order forces the full rebuild,
  rebuilt.load(order);     // and so does going back to the original one

  struct View {
    std::vector<const RadioEndpoint*> attached;
    std::vector<std::tuple<const RadioEndpoint*, std::uint32_t, std::uint32_t>> candidates;
    std::vector<const RadioEndpoint*> scanners;
    bool operator==(const View&) const = default;
  };
  const auto view = [&](const EndpointRegistry& registry) {
    View v;
    registry.for_each_attached([&](const RadioEndpoint* e) { v.attached.push_back(e); });
    for (const BdAddr& addr : {a, b, c}) {
      registry.for_each_candidate(addr, [&](const RadioEndpoint* e, EndpointHandle h) {
        v.candidates.emplace_back(e, h.slot, h.generation);
      });
    }
    registry.for_each_inquiry_scanner([&](const RadioEndpoint* e) { v.scanners.push_back(e); });
    return v;
  };
  EXPECT_EQ(view(kept), view(rebuilt));
  EXPECT_EQ(kept.size(), order.size());
  EXPECT_EQ(kept.inquiry_scanner_count(), 4u);
}

}  // namespace
}  // namespace blap::radio
