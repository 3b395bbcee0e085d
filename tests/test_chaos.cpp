// Failpoint registry, chaos campaign determinism, and the teardown-race
// regression the early failpoint runs exposed.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "chaos/chaos_campaign.hpp"
#include "chaos/failpoint.hpp"
#include "hci/packets.hpp"
#include "snapshot/chaos_trial.hpp"
#include "snapshot/scenarios.hpp"

namespace blap {
namespace {

TEST(Failpoint, OffByDefault) {
  ASSERT_EQ(chaos::tl_plan, nullptr);
  // With no plan armed the macro is one never-taken branch: no counting, no
  // firing, no side effects.
  EXPECT_FALSE(BLAP_FAILPOINT("test.unit.site"));
}

TEST(Failpoint, RecorderCountsButNeverFires) {
  auto plan = chaos::ChaosPlan::recorder();
  chaos::ScopedChaosPlan armed(plan);
  for (int i = 0; i < 5; ++i) EXPECT_FALSE(BLAP_FAILPOINT("test.unit.a"));
  EXPECT_FALSE(BLAP_FAILPOINT("test.unit.b"));
  EXPECT_EQ(plan.hits().at("test.unit.a"), 5u);
  EXPECT_EQ(plan.hits().at("test.unit.b"), 1u);
  EXPECT_EQ(plan.total_hits(), 6u);
  EXPECT_EQ(plan.fired(), 0u);
}

TEST(Failpoint, InjectFiresAtExactOrdinal) {
  auto plan = chaos::ChaosPlan::inject({{"test.unit.a", 2}});
  chaos::ScopedChaosPlan armed(plan);
  EXPECT_FALSE(BLAP_FAILPOINT("test.unit.a"));  // ordinal 0
  EXPECT_FALSE(BLAP_FAILPOINT("test.unit.a"));  // ordinal 1
  EXPECT_FALSE(BLAP_FAILPOINT("test.unit.b"));  // other sites never fire
  EXPECT_TRUE(BLAP_FAILPOINT("test.unit.a"));   // ordinal 2: the armed one
  EXPECT_FALSE(BLAP_FAILPOINT("test.unit.a"));  // ordinal 3
  EXPECT_EQ(plan.fired(), 1u);

  // reset_counts() keeps the armed fault but forgets ordinals: the next
  // trial fires at the same (site, ordinal) again.
  plan.reset_counts();
  EXPECT_EQ(plan.total_hits(), 0u);
  EXPECT_FALSE(BLAP_FAILPOINT("test.unit.a"));
  EXPECT_FALSE(BLAP_FAILPOINT("test.unit.a"));
  EXPECT_TRUE(BLAP_FAILPOINT("test.unit.a"));
  EXPECT_EQ(plan.fired(), 1u);
}

TEST(Failpoint, RandomModeIsReplayable) {
  std::vector<bool> first, second;
  for (std::vector<bool>* out : {&first, &second}) {
    auto plan = chaos::ChaosPlan::random(42, 0.5);
    chaos::ScopedChaosPlan armed(plan);
    for (int i = 0; i < 64; ++i) out->push_back(BLAP_FAILPOINT("test.unit.soak"));
  }
  EXPECT_EQ(first, second);
  const auto fired = static_cast<std::size_t>(std::count(first.begin(), first.end(), true));
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, 64u);
}

TEST(Failpoint, ScopedArmingNestsAndRestores) {
  auto outer = chaos::ChaosPlan::recorder();
  chaos::ScopedChaosPlan armed_outer(outer);
  {
    auto inner = chaos::ChaosPlan::recorder();
    chaos::ScopedChaosPlan armed_inner(inner);
    (void)BLAP_FAILPOINT("test.unit.nested");
    EXPECT_EQ(inner.total_hits(), 1u);
  }
  EXPECT_EQ(chaos::tl_plan, &outer);
  EXPECT_EQ(outer.total_hits(), 0u);
}

TEST(FaultSites, EncodeDecodeRoundTrip) {
  const std::vector<chaos::FaultSite> sites{{"controller.arq.report_lost", 3},
                                            {"radio.frame.drop", 0}};
  const std::string text = chaos::encode_fault_sites(sites);
  EXPECT_EQ(text, "controller.arq.report_lost@3+radio.frame.drop@0");
  std::vector<chaos::FaultSite> back;
  ASSERT_TRUE(chaos::decode_fault_sites(text, back));
  EXPECT_EQ(back, sites);
}

TEST(FaultSites, DecodeRejectsMalformedText) {
  std::vector<chaos::FaultSite> out;
  EXPECT_FALSE(chaos::decode_fault_sites("no-ordinal", out));
  EXPECT_FALSE(chaos::decode_fault_sites("site@", out));
  EXPECT_FALSE(chaos::decode_fault_sites("@3", out));
  EXPECT_FALSE(chaos::decode_fault_sites("site@12x", out));
  EXPECT_FALSE(chaos::decode_fault_sites("a@1+b@", out));
}

// The fix the early failpoint runs forced (ISSUE 9 satellite): a supervision
// timeout delivered while teardown_link() is already running for the same
// handle must not double-notify the host. The failpoint replays exactly that
// race — supervision_timeout() re-enters at teardown entry — and the host
// must see exactly one Disconnection_Complete.
TEST(TeardownRace, SupervisionTimeoutDuringTeardownNotifiesOnce) {
  snapshot::Scenario s = snapshot::build_scenario(10'000, snapshot::bonded_cell_params());
  snapshot::bonded_warm_setup(s);

  bool pan_up = false;
  s.accessory->host().connect_pan(s.target->address(), [&pan_up](bool ok) { pan_up = ok; });
  s.sim->run_for(20 * kSecond);
  ASSERT_TRUE(pan_up);

  int disconnection_completes = 0;
  s.accessory->transport().add_tap(
      [&disconnection_completes](hci::Direction dir, const hci::HciPacket& packet) {
        if (dir == hci::Direction::kControllerToHost &&
            packet.type == hci::PacketType::kEvent &&
            packet.event_code() == hci::ev::kDisconnectionComplete)
          ++disconnection_completes;
      });

  auto plan = chaos::ChaosPlan::inject({{"controller.teardown.supervision_race", 0}});
  chaos::ScopedChaosPlan armed(plan);
  s.accessory->host().disconnect(s.target->address());
  s.sim->run_for(20 * kSecond);

  EXPECT_EQ(plan.fired(), 1u);
  EXPECT_EQ(disconnection_completes, 1);
  EXPECT_TRUE(s.accessory->host().acls().empty());
  EXPECT_TRUE(s.accessory->controller().audit_links().empty());
}

// A refused restore must report a time that depends only on the trial. The
// worker scenario here is dirtied first (its clock pushed far past the warm
// capture, as a previous trial on a reused worker would leave it), so
// reporting the scenario's clock would show up as a mismatch.
TEST(ChaosTrial, CleanErrorReportsWarmCaptureTimeOnDirtyWorker) {
  snapshot::Scenario probe = snapshot::build_scenario(10'000, snapshot::bonded_cell_params());
  snapshot::bonded_warm_setup(probe);
  std::string why;
  const auto warm = snapshot::Snapshot::capture(*probe.sim, &why);
  ASSERT_TRUE(warm.has_value()) << why;

  snapshot::Scenario worker = snapshot::build_scenario(10'000, snapshot::bonded_cell_params());
  snapshot::bonded_warm_setup(worker);
  worker.sim->run_for(300 * kSecond);
  ASSERT_NE(worker.sim->now(), warm->captured_at());

  auto plan = chaos::ChaosPlan::inject({{"snapshot.load.header_reject", 0}});
  const auto report = snapshot::run_chaos_trial(worker, *warm, 10'000, plan);
  EXPECT_EQ(report.outcome, snapshot::ChaosOutcome::kCleanError);
  EXPECT_EQ(report.fired, 1u);
  EXPECT_EQ(report.virtual_end, warm->captured_at());
}

// The report must be a pure function of the config: same sweep on 1 worker
// and on 8 workers, byte-identical JSON (the CI smoke job diffs exactly
// this). A reduced ordinal cap keeps the test inside a ctest budget.
TEST(ChaosCampaign, ReportIsWorkerCountIndependent) {
  campaign::ChaosCampaignConfig config;
  config.ordinal_cap = 2;
  config.pairs = true;
  config.pair_cap = 8;

  config.jobs = 1;
  const auto serial = campaign::run_chaos_campaign(config);
  config.jobs = 8;
  const auto pooled = campaign::run_chaos_campaign(config);

  ASSERT_TRUE(serial.explored) << serial.fallback_reason;
  ASSERT_TRUE(pooled.explored) << pooled.fallback_reason;
  EXPECT_GT(serial.singles, 0u);
  EXPECT_EQ(serial.pair_trials, 8u);
  EXPECT_EQ(serial.to_json(), pooled.to_json());
}

TEST(ChaosCampaign, BaselineIsCleanAndCoversTheStack) {
  campaign::ChaosCampaignConfig config;
  config.ordinal_cap = 1;  // one trial per reachable site
  const auto report = campaign::run_chaos_campaign(config);
  ASSERT_TRUE(report.explored) << report.fallback_reason;
  EXPECT_EQ(report.baseline.outcome, snapshot::ChaosOutcome::kCompleted);
  EXPECT_EQ(report.baseline.fired, 0u);
  EXPECT_GE(report.sites, 15u);
  EXPECT_EQ(report.singles, report.sites);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_EQ(report.stuck, 0u);
  // Sites from every instrumented layer are reachable on the bonded cell.
  for (const char* prefix : {"controller.", "host.", "radio.", "transport.", "snapshot."}) {
    bool seen = false;
    for (const auto& [site, count] : report.baseline.hits)
      if (site.rfind(prefix, 0) == 0) seen = true;
    EXPECT_TRUE(seen) << "no reachable failpoint under '" << prefix << "'";
  }
}

// Violation details are free text from the monitor; the report must stay
// valid JSON whatever bytes they carry.
TEST(ChaosCampaign, ReportJsonEscapesControlCharacters) {
  campaign::ChaosCampaignReport report;
  campaign::ChaosTrialRecord rec;
  rec.outcome = snapshot::ChaosOutcome::kViolation;
  rec.violations.push_back({"link-table-agreement", "host\tacl\r\x01", 0});
  report.trials.push_back(rec);

  const std::string json = report.to_json();
  EXPECT_NE(json.find(R"("link-table-agreement: host\tacl\r\u0001")"), std::string::npos)
      << json;
}

}  // namespace
}  // namespace blap
