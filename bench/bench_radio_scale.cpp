// bench_radio_scale — radio medium throughput across population sizes.
//
// Measures the two hot paths the indexed medium rearchitecture targets,
// at N ∈ {10, 1k, 10k, 100k} attached endpoints:
//
//   * pages/sec — page() resolution + link bring-up, indexed (the live
//     implementation, O(log n + candidates)) versus an in-bench replica of
//     the pre-index linear scan (O(n) per page, with the O(n) std::find
//     attached() re-check at link-up), driving both with identical target
//     sequences;
//   * inquiry ns/event — one full inquiry storm with every endpoint
//     discoverable, through the batched response fan-out.
//
// Emits machine-readable BENCH_radio_scale.json (override the path with
// BLAP_JSON), stamped with the commit, the build type and the core count, so
// the perf trajectory is tracked across PRs; wall-derived rates are the
// *point* of this artifact, so unlike the campaign JSONs it is not
// byte-stable across runs.
//
// Env: BLAP_SCALE_POPULATIONS (comma list, default 10,1000,10000,100000),
// BLAP_SCALE_PAGES (page ops per measurement, default 2000), BLAP_JSON.
//
// Exits nonzero if N=10k is measured and the indexed medium fails a >= 10x
// pages/sec speedup over the linear replica — the regression gate CI runs.
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "radio/crowd.hpp"
#include "radio/radio_medium.hpp"

namespace {

using namespace blap;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Minimal endpoint for raw medium throughput: fixed identity, always
/// scanning, uniform page-scan latency over R1.
class ScaleEndpoint final : public radio::RadioEndpoint {
 public:
  explicit ScaleEndpoint(BdAddr address) : address_(address) {}
  [[nodiscard]] BdAddr radio_address() const override { return address_; }
  [[nodiscard]] ClassOfDevice radio_class_of_device() const override {
    return ClassOfDevice(ClassOfDevice::kMobilePhone);
  }
  [[nodiscard]] std::string radio_name() const override { return "scale"; }
  [[nodiscard]] bool inquiry_scan_enabled() const override { return true; }
  [[nodiscard]] bool page_scan_enabled() const override { return true; }
  [[nodiscard]] SimTime sample_page_response_latency(Rng& rng) override {
    return 1 + rng.uniform(2048 * kSlot);
  }
  void on_link_established(radio::LinkId, const BdAddr&, bool) override {}
  void on_link_closed(radio::LinkId, std::uint8_t) override {}
  void on_air_frame(radio::LinkId, const Bytes&) override {}

 private:
  BdAddr address_;
};

/// The pre-index page() algorithm, preserved as the bench baseline: linear
/// candidate scan over the whole attachment vector, plus the linear
/// attached() re-check at link-up — exactly what the medium did before the
/// registry. Lives in bench code only; the linter bans this shape from
/// src/radio/.
class LinearPager {
 public:
  LinearPager(Scheduler& scheduler, Rng rng) : scheduler_(scheduler), rng_(rng) {}

  void attach(radio::RadioEndpoint* endpoint) { endpoints_.push_back(endpoint); }

  void page(radio::RadioEndpoint* initiator, const BdAddr& target, SimTime timeout) {
    radio::RadioEndpoint* winner = nullptr;
    SimTime best_latency = 0;
    for (radio::RadioEndpoint* ep : endpoints_) {
      if (ep == initiator || !ep->page_scan_enabled()) continue;
      if (!(ep->radio_address() == target)) continue;
      const SimTime latency = ep->sample_page_response_latency(rng_);
      if (winner == nullptr || latency < best_latency) {
        winner = ep;
        best_latency = latency;
      }
    }
    if (winner == nullptr || best_latency > timeout) {
      scheduler_.schedule_in(timeout, [] {});
      return;
    }
    const std::uint64_t id = next_link_id_++;
    radio::RadioEndpoint* responder = winner;
    // blap-taint: lifetime-ok — bench-local replica medium: endpoints_ membership
    // is re-checked by the linear scan below before either pointer is used
    scheduler_.schedule_in(best_latency, [this, id, initiator, responder] {
      if (std::find(endpoints_.begin(), endpoints_.end(), initiator) == endpoints_.end() ||
          std::find(endpoints_.begin(), endpoints_.end(), responder) == endpoints_.end())
        return;
      links_.emplace(id, std::make_pair(initiator, responder));
    });
  }

  [[nodiscard]] std::size_t links() const { return links_.size(); }

 private:
  Scheduler& scheduler_;
  Rng rng_;
  std::vector<radio::RadioEndpoint*> endpoints_;
  std::map<std::uint64_t, std::pair<radio::RadioEndpoint*, radio::RadioEndpoint*>> links_;
  std::uint64_t next_link_id_ = 1;
};

std::vector<std::size_t> population_axis() {
  std::vector<std::size_t> axis;
  const char* env = std::getenv("BLAP_SCALE_POPULATIONS");
  std::string spec = env != nullptr ? env : "10,1000,10000,100000";
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string token =
        spec.substr(pos, comma == std::string::npos ? spec.npos : comma - pos);
    if (!token.empty()) axis.push_back(std::strtoull(token.c_str(), nullptr, 0));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (axis.empty()) axis = {10, 1000, 10000, 100000};
  return axis;
}

struct Row {
  std::size_t population = 0;
  double indexed_pages_per_sec = 0.0;
  double linear_pages_per_sec = 0.0;
  double speedup = 0.0;
  double inquiry_ns_per_event = 0.0;
  std::size_t inquiry_responses = 0;
};

}  // namespace

int main() {
  using namespace blap::bench;

  std::size_t pages = 2000;
  if (const char* env = std::getenv("BLAP_SCALE_PAGES"))
    pages = std::strtoull(env, nullptr, 0);
  const auto axis = population_axis();

  banner("RADIO SCALE — pages/sec and inquiry ns/event vs population");
  std::printf("%-10s | %-16s | %-16s | %-8s | %-14s\n", "population", "indexed pages/s",
              "linear pages/s", "speedup", "inquiry ns/ev");
  std::printf("%s\n", std::string(76, '-').c_str());

  std::vector<Row> rows;
  bool gate_failed = false;
  for (const std::size_t n : axis) {
    Row row;
    row.population = n;

    std::vector<std::unique_ptr<ScaleEndpoint>> fleet;
    fleet.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      fleet.push_back(std::make_unique<ScaleEndpoint>(
          radio::Crowd::member_address(static_cast<std::uint32_t>(i))));

    // --- indexed: the live medium --------------------------------------
    {
      Scheduler scheduler;
      radio::RadioMedium medium(scheduler, Rng(42));
      for (const auto& ep : fleet) medium.attach(ep.get());
      Rng targets(7);
      const auto start = Clock::now();
      for (std::size_t p = 0; p < pages; ++p) {
        const auto t = static_cast<std::uint32_t>(targets.uniform(n));
        medium.page(fleet[t == 0 && n > 1 ? 1 : 0].get(), radio::Crowd::member_address(t),
                    2 * 2048 * kSlot, nullptr);
      }
      scheduler.run_all();
      row.indexed_pages_per_sec = static_cast<double>(pages) / seconds_since(start);
    }

    // --- linear replica of the pre-index algorithm ---------------------
    {
      // The linear scan is O(n) per page *and* per link-up; cap the op
      // count so the 100k row finishes, and normalise to pages/sec.
      const std::size_t linear_pages =
          std::min(pages, std::max<std::size_t>(100, 20'000'000 / std::max<std::size_t>(n, 1)));
      Scheduler scheduler;
      LinearPager pager(scheduler, Rng(42));
      for (const auto& ep : fleet) pager.attach(ep.get());
      Rng targets(7);
      const auto start = Clock::now();
      for (std::size_t p = 0; p < linear_pages; ++p) {
        const auto t = static_cast<std::uint32_t>(targets.uniform(n));
        pager.page(fleet[t == 0 && n > 1 ? 1 : 0].get(), radio::Crowd::member_address(t),
                   2 * 2048 * kSlot);
      }
      scheduler.run_all();
      row.linear_pages_per_sec = static_cast<double>(linear_pages) / seconds_since(start);
    }
    row.speedup = row.linear_pages_per_sec > 0.0
                      ? row.indexed_pages_per_sec / row.linear_pages_per_sec
                      : 0.0;

    // --- inquiry storm: every endpoint discoverable --------------------
    {
      Scheduler scheduler;
      radio::RadioMedium medium(scheduler, Rng(42));
      for (const auto& ep : fleet) medium.attach(ep.get());
      std::size_t responses = 0;
      const auto start = Clock::now();
      medium.start_inquiry(fleet[0].get(), 2 * kSecond,
                           [&responses](const radio::InquiryResponse&) { ++responses; },
                           nullptr);
      scheduler.run_all();
      const double wall = seconds_since(start);
      row.inquiry_responses = responses;
      row.inquiry_ns_per_event =
          responses > 0 ? wall * 1e9 / static_cast<double>(responses) : 0.0;
    }

    std::printf("%-10zu | %16.0f | %16.0f | %7.1fx | %14.1f\n", n,
                row.indexed_pages_per_sec, row.linear_pages_per_sec, row.speedup,
                row.inquiry_ns_per_event);
    if (n == 10'000 && row.speedup < 10.0) gate_failed = true;
    rows.push_back(row);
  }

  const char* json_path = std::getenv("BLAP_JSON");
  const std::string path = json_path != nullptr ? json_path : "BENCH_radio_scale.json";
  {
    std::ofstream out(path);
    out << "{\n  \"bench\": \"radio_scale\",\n"
        << "  \"commit\": \"" << BLAP_BENCH_COMMIT << "\",\n"
        << "  \"build_type\": \"" << BLAP_BENCH_BUILD_TYPE << "\",\n"
        << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      out << "    {\"population\": " << r.population
          << ", \"indexed_pages_per_sec\": " << static_cast<std::uint64_t>(r.indexed_pages_per_sec)
          << ", \"linear_pages_per_sec\": " << static_cast<std::uint64_t>(r.linear_pages_per_sec)
          << ", \"speedup\": " << r.speedup
          << ", \"inquiry_ns_per_event\": " << r.inquiry_ns_per_event
          << ", \"inquiry_responses\": " << r.inquiry_responses << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    out.flush();
    if (!out) {
      std::fprintf(stderr, "error: could not write %s\n", path.c_str());
      return 1;
    }
  }
  std::printf("\nperf JSON -> %s\n", path.c_str());

  if (gate_failed) {
    std::fprintf(stderr,
                 "error: indexed medium is under the 10x pages/sec gate at N=10k\n");
    return 1;
  }
  return 0;
}
