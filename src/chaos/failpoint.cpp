#include "chaos/failpoint.hpp"

#include <algorithm>
#include <cstdlib>

namespace blap::chaos {

constinit thread_local ChaosPlan* tl_plan = nullptr;

namespace {

// SplitMix64 (same constants as campaign::splitmix64; duplicated here so the
// base chaos library depends on nothing above common).
std::uint64_t splitmix64_step(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::string encode_fault_sites(const std::vector<FaultSite>& sites) {
  std::string out;
  for (const FaultSite& fault : sites) {
    if (!out.empty()) out += '+';
    out += fault.site + "@" + std::to_string(fault.ordinal);
  }
  return out;
}

bool decode_fault_sites(const std::string& text, std::vector<FaultSite>& out) {
  out.clear();
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('+', pos);
    if (end == std::string::npos) end = text.size();
    const std::string token = text.substr(pos, end - pos);
    const std::size_t at = token.rfind('@');
    if (at == std::string::npos || at == 0 || at + 1 >= token.size()) return false;
    FaultSite fault;
    fault.site = token.substr(0, at);
    const std::string ordinal = token.substr(at + 1);
    char* rest = nullptr;
    fault.ordinal = std::strtoull(ordinal.c_str(), &rest, 10);
    if (rest == ordinal.c_str() || *rest != '\0') return false;
    out.push_back(std::move(fault));
    pos = end + 1;
  }
  return true;
}

ChaosPlan ChaosPlan::recorder() {
  ChaosPlan plan;
  plan.record_only_ = true;
  return plan;
}

ChaosPlan ChaosPlan::inject(std::vector<FaultSite> faults) {
  ChaosPlan plan;
  std::sort(faults.begin(), faults.end());
  plan.faults_ = std::move(faults);
  return plan;
}

ChaosPlan ChaosPlan::random(std::uint64_t seed, double probability) {
  ChaosPlan plan;
  plan.probability_ = probability;
  plan.rng_state_ = seed;
  return plan;
}

bool ChaosPlan::on_hit(const char* site) {
  auto [it, inserted] = hits_.try_emplace(site, 0);
  const std::uint64_t ordinal = it->second++;
  if (record_only_) return false;
  if (probability_ > 0.0) {
    // 53-bit uniform in [0, 1) from the plan's own stream.
    const double draw =
        static_cast<double>(splitmix64_step(rng_state_) >> 11) * 0x1.0p-53;
    if (draw < probability_) {
      ++fired_;
      return true;
    }
    return false;
  }
  for (const FaultSite& fault : faults_) {
    if (fault.ordinal == ordinal && fault.site == it->first) {
      ++fired_;
      return true;
    }
  }
  return false;
}

std::uint64_t ChaosPlan::total_hits() const {
  std::uint64_t total = 0;
  for (const auto& [site, count] : hits_) total += count;
  return total;
}

void ChaosPlan::reset_counts() {
  hits_.clear();
  fired_ = 0;
}

bool failpoint_hit(const char* site) { return tl_plan->on_hit(site); }

}  // namespace blap::chaos
