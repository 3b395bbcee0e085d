// bench_snoop_analytics — fleet snoop-scan throughput.
//
// Measures the three layers of the analytics engine on a synthetic capture
// shaped like real pairing traffic (ACL-dominated, with the command/event
// punctuation the detectors key on):
//
//   * cursor GB/s    — raw SnoopCursor record iteration over an in-memory
//                      capture buffer: the zero-copy floor everything else
//                      pays on top of;
//   * detect GB/s    — the same walk through RecordCtx decode plus all four
//                      default detectors;
//   * files/sec      — analyze_files() over a directory of capture files at
//                      jobs ∈ {1, 2, 4, 8}, i.e. the mmap + worker-pool
//                      path blap-snoopd runs: the median and quartiles of
//                      several calls per row, and the speedup of the medians.
//
// Emits machine-readable BENCH_snoop_analytics.json (override the path with
// BLAP_JSON), stamped with the commit, the build type and the core count.
// Wall-derived rates are the point of this artifact, so unlike the campaign
// JSONs it is not byte-stable across runs.
//
//   bench_snoop_analytics [--smoke]
//
// --smoke shrinks the buffer and file counts for CI but keeps the gate:
// exits nonzero when the single-thread cursor walk is under 1 GB/s, the
// regression floor for the "thousands of captures per run" fleet target.
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "analytics/detector.hpp"
#include "analytics/fleet.hpp"
#include "hci/snoop.hpp"

namespace {

using namespace blap;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A capture shaped like a long pairing-plus-traffic session: mostly ACL
/// data with periodic connection/authentication events, so the detector walk
/// exercises both its fast path (ACL skip) and its event machinery.
Bytes synthetic_capture(std::size_t records, std::size_t acl_payload) {
  hci::SnoopLog log;
  const BdAddr peer = *BdAddr::parse("00:1b:7d:da:71:0a");
  Bytes acl_data(acl_payload, 0x5a);
  SimTime t = 1000;
  for (std::size_t i = 0; i < records; ++i) {
    hci::SnoopRecord record;
    record.timestamp_us = t;
    t += 625;
    if (i % 64 == 0) {
      // Successful inbound connect: ConnectionRequest + ConnectionComplete.
      ByteWriter req;
      peer.to_wire(req);
      ClassOfDevice(ClassOfDevice::kMobilePhone).to_wire(req);
      req.u8(0x01);  // ACL link type
      record.direction = hci::Direction::kControllerToHost;
      record.packet = hci::make_event(hci::ev::kConnectionRequest, req.data());
    } else if (i % 64 == 1) {
      ByteWriter complete;
      complete.u8(0x00).u16(0x0001);
      peer.to_wire(complete);
      complete.u8(0x01).u8(0x00);
      record.direction = hci::Direction::kControllerToHost;
      record.packet = hci::make_event(hci::ev::kConnectionComplete, complete.data());
    } else if (i % 64 == 2) {
      ByteWriter auth;
      auth.u16(0x0001);
      record.direction = hci::Direction::kHostToController;
      record.packet = hci::make_command(hci::op::kAuthenticationRequested, auth.data());
    } else {
      record.direction =
          i % 2 == 0 ? hci::Direction::kHostToController : hci::Direction::kControllerToHost;
      record.packet = hci::make_acl(0x0001, acl_data);
    }
    log.append(std::move(record));
  }
  return log.serialize();
}

/// One full cursor pass; returns bytes walked (0 on a fault, which would be
/// a bench-harness bug, not a measurement).
std::size_t cursor_pass(BytesView data) {
  auto cursor = hci::SnoopCursor::open(data);
  if (!cursor) return 0;
  std::size_t records = 0;
  while (cursor->next()) ++records;
  return cursor->fault().ok() ? data.size() : 0;
}

/// One cursor pass through RecordCtx + the default detector set.
std::size_t detect_pass(BytesView data,
                        std::vector<std::unique_ptr<analytics::Detector>>& detectors,
                        std::vector<analytics::Finding>& findings) {
  auto cursor = hci::SnoopCursor::open(data);
  if (!cursor) return 0;
  while (const auto view = cursor->next()) {
    const auto ctx = analytics::RecordCtx::from_view(*view);
    for (auto& d : detectors) d->on_record(ctx);
  }
  findings.clear();
  for (auto& d : detectors) d->finish(findings);
  return cursor->fault().ok() ? data.size() : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace blap::bench;
  namespace fs = std::filesystem;

  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;

  // ~190 bytes/record wire size; full mode walks a ~186 MiB buffer.
  const std::size_t records = smoke ? 200'000 : 1'000'000;
  const std::size_t passes = smoke ? 3 : 6;
  const std::size_t file_count = smoke ? 64 : 256;
  const std::size_t file_records = smoke ? 500 : 2000;

  banner(std::string("SNOOP ANALYTICS — parse GB/s and files/sec") +
         (smoke ? " (smoke)" : ""));

  const Bytes capture = synthetic_capture(records, 160);
  const double buffer_gib = static_cast<double>(capture.size()) / (1024.0 * 1024.0 * 1024.0);

  // --- raw cursor walk -----------------------------------------------------
  double cursor_gb_per_s = 0.0;
  {
    std::size_t walked = 0;
    const auto start = Clock::now();
    for (std::size_t p = 0; p < passes; ++p) walked += cursor_pass(capture);
    const double wall = seconds_since(start);
    if (walked != passes * capture.size()) {
      std::fprintf(stderr, "error: cursor pass faulted on the synthetic capture\n");
      return 1;
    }
    cursor_gb_per_s = static_cast<double>(walked) / wall / 1e9;
  }

  // --- cursor + RecordCtx + 4 detectors ------------------------------------
  double detect_gb_per_s = 0.0;
  std::size_t findings_per_pass = 0;
  {
    auto detectors = analytics::make_default_detectors({});
    std::vector<analytics::Finding> findings;
    std::size_t walked = 0;
    const auto start = Clock::now();
    for (std::size_t p = 0; p < passes; ++p) walked += detect_pass(capture, detectors, findings);
    const double wall = seconds_since(start);
    if (walked != passes * capture.size()) {
      std::fprintf(stderr, "error: detect pass faulted on the synthetic capture\n");
      return 1;
    }
    detect_gb_per_s = static_cast<double>(walked) / wall / 1e9;
    findings_per_pass = findings.size();
  }

  std::printf("capture: %zu records, %.3f GiB buffer, %zu passes\n", records, buffer_gib,
              passes);
  std::printf("%-24s | %8.2f GB/s\n", "cursor walk", cursor_gb_per_s);
  std::printf("%-24s | %8.2f GB/s  (%zu finding(s)/pass)\n", "cursor + detectors",
              detect_gb_per_s, findings_per_pass);

  // --- files/sec scaling over the mmap + worker-pool path ------------------
  const fs::path dir = fs::temp_directory_path() / "blap_bench_snoop_analytics";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s\n", dir.string().c_str());
    return 1;
  }
  const Bytes file_capture = synthetic_capture(file_records, 160);
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < file_count; ++i) {
    const fs::path p = dir / strfmt("capture_%04zu.btsnoop", i);
    std::ofstream out(p, std::ios::binary);
    out.write(reinterpret_cast<const char*>(file_capture.data()),
              static_cast<std::streamsize>(file_capture.size()));
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", p.string().c_str());
      return 1;
    }
    paths.push_back(p.string());
  }

  // One analyze_files call is ~30 ms at full size, i.e. one sample of the
  // host's load; each row is the median of `samples` calls, with quartiles.
  const std::size_t samples = smoke ? 5 : 9;
  struct ScaleRow {
    unsigned jobs = 0;
    double files_per_sec = 0.0;  // median
    double q1 = 0.0;
    double q3 = 0.0;
    double speedup = 0.0;  // of the medians, against jobs = 1
  };
  std::vector<ScaleRow> scale;
  std::printf("\n%zu files x %zu records, median of %zu calls per row:\n", file_count,
              file_records, samples);
  std::printf("%-6s | %-14s | %-21s | %-8s\n", "jobs", "files/sec", "quartiles", "speedup");
  std::printf("%s\n", std::string(60, '-').c_str());
  for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
    analytics::FleetConfig config;
    config.jobs = jobs;
    std::vector<double> rates;
    for (std::size_t i = 0; i < samples; ++i) {
      const auto start = Clock::now();
      const auto report = analytics::analyze_files(paths, config, nullptr);
      const double wall = seconds_since(start);
      if (report.files_failed != 0) {
        std::fprintf(stderr, "error: %zu bench file(s) failed to scan\n", report.files_failed);
        return 1;
      }
      rates.push_back(static_cast<double>(file_count) / wall);
    }
    std::sort(rates.begin(), rates.end());
    ScaleRow row;
    row.jobs = jobs;
    row.files_per_sec = rates[samples / 2];
    row.q1 = rates[samples / 4];
    row.q3 = rates[3 * samples / 4];
    row.speedup = scale.empty() ? 1.0 : row.files_per_sec / scale.front().files_per_sec;
    std::printf("%-6u | %14.0f | %9.0f - %9.0f | %7.2fx\n", row.jobs, row.files_per_sec,
                row.q1, row.q3, row.speedup);
    scale.push_back(row);
  }
  fs::remove_all(dir, ec);

  const char* json_env = std::getenv("BLAP_JSON");
  const std::string json_path = json_env != nullptr ? json_env : "BENCH_snoop_analytics.json";
  {
    std::ofstream out(json_path);
    out << "{\n  \"bench\": \"snoop_analytics\",\n"
        << "  \"commit\": \"" << BLAP_BENCH_COMMIT << "\",\n"
        << "  \"build_type\": \"" << BLAP_BENCH_BUILD_TYPE << "\",\n"
        << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"capture_records\": " << records << ",\n"
        << "  \"capture_bytes\": " << capture.size() << ",\n"
        << "  \"cursor_gb_per_sec\": " << cursor_gb_per_s << ",\n"
        << "  \"detect_gb_per_sec\": " << detect_gb_per_s << ",\n"
        << "  \"scaling_samples_per_row\": " << samples << ",\n"
        << "  \"scaling\": [\n";
    for (std::size_t i = 0; i < scale.size(); ++i)
      out << "    {\"jobs\": " << scale[i].jobs
          << ", \"files_per_sec\": " << static_cast<std::uint64_t>(scale[i].files_per_sec)
          << ", \"files_per_sec_q1\": " << static_cast<std::uint64_t>(scale[i].q1)
          << ", \"files_per_sec_q3\": " << static_cast<std::uint64_t>(scale[i].q3)
          << ", \"speedup\": " << scale[i].speedup << "}"
          << (i + 1 < scale.size() ? "," : "") << "\n";
    out << "  ]\n}\n";
    out.flush();
    if (!out) {
      std::fprintf(stderr, "error: could not write %s\n", json_path.c_str());
      return 1;
    }
  }
  std::printf("\nperf JSON -> %s\n", json_path.c_str());

  if (cursor_gb_per_s < 1.0) {
    std::fprintf(stderr, "error: cursor walk %.2f GB/s is under the 1 GB/s floor\n",
                 cursor_gb_per_s);
    return 1;
  }
  return 0;
}
