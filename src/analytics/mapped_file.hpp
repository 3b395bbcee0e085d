// mapped_file.hpp — read-only file bytes for the fleet snoop reader.
//
// The analytics engine walks thousands of capture files per run, and picks
// how to load each by its size. A file of at most kMaxReadBytes is read()
// into an owned buffer: for a capture of a few KB, mmap + munmap and the
// first-touch page faults cost several times one read(). A larger file is
// mmapped, so SnoopCursor iterates records straight out of the page cache
// with zero copies instead of copying megabytes. The measured crossover
// lies above the cut (DESIGN §12). A large file that mmap refuses is read
// the same way as a small one, so callers never care.
#pragma once

#include <optional>
#include <string>

#include "common/bytes.hpp"

namespace blap::analytics {

class MappedFile {
 public:
  /// Files up to this size are read rather than mapped.
  static constexpr std::size_t kMaxReadBytes = 64 * 1024;

  /// Load `path` read-only. nullopt when it cannot be opened, stat'd or
  /// read in full, or is not a regular file; an empty file gives an empty
  /// view.
  [[nodiscard]] static std::optional<MappedFile> open(const std::string& path);

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  [[nodiscard]] BytesView view() const {
    return {static_cast<const std::uint8_t*>(data_), size_};
  }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  MappedFile() = default;

  void* data_ = nullptr;  // mmap base, or buffer_.data() when read
  std::size_t size_ = 0;
  bool mapped_ = false;
  Bytes buffer_;
};

}  // namespace blap::analytics
