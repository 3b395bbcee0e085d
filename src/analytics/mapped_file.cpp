#include "analytics/mapped_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace blap::analytics {

std::optional<MappedFile> MappedFile::open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    ::close(fd);
    return std::nullopt;
  }
  MappedFile file;
  file.size_ = static_cast<std::size_t>(st.st_size);
  if (file.size_ > kMaxReadBytes) {
    void* base = ::mmap(nullptr, file.size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base != MAP_FAILED) {
      file.data_ = base;
      file.mapped_ = true;
      ::close(fd);
      return file;
    }
  }
  // Small, or mmap refused it: read from the fd already open.
  file.buffer_.resize(file.size_);
  file.data_ = file.buffer_.data();
  std::size_t done = 0;
  while (done < file.size_) {
    const ssize_t n = ::read(fd, file.buffer_.data() + done, file.size_ - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // a read error, or the file shrank after fstat
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  if (done < file.size_) return std::nullopt;
  return file;
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, false)),
      buffer_(std::move(other.buffer_)) {
  if (!mapped_ && !buffer_.empty()) data_ = buffer_.data();
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (mapped_ && data_ != nullptr) ::munmap(data_, size_);
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, false);
    buffer_ = std::move(other.buffer_);
    if (!mapped_ && !buffer_.empty()) data_ = buffer_.data();
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (mapped_ && data_ != nullptr) ::munmap(data_, size_);
}

}  // namespace blap::analytics
