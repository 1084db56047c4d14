#include "core/golden_map.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace phifi::fi {

std::uint64_t fnv1a64(std::span<const std::byte> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

/// Sealed-memfd path: copy through a RW mapping, drop it (F_SEAL_WRITE is
/// refused while any writable mapping exists), seal, re-map PROT_READ.
/// Returns nullptr when memfd_create is unavailable (pre-3.17 kernel or a
/// seccomp filter) so the caller can fall back.
const std::byte* map_sealed(std::span<const std::byte> golden) {
#ifdef MFD_ALLOW_SEALING
  const int fd = ::memfd_create("phifi-golden", MFD_CLOEXEC |
                                                    MFD_ALLOW_SEALING);
  if (fd < 0) return nullptr;
  const auto size = static_cast<off_t>(golden.size());
  if (::ftruncate(fd, size) != 0) {
    ::close(fd);
    return nullptr;
  }
  void* rw = ::mmap(nullptr, golden.size(), PROT_READ | PROT_WRITE,
                    MAP_SHARED, fd, 0);
  if (rw == MAP_FAILED) {
    ::close(fd);
    return nullptr;
  }
  std::memcpy(rw, golden.data(), golden.size());
  ::munmap(rw, golden.size());
  ::fcntl(fd, F_ADD_SEALS,
          F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_WRITE | F_SEAL_SEAL);
  void* ro = ::mmap(nullptr, golden.size(), PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the memfd alive
  if (ro == MAP_FAILED) return nullptr;
  return static_cast<const std::byte*>(ro);
#else
  (void)golden;
  return nullptr;
#endif
}

}  // namespace

GoldenMap::~GoldenMap() { reset(); }

void GoldenMap::reset() {
  if (base_ != nullptr) {
    ::munmap(const_cast<std::byte*>(base_), size_);
  }
  base_ = nullptr;
  size_ = 0;
  digest_ = 0;
  sealed_ = false;
}

void GoldenMap::publish(std::span<const std::byte> golden,
                        std::uint64_t digest) {
  reset();
  if (golden.empty()) {
    throw std::runtime_error("GoldenMap: empty golden output");
  }
  const std::byte* base = map_sealed(golden);
  sealed_ = base != nullptr;
  if (base == nullptr) {
    // Fallback: shared anonymous mapping, then mprotect to read-only. Not
    // kernel-enforced against a child that calls mprotect itself, but a
    // trial child stomping the reference is memory corruption either way.
    void* mem = ::mmap(nullptr, golden.size(), PROT_READ | PROT_WRITE,
                       MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
      throw std::runtime_error("GoldenMap: mmap failed");
    }
    std::memcpy(mem, golden.data(), golden.size());
    ::mprotect(mem, golden.size(), PROT_READ);
    base = static_cast<const std::byte*>(mem);
  }
  base_ = base;
  size_ = golden.size();
  digest_ = digest;
}

}  // namespace phifi::fi
