#include "mem/dram_model.h"

#include <sys/mman.h>

#include <algorithm>
#include <memory>
#include <new>

#include "common/check.h"

namespace hdnn {

// AddressSanitizer does not track raw mappings, so under it the store
// stays in the instrumented heap: an overrun through a WriteRun/ViewRun
// span is then still reported.
#if defined(__SANITIZE_ADDRESS__)
#define HDNN_DRAM_IN_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HDNN_DRAM_IN_HEAP 1
#endif
#endif

template <typename T>
T* PageAllocator<T>::allocate(std::size_t n) {
#ifdef HDNN_DRAM_IN_HEAP
  return std::allocator<T>().allocate(n);
#else
  void* p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<T*>(p);
#endif
}

template <typename T>
void PageAllocator<T>::deallocate(T* p, std::size_t n) {
#ifdef HDNN_DRAM_IN_HEAP
  std::allocator<T>().deallocate(p, n);
#else
  munmap(p, n * sizeof(T));
#endif
}

template struct PageAllocator<std::int16_t>;

DramModel::DramModel(std::int64_t words) {
  // Validate before sizing the backing store: a negative `words` cast to
  // size_t would request a ~2^64-element allocation and die in bad_alloc
  // before the precondition check could fire.
  HDNN_CHECK(words > 0) << "DRAM size must be positive";
  words_.assign(static_cast<std::size_t>(words), 0);
}

void DramModel::Reset(std::int64_t words) {
  HDNN_CHECK(words > 0) << "DRAM size must be positive";
  words_.assign(static_cast<std::size_t>(words), 0);
  next_free_ = 0;
  words_read_ = 0;
  words_written_ = 0;
}

std::int16_t DramModel::Read(std::int64_t addr) const {
  HDNN_CHECK(addr >= 0 && addr < size_words())
      << "DRAM read out of range: " << addr << " / " << size_words();
  ++words_read_;
  if (!faults_.empty()) MaybeInject();
  return words_[static_cast<std::size_t>(addr)];
}

void DramModel::Write(std::int64_t addr, std::int16_t value) {
  HDNN_CHECK(addr >= 0 && addr < size_words())
      << "DRAM write out of range: " << addr << " / " << size_words();
  ++words_written_;
  words_[static_cast<std::size_t>(addr)] = value;
  if (!faults_.empty()) MaybeInject();
}

void DramModel::ReadBlock(std::int64_t addr, std::span<std::int16_t> out) const {
  const std::span<const std::int16_t> src =
      ReadRun(addr, static_cast<std::int64_t>(out.size()));
  if (src.empty()) return;
  std::copy_n(src.data(), src.size(), out.data());
}

void DramModel::WriteBlock(std::int64_t addr,
                           std::span<const std::int16_t> data) {
  const std::span<std::int16_t> dst =
      WriteRun(addr, static_cast<std::int64_t>(data.size()));
  if (dst.empty()) return;
  std::copy_n(data.data(), data.size(), dst.data());
}

std::span<const std::int16_t> DramModel::ReadRun(std::int64_t addr,
                                                 std::int64_t words) const {
  const std::span<const std::int16_t> run = ViewRun(addr, words);
  words_read_ += words;
  if (!faults_.empty()) MaybeInject();
  return run;
}

std::span<std::int16_t> DramModel::WriteRun(std::int64_t addr,
                                            std::int64_t words) {
  // Same validation as ViewRun, but the span must be mutable.
  HDNN_CHECK(words >= 0 && addr >= 0 && addr + words <= size_words())
      << "DRAM run [" << addr << ", " << addr + words << ") out of range 0../"
      << size_words();
  words_written_ += words;
  if (!faults_.empty()) MaybeInject();
  if (words == 0) return {};
  return {words_.data() + static_cast<std::size_t>(addr),
          static_cast<std::size_t>(words)};
}

std::span<const std::int16_t> DramModel::ViewRun(std::int64_t addr,
                                                 std::int64_t words) const {
  HDNN_CHECK(words >= 0 && addr >= 0 && addr + words <= size_words())
      << "DRAM run [" << addr << ", " << addr + words << ") out of range 0../"
      << size_words();
  if (words == 0) return {};
  return {words_.data() + static_cast<std::size_t>(addr),
          static_cast<std::size_t>(words)};
}

std::int32_t DramModel::Read32(std::int64_t addr) const {
  const std::uint16_t lo = static_cast<std::uint16_t>(Read(addr));
  const std::uint16_t hi = static_cast<std::uint16_t>(Read(addr + 1));
  return static_cast<std::int32_t>(
      (static_cast<std::uint32_t>(hi) << 16) | lo);
}

void DramModel::Write32(std::int64_t addr, std::int32_t value) {
  const std::uint32_t u = static_cast<std::uint32_t>(value);
  Write(addr, static_cast<std::int16_t>(u & 0xffff));
  Write(addr + 1, static_cast<std::int16_t>(u >> 16));
}

std::int64_t DramModel::Allocate(std::int64_t words) {
  HDNN_CHECK(words >= 0) << "negative allocation";
  if (next_free_ + words > size_words()) {
    throw CapacityError("DRAM exhausted: need " + std::to_string(words) +
                        " words at offset " + std::to_string(next_free_) +
                        ", capacity " + std::to_string(size_words()));
  }
  const std::int64_t base = next_free_;
  next_free_ += words;
  return base;
}

void DramModel::ArmFault(const DramFault& fault) {
  HDNN_CHECK(fault.after_total_words >= 0)
      << "fault threshold must be non-negative, got "
      << fault.after_total_words;
  HDNN_CHECK(fault.addr >= 0) << "fault addr must be non-negative, got "
                              << fault.addr;
  HDNN_CHECK(fault.xor_mask != 0) << "fault xor_mask of 0 flips nothing";
  faults_.push_back(fault);
}

void DramModel::ClearFaults() {
  faults_.clear();
  injected_ = 0;
}

int DramModel::armed_faults() const {
  return static_cast<int>(faults_.size());
}

void DramModel::MaybeInject() const {
  const std::int64_t total = words_read_ + words_written_;
  for (std::size_t i = 0; i < faults_.size();) {
    if (total >= faults_[i].after_total_words) {
      const auto addr =
          static_cast<std::size_t>(faults_[i].addr % size_words());
      words_[addr] = static_cast<std::int16_t>(
          static_cast<std::uint16_t>(words_[addr]) ^ faults_[i].xor_mask);
      ++injected_;
      faults_.erase(faults_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

}  // namespace hdnn
