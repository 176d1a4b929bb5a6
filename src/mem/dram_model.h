// External-memory model: word-addressable storage with access statistics.
//
// All DRAM traffic is in 16-bit words (features are 12-bit stored in 16;
// weights are 8-bit raw but 12/16-bit after the offline Winograd transform,
// so the uniform 16-bit word keeps the port math of paper Eqs. 8-11 simple —
// bandwidth is counted in elements, as the paper does).
#ifndef HDNN_MEM_DRAM_MODEL_H_
#define HDNN_MEM_DRAM_MODEL_H_

#include <cstdint>
#include <span>
#include <vector>

namespace hdnn {

/// One armed corruption fault (fault injection, common/fault.h): once the
/// model's cumulative functional access count (words_read + words_written)
/// reaches `after_total_words`, the next access flips the stored word at
/// `addr % size_words()` with `xor_mask`. Fires exactly once. Models a bad
/// cell / disturbed row, so armed faults survive Reset() — they belong to
/// the device, not to its contents — but access counters restart at Reset,
/// so thresholds are relative to the current inference epoch.
struct DramFault {
  std::int64_t after_total_words = 0;
  std::int64_t addr = 0;
  std::uint16_t xor_mask = 1;
};

/// Allocator for the DRAM backing store: whole pages mapped from the OS
/// and unmapped on release. A deployment's DRAM image is the host's largest
/// allocation (megabytes). From malloc, the first freed image raises
/// glibc's dynamic mmap threshold to its size, so later images come from
/// the brk heap, which does not return them: peak RSS grows by about one
/// image. Mapped directly, each image returns to the OS when freed.
/// ASan builds keep the store in the (instrumented) heap; DESIGN.md
/// Sec. 13.
template <typename T>
struct PageAllocator {
  using value_type = T;
  PageAllocator() = default;
  template <typename U>
  PageAllocator(const PageAllocator<U>&) {}
  T* allocate(std::size_t n);
  void deallocate(T* p, std::size_t n);
  friend bool operator==(const PageAllocator&, const PageAllocator&) {
    return true;
  }
};

class DramModel {
 public:
  explicit DramModel(std::int64_t words);

  /// Re-sizes to `words` and zeroes the contents, reusing the existing
  /// backing store when capacity allows (serving runtimes Reset one
  /// persistent DramModel per inference instead of reallocating). Also
  /// resets the bump allocator and the access statistics.
  void Reset(std::int64_t words);

  std::int64_t size_words() const {
    return static_cast<std::int64_t>(words_.size());
  }

  std::int16_t Read(std::int64_t addr) const;
  void Write(std::int64_t addr, std::int16_t value);

  /// Reads/writes `out.size()` consecutive words starting at addr.
  void ReadBlock(std::int64_t addr, std::span<std::int16_t> out) const;
  void WriteBlock(std::int64_t addr, std::span<const std::int16_t> data);

  // --- Bulk span views (the simulator's LOAD/SAVE datapath) ---
  //
  // Each validates the whole transaction's range [addr, addr + words) once
  // and returns a span directly over the backing store, so the caller's copy
  // micro-kernels run at memcpy speed with no per-word bounds checks. The
  // statistics advance by the run length exactly as `words` individual
  // Read/Write calls would, keeping words_read()/words_written() identical
  // between the per-word and bulk paths. Zero-length runs are explicitly
  // legal at any addr in [0, size_words()] and touch neither storage nor
  // stats. Spans are invalidated by Reset().

  /// Validated read transaction: counts `words` read.
  std::span<const std::int16_t> ReadRun(std::int64_t addr,
                                        std::int64_t words) const;
  /// Validated write transaction: counts `words` written; the caller fills
  /// the returned span (every word is considered written, as the SAVE
  /// datapath always produces the full run).
  std::span<std::int16_t> WriteRun(std::int64_t addr, std::int64_t words);
  /// Validated view with no statistics side effect (host-side inspection
  /// and tests; functional-traffic accounting must use ReadRun/WriteRun).
  std::span<const std::int16_t> ViewRun(std::int64_t addr,
                                        std::int64_t words) const;

  /// 32-bit accessors for bias words (little-endian pair of 16-bit words).
  std::int32_t Read32(std::int64_t addr) const;
  void Write32(std::int64_t addr, std::int32_t value);

  /// Simple bump allocation of a region; returns the base word address.
  std::int64_t Allocate(std::int64_t words);
  std::int64_t allocated_words() const { return next_free_; }
  void ResetAllocator() { next_free_ = 0; }

  // Statistics (functional accesses; the timing model accounts bandwidth
  // separately at transaction granularity).
  std::int64_t words_read() const { return words_read_; }
  std::int64_t words_written() const { return words_written_; }
  void ResetStats() { words_read_ = words_written_ = 0; }

  // --- Fault injection hook (chaos testing; see DramFault above) ---
  //
  // The armed list is checked on every access-counting path (Read/Write,
  // ReadRun/WriteRun — ViewRun takes no stats and triggers nothing), after
  // the statistics bump, so a fault armed at threshold N fires on the
  // access that carries the count to >= N. With nothing armed the hook is
  // a single empty-vector branch per transaction.
  void ArmFault(const DramFault& fault);
  void ClearFaults();
  /// Armed faults not yet fired / fired since the last ClearFaults.
  int armed_faults() const;
  std::int64_t injected_faults() const { return injected_; }

 private:
  void MaybeInject() const;

  /// `words_` is mutable because faults fire on the (const) read path too —
  /// corrupting storage during a read is the point of modeling disturb
  /// errors. Plain reads never mutate when no fault is armed.
  mutable std::vector<std::int16_t, PageAllocator<std::int16_t>> words_;
  std::int64_t next_free_ = 0;
  mutable std::int64_t words_read_ = 0;
  std::int64_t words_written_ = 0;
  mutable std::vector<DramFault> faults_;
  mutable std::int64_t injected_ = 0;
};

}  // namespace hdnn

#endif  // HDNN_MEM_DRAM_MODEL_H_
