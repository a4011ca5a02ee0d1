#pragma once
/// \file timing_executor.h
/// A KernelExecutor decorator that times every call into the executor it
/// wraps, from outside the program: the benchmark's traced run hands it to
/// search::run_task in place of the executor the CLI would build.  Every
/// virtual is forwarded, the batch and compound calls included, so the
/// wrapped engine computes exactly what the bare one does (bitwise; the
/// benchmark's own tests hold it to that).
///
/// Not thread-safe: the engine drives one executor from one thread, and a
/// backend's internal parallelism happens inside the forwarded call.

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>

#include "likelihood/executor.h"

namespace rxc::perf {

/// The executor raxml_cell builds for `--threads threads`: a threaded
/// executor above one thread, else a host executor with the same kernels
/// (raxml_cell then leaves the engine its own, which computes the same).
std::unique_ptr<lh::KernelExecutor> cli_executor(
    const lh::KernelConfig& kernels, int threads);

enum class KernelKind { kNewview, kEvaluate, kSumtable, kNr, kEdgeGradient };
inline constexpr int kKernelKinds = 5;
const char* kernel_kind_name(KernelKind kind);

struct KernelTiming {
  std::uint64_t calls = 0;       ///< kernel invocations (a batch of n is n)
  std::uint64_t dispatches = 0;  ///< calls into the executor (a batch is 1)
  std::uint64_t patterns = 0;    ///< summed task.np
  double seconds = 0.0;          ///< wall time inside the wrapped executor
};

class TimingExecutor final : public lh::KernelExecutor {
 public:
  explicit TimingExecutor(lh::KernelExecutor& inner);

  void newview(const lh::NewviewTask& task) override;
  double evaluate(const lh::EvaluateTask& task) override;
  void sumtable(const lh::SumtableTask& task) override;
  lh::NrResult nr_derivatives(const lh::NrTask& task) override;
  void newview_batch(const lh::NewviewTask* tasks, std::size_t count) override;
  void preorder_batch(const lh::NewviewTask* tasks,
                      std::size_t count) override;
  lh::NrResult edge_gradient(const lh::EdgeGradientTask& task) override;
  void edge_gradient_batch(const lh::EdgeGradientTask* tasks,
                           std::size_t count, lh::NrResult* results) override;
  void begin_compound() override;
  void end_compound() override;
  void reset_counters() override;

  const KernelTiming& timing(KernelKind kind) const {
    return timing_[static_cast<int>(kind)];
  }
  /// Seconds spent inside the wrapped executor, all kinds.
  double seconds() const;

 private:
  /// Adds one call's duration to a kind's totals when it goes out of scope.
  class Span {
   public:
    Span(KernelTiming& slot, std::uint64_t calls, std::uint64_t patterns);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    KernelTiming& slot_;
    std::chrono::steady_clock::time_point start_;
  };

  KernelTiming& slot(KernelKind kind) {
    return timing_[static_cast<int>(kind)];
  }
  /// Mirrors the inner executor's counters so the non-virtual
  /// KernelExecutor::counters() accessor stays truthful.
  void sync_counters() { counters_ = inner_.counters(); }

  lh::KernelExecutor& inner_;
  std::array<KernelTiming, kKernelKinds> timing_{};
};

}  // namespace rxc::perf
