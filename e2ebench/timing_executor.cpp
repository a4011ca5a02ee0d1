#include "timing_executor.h"

namespace rxc::perf {

namespace {

template <class Task>
std::uint64_t summed_patterns(const Task* tasks, std::size_t count) {
  std::uint64_t np = 0;
  for (std::size_t i = 0; i < count; ++i) np += tasks[i].np;
  return np;
}

}  // namespace

std::unique_ptr<lh::KernelExecutor> cli_executor(
    const lh::KernelConfig& kernels, int threads) {
  if (threads > 1) {
    lh::ThreadedOptions topt;
    topt.threads = threads;
    topt.kernels = kernels;
    return lh::make_executor(lh::ExecutorSpec::threaded_spec(topt));
  }
  return lh::make_executor(
      lh::ExecutorSpec::host_spec(lh::HostOptions{kernels}));
}

const char* kernel_kind_name(KernelKind kind) {
  switch (kind) {
    case KernelKind::kNewview: return "newview";
    case KernelKind::kEvaluate: return "evaluate";
    case KernelKind::kSumtable: return "sumtable";
    case KernelKind::kNr: return "nr";
    case KernelKind::kEdgeGradient: return "edge_gradient";
  }
  return "?";
}

TimingExecutor::Span::Span(KernelTiming& slot, std::uint64_t calls,
                           std::uint64_t patterns)
    : slot_(slot), start_(std::chrono::steady_clock::now()) {
  slot_.calls += calls;
  slot_.patterns += patterns;
  ++slot_.dispatches;
}

TimingExecutor::Span::~Span() {
  slot_.seconds += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
}

TimingExecutor::TimingExecutor(lh::KernelExecutor& inner) : inner_(inner) {
  sync_counters();
}

void TimingExecutor::newview(const lh::NewviewTask& task) {
  {
    Span span(slot(KernelKind::kNewview), 1, task.np);
    inner_.newview(task);
  }
  sync_counters();
}

double TimingExecutor::evaluate(const lh::EvaluateTask& task) {
  double lnl = 0.0;
  {
    Span span(slot(KernelKind::kEvaluate), 1, task.np);
    lnl = inner_.evaluate(task);
  }
  sync_counters();
  return lnl;
}

void TimingExecutor::sumtable(const lh::SumtableTask& task) {
  {
    Span span(slot(KernelKind::kSumtable), 1, task.np);
    inner_.sumtable(task);
  }
  sync_counters();
}

lh::NrResult TimingExecutor::nr_derivatives(const lh::NrTask& task) {
  lh::NrResult r;
  {
    Span span(slot(KernelKind::kNr), 1, task.np);
    r = inner_.nr_derivatives(task);
  }
  sync_counters();
  return r;
}

void TimingExecutor::newview_batch(const lh::NewviewTask* tasks,
                                   std::size_t count) {
  {
    Span span(slot(KernelKind::kNewview), count,
              summed_patterns(tasks, count));
    inner_.newview_batch(tasks, count);
  }
  sync_counters();
}

void TimingExecutor::preorder_batch(const lh::NewviewTask* tasks,
                                    std::size_t count) {
  {
    Span span(slot(KernelKind::kNewview), count,
              summed_patterns(tasks, count));
    inner_.preorder_batch(tasks, count);
  }
  sync_counters();
}

lh::NrResult TimingExecutor::edge_gradient(const lh::EdgeGradientTask& task) {
  lh::NrResult r;
  {
    Span span(slot(KernelKind::kEdgeGradient), 1, task.np);
    r = inner_.edge_gradient(task);
  }
  sync_counters();
  return r;
}

void TimingExecutor::edge_gradient_batch(const lh::EdgeGradientTask* tasks,
                                         std::size_t count,
                                         lh::NrResult* results) {
  {
    Span span(slot(KernelKind::kEdgeGradient), count,
              summed_patterns(tasks, count));
    inner_.edge_gradient_batch(tasks, count, results);
  }
  sync_counters();
}

void TimingExecutor::begin_compound() { inner_.begin_compound(); }

void TimingExecutor::end_compound() {
  inner_.end_compound();
  sync_counters();
}

void TimingExecutor::reset_counters() {
  inner_.reset_counters();
  sync_counters();
}

double TimingExecutor::seconds() const {
  double s = 0.0;
  for (const auto& t : timing_) s += t.seconds;
  return s;
}

}  // namespace rxc::perf
