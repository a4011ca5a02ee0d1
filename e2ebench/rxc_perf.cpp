/// rxc_perf — the benchmark's in-process side.  run.py drives it; it is not
/// a user-facing tool.  Every subcommand calls the library only through the
/// public entry points the CLIs use, in the order they use them.
///
///   rxc_perf gen --shape 42sc|wide --seed S --out FILE
///       writes the workload's PHYLIP input (the DNA CLIs read only this)
///   rxc_perf setup --phylip FILE --threads T [--backend host|cell]
///       times one set-up: read, compress, executor construction
///   rxc_perf cell --phylip FILE --inferences I --bootstraps B --threads T
///                 [--obs]
///       the cell42_mgps analysis (core::run_on_cell, offload-all, MGPS)
///   rxc_perf replay --phylip FILE --threads T [--mode cat|gamma]
///                   --inferences I --bootstraps B
///       the traced run: one analysis through the timing decorator, then
///       the same analysis bare, bitwise-compared task by task
///   rxc_perf env
///       active SIMD level, device model and host probe times, as JSON
///   rxc_perf measure --usage FILE -- PROGRAM ARGS...
///       runs PROGRAM and writes its CPU seconds and peak RSS to FILE.  A
///       child forked straight from run.py would inherit the Python
///       process's resident set as its peak; forked from here it does not.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/port.h"
#include "core/spe_executor.h"
#include "io/phylip.h"
#include "likelihood/executor.h"
#include "obs/obs.h"
#include "search/analysis.h"
#include "seq/seqgen.h"
#include "support/json.h"
#include "support/options.h"
#include "support/rng.h"
#include "support/stopwatch.h"
#include "timing_executor.h"
#include "tree/parsimony.h"

namespace {

using namespace rxc;

constexpr const char* kDevice = "cell-2007";

struct Loaded {
  seq::Alignment alignment;
  seq::PatternAlignment patterns;
  double read_s = 0.0;
  double compress_s = 0.0;
};

/// The CLI's input phase: read, then Alignment + pattern compression.
Loaded load(const std::string& path) {
  Stopwatch sw;
  const auto records = io::read_phylip_file(path);
  const double read_s = sw.seconds();
  sw.reset();
  auto alignment = seq::Alignment::from_records(records);
  auto patterns = seq::PatternAlignment::compress(alignment);
  return {std::move(alignment), std::move(patterns), read_s, sw.seconds()};
}

/// raxml_cell's defaults: GTR with empirical base frequencies; CAT with 25
/// categories or GAMMA with 4, alpha 1.
lh::EngineConfig engine_config(const seq::Alignment& aln,
                               const std::string& mode) {
  RXC_REQUIRE(mode == "cat" || mode == "gamma", "--mode must be cat|gamma");
  lh::EngineConfig cfg;
  cfg.model =
      model::DnaModel::gtr({1, 1, 1, 1, 1, 1}, aln.empirical_base_freqs());
  cfg.mode = mode == "cat" ? lh::RateMode::kCat : lh::RateMode::kGamma;
  cfg.categories = mode == "cat" ? 25 : 4;
  cfg.alpha = 1.0;
  return cfg;
}

const char* task_kind(const search::AnalysisTask& t) {
  return t.kind == search::TaskKind::kBootstrap ? "bootstrap" : "inference";
}

int cmd_gen(const Options& opt) {
  opt.check_known({"shape", "seed", "out"});
  const auto seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  const std::string shape = opt.get("shape", "");
  // The generating tree is fixed per shape (drawn once from seed 42) and
  // --seed drives only the sequence evolution on it: inputs differ by
  // sampling noise alone, so run-to-run spread measures the program rather
  // than how hard one random tree happens to be.
  std::string tree;
  seq::SimOptions so;
  if (shape == "42sc") {
    tree = seq::make_42sc(42).true_tree_newick;
    so.nsites = 1167;       // make_42sc's site count and rate shape, which
    so.gamma_alpha = 0.25;  // compress to the paper's ~250 patterns
  } else if (shape == "wide") {
    so.ntaxa = 64;
    so.nsites = 6000;
    so.seed = 42;
    tree = seq::simulate_alignment(so).true_tree_newick;
  } else {
    throw Error("--shape must be 42sc|wide");
  }
  so.seed = seed;
  const seq::SimResult sim = seq::simulate_on_newick(tree, so);
  std::ofstream out(opt.get("out", ""));
  RXC_REQUIRE(out.good(), "cannot open --out file");
  io::write_phylip(out, sim.alignment.to_records());
  out.close();
  RXC_REQUIRE(out.good(), "cannot write --out file");
  const auto pa = seq::PatternAlignment::compress(sim.alignment);
  std::printf("taxa %zu sites %zu patterns %zu\n", pa.taxon_count(),
              sim.alignment.site_count(), pa.pattern_count());
  return 0;
}

int cmd_setup(const Options& opt) {
  opt.check_known({"phylip", "threads", "backend", "mode"});
  const int threads = static_cast<int>(opt.get_int("threads", 1));
  const std::string backend = opt.get("backend", "host");
  Stopwatch total;
  const Loaded in = load(opt.get("phylip", ""));
  Stopwatch sw;
  if (backend == "cell") {
    // What run_on_cell builds before its first task.
    cell::CellMachine machine(cell::require_device_model(kDevice));
    core::SpeExecConfig cfg;
    cfg.toggles = core::stage_toggles(core::Stage::kOffloadAll);
    cfg.host_threads = threads;
    core::SpeExecutor exec(machine, cfg);
  } else {
    RXC_REQUIRE(backend == "host", "--backend must be host|cell");
    const auto cfg = engine_config(in.alignment, opt.get("mode", "cat"));
    const auto exec = perf::cli_executor(cfg.kernels, threads);
  }
  const double exec_s = sw.seconds();
  std::printf("setup_s %.9g read_s %.9g compress_s %.9g executor_s %.9g "
              "patterns %zu\n",
              total.seconds(), in.read_s, in.compress_s, exec_s,
              in.patterns.pattern_count());
  return 0;
}

void print_counters(const std::string& prefix) {
  const auto snap = obs::snapshot_metrics();
  for (const auto& c : snap.counters)
    std::printf("%s%s %" PRIu64 "\n", prefix.c_str(), c.name.c_str(),
                c.value);
}

int cmd_cell(const Options& opt) {
  opt.check_known({"phylip", "inferences", "bootstraps", "threads", "obs"});
  obs::init_from_env();
  if (opt.get_bool("obs", false)) obs::configure({obs::Mode::kSummary});
  Stopwatch wall;
  const Loaded in = load(opt.get("phylip", ""));
  std::printf("alignment: %zu taxa x %zu sites -> %zu patterns\n",
              in.alignment.taxon_count(), in.alignment.site_count(),
              in.patterns.pattern_count());
  core::CellRunConfig cfg;
  cfg.stage = core::Stage::kOffloadAll;
  cfg.scheduler = core::SchedulerModel::kMgps;
  cfg.engine = engine_config(in.alignment, "cat");
  cfg.trace_samples = 0;
  cfg.host_threads = static_cast<int>(opt.get_int("threads", 1));
  cfg.device = cell::require_device_model(kDevice);
  const auto tasks = search::make_analysis(
      static_cast<std::size_t>(opt.get_int("inferences", 3)),
      static_cast<std::size_t>(opt.get_int("bootstraps", 15)));
  Stopwatch run_sw;
  const auto run = core::run_on_cell(in.patterns, cfg, tasks);
  const double run_s = run_sw.seconds();
  RXC_REQUIRE(run.task_log_likelihoods.size() == tasks.size(),
              "run_on_cell executed fewer tasks than asked");

  std::vector<search::TaskResult> results(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    results[i].log_likelihood = run.task_log_likelihoods[i];
    std::printf("  task %zu/%zu (%s, seed %llu): lnL %.17g\n", i + 1,
                tasks.size(), task_kind(tasks[i]),
                static_cast<unsigned long long>(tasks[i].seed),
                run.task_log_likelihoods[i]);
  }
  const std::size_t best = search::best_inference(results, tasks);
  std::printf("best-known ML tree: task %zu, lnL %.17g\n", best,
              run.task_log_likelihoods[best]);
  std::printf("best tree: %s\n", run.task_newicks[best].c_str());

  const auto& s = run.schedule;
  const auto& dev = cfg.device;
  std::printf("cell.virtual_s %.17g\n", run.virtual_seconds);
  for (int k = 0; k < perf::kKernelKinds; ++k)
    std::printf("cell.cycles.%s %.17g\n",
                perf::kernel_kind_name(static_cast<perf::KernelKind>(k)),
                run.profile.cycles[k]);
  std::printf("cell.dma_stall_cycles %.17g\n", run.dma_stall_cycles);
  std::printf("core.signaled_offloads %" PRIu64 "\n", s.signaled_offloads);
  std::printf("core.context_switches %" PRIu64 "\n", s.context_switches);
  std::printf("core.ppe_busy_frac %.17g\n",
              s.ppe_busy / (s.makespan * dev.ppe_threads));
  std::printf("core.spe_busy_frac %.17g\n",
              s.spe_busy / (s.makespan * dev.spe_count));
  std::printf("host.run_s %.9g\nio.read_s %.9g\nseq.compress_s %.9g\n", run_s,
              in.read_s, in.compress_s);
  std::printf("host.wall_s %.9g\n", wall.seconds());
  if (obs::enabled()) print_counters("obs.");
  return 0;
}

/// Runs one task through `exec`, adding its wall seconds to `*seconds`.
search::TaskResult timed_task(const seq::PatternAlignment& pa,
                              const lh::EngineConfig& cfg,
                              const search::AnalysisTask& task,
                              lh::KernelExecutor& exec, double* seconds) {
  Stopwatch sw;
  auto r = search::run_task(pa, cfg, search::SearchOptions{}, task, &exec);
  *seconds += sw.seconds();
  return r;
}

int cmd_replay(const Options& opt) {
  opt.check_known({"phylip", "threads", "mode", "inferences", "bootstraps"});
  const int threads = static_cast<int>(opt.get_int("threads", 1));
  const std::string mode = opt.get("mode", "cat");
  const auto tasks = search::make_analysis(
      static_cast<std::size_t>(opt.get_int("inferences", 3)),
      static_cast<std::size_t>(opt.get_int("bootstraps", 20)));
  obs::init_from_env();

  Stopwatch sw;
  const Loaded in = load(opt.get("phylip", ""));
  const auto cfg = engine_config(in.alignment, mode);
  sw.reset();
  const auto inner = perf::cli_executor(cfg.kernels, threads);
  const double executor_s = sw.seconds();
  perf::TimingExecutor timed(*inner);
  const auto bare = perf::cli_executor(cfg.kernels, threads);

  // Each task runs traced (counters on, every executor call timed) and bare
  // on its own executor, alternating which goes first, so warm-up favours
  // neither side of the overhead estimate.  obs::configure zeroes the
  // counters, so each traced task's counts are summed here.
  std::vector<search::TaskResult> got, want;
  std::vector<double> task_s(tasks.size(), 0.0);
  // Both passes share the set-up above; only their task time differs.
  double untraced_s = in.read_s + in.compress_s + executor_s;
  std::map<std::string, std::uint64_t> counters;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    auto traced_task = [&] {
      obs::configure({obs::Mode::kSummary});
      got.push_back(timed_task(in.patterns, cfg, tasks[i], timed, &task_s[i]));
      for (const auto& c : obs::snapshot_metrics().counters)
        counters[c.name] += c.value;
      obs::configure({obs::Mode::kOff});
    };
    auto bare_task = [&] {
      want.push_back(
          timed_task(in.patterns, cfg, tasks[i], *bare, &untraced_s));
    };
    if (i % 2 == 0) {
      traced_task();
      bare_task();
    } else {
      bare_task();
      traced_task();
    }
  }
  const std::size_t best = search::best_inference(got, tasks);
  double traced_s = in.read_s + in.compress_s + executor_s;
  for (const double t : task_s) traced_s += t;

  // Parsimony replay: stepwise addition is deterministic per task seed and
  // ignores bootstrap weights, so timing it here times the starting trees
  // run_search built inside each traced task.
  const search::SearchOptions sopt;
  double parsimony_s = 0.0;
  for (const auto& task : tasks) {
    sw.reset();
    Rng rng(task.seed);
    tree::stepwise_addition_tree(in.patterns, rng, sopt.attach_brlen);
    parsimony_s += sw.seconds();
  }

  bool bitwise = true;
  for (std::size_t i = 0; i < tasks.size(); ++i)
    bitwise = bitwise &&
              std::memcmp(&got[i].log_likelihood, &want[i].log_likelihood,
                          sizeof(double)) == 0 &&
              got[i].newick == want[i].newick;

  JsonWriter w;
  w.begin_object();
  w.kv("bitwise", bitwise);
  w.kv("patterns", static_cast<std::uint64_t>(in.patterns.pattern_count()));
  w.kv("taxa", static_cast<std::uint64_t>(in.patterns.taxon_count()));
  w.kv("traced_s", traced_s).kv("untraced_s", untraced_s);
  w.kv("read_s", in.read_s).kv("compress_s", in.compress_s);
  w.kv("executor_s", executor_s).kv("parsimony_s", parsimony_s);
  w.key("tasks").begin_array();
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    w.begin_object();
    w.kv("kind", task_kind(tasks[i]));
    w.kv("lnl", got[i].log_likelihood);
    w.kv("rounds", got[i].rounds);
    w.kv("wall_s", task_s[i]);
    w.end_object();
  }
  w.end_array();
  w.kv("best", static_cast<std::uint64_t>(best));
  w.kv("best_tree", got[best].newick);
  w.key("kernels").begin_object();
  for (int k = 0; k < perf::kKernelKinds; ++k) {
    const auto kind = static_cast<perf::KernelKind>(k);
    const auto& t = timed.timing(kind);
    w.key(perf::kernel_kind_name(kind)).begin_object();
    w.kv("calls", t.calls).kv("dispatches", t.dispatches);
    w.kv("patterns", t.patterns).kv("s", t.seconds);
    w.end_object();
  }
  w.end_object();
  w.key("counters").begin_object();
  for (const auto& [name, value] : counters) w.kv(name, value);
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return bitwise ? 0 : 3;
}

/// Median milliseconds of five runs of `work`.
template <class Work>
double median_ms(Work work) {
  std::vector<double> ms;
  for (int i = 0; i < 5; ++i) {
    Stopwatch sw;
    work();
    ms.push_back(sw.seconds() * 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

int cmd_env(const Options& opt) {
  opt.check_known({});
  // Fixed work that runs no program code: 16 independent floating-point
  // chains (arithmetic throughput, which a busy hyperthread sibling takes
  // away) and a sum over 64 MB (memory bandwidth).  On a shared host they
  // slow down with everything else, so a reader can tell a slow host from a
  // slow program.
  volatile double sink = 0.0;
  volatile double factor = 0.999999999;  // read at run time: no folding
  const double cpu_ms = median_ms([&] {
    const double f = factor;
    double x[16];
    std::fill(x, x + 16, 1.0);
    for (int i = 0; i < 20'000'000; ++i)
      for (double& v : x) v = v * f + 1e-9;
    double sum = 0.0;
    for (const double v : x) sum += v;
    sink = sum;
  });
  std::vector<double> buf(std::size_t{8} << 20, 1.0);
  const double mem_ms = median_ms([&] {
    double sum = 0.0;
    for (const double v : buf) sum += v;
    sink = sum;
  });
  JsonWriter w;
  w.begin_object();
  w.kv("simd_level", lh::simd_level_name(lh::active_simd_level()));
  w.kv("device_model", cell::require_device_model(kDevice).name);
  w.kv("host_probe_cpu_ms", cpu_ms).kv("host_probe_mem_ms", mem_ms);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}

/// Exit status of `measure`: the program's own, or 128 + its signal.
int cmd_measure(int argc, char** argv) {
  RXC_REQUIRE(argc >= 6 && std::strcmp(argv[2], "--usage") == 0 &&
                  std::strcmp(argv[4], "--") == 0,
              "usage: rxc_perf measure --usage FILE -- PROGRAM ARGS...");
  const pid_t pid = fork();
  RXC_REQUIRE(pid >= 0, "fork failed");
  if (pid == 0) {
    execvp(argv[5], argv + 5);
    std::perror("exec");
    _exit(127);
  }
  int status = 0;
  rusage ru{};
  RXC_REQUIRE(wait4(pid, &status, 0, &ru) == pid, "wait4 failed");
  const double cpu_s = static_cast<double>(ru.ru_utime.tv_sec) +
                       static_cast<double>(ru.ru_stime.tv_sec) +
                       1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                                  ru.ru_stime.tv_usec);
  std::FILE* f = std::fopen(argv[3], "w");
  RXC_REQUIRE(f != nullptr, "cannot open --usage file");
  std::fprintf(f, "cpu_s %.6f maxrss_kb %ld\n", cpu_s, ru.ru_maxrss);
  RXC_REQUIRE(std::fclose(f) == 0, "cannot write --usage file");
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + (WIFSIGNALED(status) ? WTERMSIG(status) : 0);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "measure") == 0)
      return cmd_measure(argc, argv);
    RXC_REQUIRE(argc >= 2,
                "usage: rxc_perf gen|setup|cell|replay|env|measure [--options]");
    const std::string cmd = argv[1];
    const Options opt(argc - 1, argv + 1);
    if (cmd == "gen") return cmd_gen(opt);
    if (cmd == "setup") return cmd_setup(opt);
    if (cmd == "cell") return cmd_cell(opt);
    if (cmd == "replay") return cmd_replay(opt);
    if (cmd == "env") return cmd_env(opt);
    throw rxc::Error("unknown subcommand '" + cmd + "'");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
