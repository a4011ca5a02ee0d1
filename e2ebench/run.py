#!/usr/bin/env python3
"""Whole-analysis benchmark: each run is a batch of complete analyses.

Usage (from the repository root):
    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is built from source into .bench_build/ on first use.
Each analysis runs as its own process on inputs generated from --seed, one at
a time (closed loop, one client).  --trace 0 measures the end-to-end metrics;
--trace 1 replays one analysis through the public calls of each layer and
reports per-layer metrics.  The last line of stdout is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
See e2ebench/README.md for the workloads and what each metric predicts.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "cmake"
WORK = OUT / "work"

# T, the thread budget every workload is given.  It is half the cores of the
# 4-core host the sizes were chosen on, not all of them: that host is a VM
# whose hypervisor takes CPUs away in phases, and while one CPU is taken,
# every thread of a loop-level parallel region waits for the one on it.
# Under emulated steal of 20% of each CPU, a dna_wide_gamma analysis slowed
# 1.63x at 4 threads and 1.21x at 2 (1.20x single-threaded).
THREADS = 2
SETUP_REPS = 61      # set-up processes per run; setup_s is their median
ANALYSIS_TIMEOUT_S = 150
RUN_BUDGET_S = 120   # stop adding analyses after this, however few ran

# BENCHMARK.json at the checkout root names every metric and its unit.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]

# The simulated-Cell numbers that must repeat exactly for a given input.
CELL_EXACT = ("cell.", "core.signaled_offloads", "core.context_switches",
              "core.ppe_busy_frac", "core.spe_busy_frac")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # "raxml" | "cell"
    inputs: int        # distinct generated inputs per run
    shape: str = ""    # DNA input generator shape: "42sc" | "wide"
    mode: str = "cat"
    inferences: int = 1
    bootstraps: int = 0

    @property
    def tasks(self):
        """Tasks per analysis: each inference and bootstrap is one."""
        return self.inferences + self.bootstraps

    @property
    def min_analyses(self):
        """Every input once, and the first twice so that each run checks
        that a repeated analysis repeats exactly."""
        return self.inputs + 1

    def args(self):
        """The workload's own program arguments."""
        mode = ["--mode", self.mode] if self.mode != "cat" else []
        return mode + ["--inferences", str(self.inferences),
                       "--bootstraps", str(self.bootstraps)]


# Why each workload exists is in README.md.  A run's figure averages over
# its inputs, so `inputs` grows with how much one input's work varies from
# the next.  dna_wide_gamma's inputs cost alike (coefficient of variation
# 0.02 on a quiet host) and each takes ~9 s at T = 2, so it has the fewest.
# On a shared host, one analysis's wall time varies more with the host
# than with its input: the same 42sc input, run six times in a row, took
# 2.8-3.9 s.  Each minimum set of analyses (inputs + 1) takes 18-27 s, so
# within the 30 s run that BENCHMARK.json gives, a run's length is set by
# its clock unless the host runs the program well over 1.1x slower.
WORKLOADS = {
    w.name: w for w in (
        Workload("dna42_analysis", "raxml", inputs=5, shape="42sc",
                 inferences=3, bootstraps=20),
        Workload("dna_wide_gamma", "raxml", inputs=2, shape="wide",
                 mode="gamma"),
        Workload("cell42_mgps", "cell", inputs=5, shape="42sc",
                 inferences=3, bootstraps=15),
    )
}


class BenchError(Exception):
    """A failure of the benchmark itself (no sources, build, input
    generation): the run prints no result."""


# --- running one analysis ---------------------------------------------------

@dataclasses.dataclass
class Analysis:
    """One analysis process: its cost, its parsed output, its verdict."""
    expected_tasks: int
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    exit_code: int = 0
    stdout: str = ""
    stderr: str = ""
    task_lnl: list = dataclasses.field(default_factory=list)  # printed text
    best_lnl: float = math.nan
    best_tree: str = ""
    patterns: int = 0    # from the CLI's "alignment: ..." line
    values: dict = dataclasses.field(default_factory=dict)    # "key value"
    problems: list = dataclasses.field(default_factory=list)

    def failed_tasks(self):
        """Tasks counted as failed: all of them if the process failed or its
        output is unusable, else those whose lnL is missing or non-finite."""
        if self.exit_code != 0 or self.problems:
            return self.expected_tasks
        bad = sum(1 for t in self.task_lnl if not math.isfinite(_num(t)))
        return bad + max(0, self.expected_tasks - len(self.task_lnl))

    def fingerprint(self):
        """What must repeat exactly when the same input is analysed again."""
        exact = {k: v for k, v in self.values.items()
                 if k.startswith(CELL_EXACT)}
        return (tuple(self.task_lnl), self.best_tree, repr(self.best_lnl),
                tuple(sorted(exact.items())))


def _num(text):
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


TASK_RE = re.compile(r"^\s*task \d+/\d+ \([a-z]+, seed \d+\): lnL (\S+)")
BEST_RE = re.compile(r"^best-known ML tree: task \d+, lnL (\S+)")
PATTERNS_RE = re.compile(r"alignment: \d+ taxa x \d+ sites -> (\d+) patterns")
KV_RE = re.compile(r"^([a-z_]+(?:\.[a-z_0-9]+)+) (\S+)$")


def parse_output(a, kind):
    """Fills `a` from a CLI's stdout.  raxml_cell and `rxc_perf cell` share
    the task/best line format."""
    for line in a.stdout.splitlines():
        m = PATTERNS_RE.search(line)
        if m:
            a.patterns = int(m.group(1))
            continue
        m = TASK_RE.match(line)
        if m:
            a.task_lnl.append(m.group(1))
            continue
        m = BEST_RE.match(line)
        if m:
            a.best_lnl = _num(m.group(1))
        elif line.startswith("best tree: "):
            a.best_tree = line[len("best tree: "):].strip()
        else:
            m = KV_RE.match(line)
            if m:
                a.values[m.group(1)] = m.group(2)
    if len(a.task_lnl) != a.expected_tasks:
        a.problems.append(f"{len(a.task_lnl)} task lines, expected "
                          f"{a.expected_tasks}")
    if not math.isfinite(a.best_lnl):
        a.problems.append("no finite best lnL")
    if not a.best_tree:
        a.problems.append("no best tree")


def child_env():
    """The caller's environment without RXC_* knobs, so every run of every
    commit sees the same program configuration."""
    return {k: v for k, v in os.environ.items() if not k.startswith("RXC_")}


def run_process(cmd, log_stem, timeout=ANALYSIS_TIMEOUT_S, usage=False):
    """Runs `cmd` to completion; returns (exit code, wall s, cpu s, peak RSS
    MB, stdout, stderr).  With `usage`, the program runs under `rxc_perf
    measure`, which reports its CPU time and peak RSS; otherwise those are 0.
    A process that overruns `timeout` is killed with its process group and
    reported with exit code -9."""
    out_path = Path(f"{log_stem}.out")
    err_path = Path(f"{log_stem}.err")
    usage_path = Path(f"{log_stem}.usage")
    if usage:
        usage_path.unlink(missing_ok=True)
        cmd = [binary("rxc_perf"), "measure", "--usage", str(usage_path),
               "--"] + list(cmd)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        try:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                    env=child_env(), cwd=ROOT,
                                    start_new_session=True)
        except OSError as e:
            return 127, 0.0, 0.0, 0.0, "", str(e)
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu_s = rss_mb = 0.0
    if usage and usage_path.is_file():
        fields = usage_path.read_text().split()
        cpu_s = float(fields[1])
        rss_mb = int(fields[3]) / 1024.0
    return (proc.returncode, wall, cpu_s, rss_mb,
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"))


def _kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_analysis(cmd, kind, expected_tasks, log_stem):
    a = Analysis(expected_tasks)
    (a.exit_code, a.wall_s, a.cpu_s, a.rss_mb, a.stdout,
     a.stderr) = run_process(cmd, log_stem, usage=True)
    if a.exit_code != 0:
        a.problems.append(f"exit code {a.exit_code}: "
                          f"{a.stderr.strip()[-200:]}")
    else:
        parse_output(a, kind)
    return a


# --- Newick -------------------------------------------------------------------

def newick_leaves(text):
    """Leaf labels of a Newick string; raises ValueError if malformed."""
    text = text.strip()
    if not text.endswith(";"):
        raise ValueError("missing ';'")
    depth, leaves, i, prev = 0, [], 0, ""
    while i < len(text) - 1:
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced ')'")
        elif c not in ",:;" and not c.isspace():
            j = i
            while j < len(text) and text[j] not in "(),:;":
                j += 1
            label = text[i:j].strip()
            if prev in ("(", ","):
                leaves.append(label)
            i = j
            continue
        elif c == ":":
            j = i + 1
            while j < len(text) and text[j] not in "(),;":
                j += 1
            float(text[i + 1:j])
            i = j
            continue
        if not c.isspace():
            prev = c
        i += 1
    if depth != 0:
        raise ValueError("unbalanced '('")
    return leaves


def tree_problem(newick, taxa):
    """None if `newick` parses with exactly the taxa `taxa`, else why not."""
    try:
        leaves = newick_leaves(newick)
    except ValueError as e:
        return f"best tree does not parse: {e}"
    if sorted(leaves) != sorted(taxa):
        return (f"best tree has {len(leaves)} leaves, not the "
                f"{len(taxa)} input taxa")
    return None


# --- build and inputs -----------------------------------------------------------

def ensure_built():
    """Configures and builds the program and `rxc_perf`."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no program sources under {ROOT}: "
                         "run from a full checkout of the repository")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    OUT.mkdir(exist_ok=True)
    log = OUT / "build.log"
    with open(log, "ab") as f:
        if not (BUILD / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            r = subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                                "-DCMAKE_BUILD_TYPE=Release"] + gen,
                               stdout=f, stderr=subprocess.STDOUT)
            if r.returncode != 0:
                raise BenchError(f"cmake configure failed; see {log}")
        r = subprocess.run(["cmake", "--build", str(BUILD), "-j",
                            str(THREADS), "--target", "rxc_perf",
                            "raxml_cell"],
                           stdout=f, stderr=subprocess.STDOUT)
        if r.returncode != 0:
            raise BenchError(f"build failed; see {log}")


def binary(name):
    return str(BUILD / "rxc_perf" if name == "rxc_perf" else
               BUILD / "rxc" / "examples" / name)


def input_seed(workload, seed, k):
    """Seed of the k-th input of a run: distinct per workload, run seed and
    k, and a positive 31-bit integer every CLI accepts."""
    h = hashlib.sha256(f"{workload}:{seed}:{k}".encode()).digest()
    return int.from_bytes(h[:4], "little") & 0x7FFFFFFF or 1


@dataclasses.dataclass
class Input:
    seed: int
    phylip: str = ""
    taxa: tuple = ()
    patterns: int = 0


def make_inputs(w, seed, count, workdir):
    inputs = []
    for k in range(count):
        s = input_seed(w.name, seed, k)
        path = workdir / f"input{k}.phy"
        code, _, _, _, out, err = run_process(
            [binary("rxc_perf"), "gen", "--shape", w.shape, "--seed", str(s),
             "--out", str(path)], workdir / f"gen{k}")
        if code != 0:
            raise BenchError(f"input generation failed: {err.strip()}")
        m = re.search(r"patterns (\d+)", out)
        with open(path) as f:
            f.readline()
            taxa = tuple(line.split()[0] for line in f if line.strip())
        inputs.append(Input(s, str(path), taxa, int(m.group(1))))
    return inputs


def analysis_cmd(w, inp):
    if w.kind == "cell":
        return [binary("rxc_perf"), "cell", "--phylip", inp.phylip] + \
            w.args() + ["--threads", str(THREADS)]
    return [binary("raxml_cell"), "--phylip", inp.phylip] + w.args() + \
        ["--threads", str(THREADS)]


def setup_cmd(w, inp):
    return [binary("rxc_perf"), "setup", "--phylip", inp.phylip,
            "--threads", str(THREADS), "--mode", w.mode,
            "--backend", "cell" if w.kind == "cell" else "host"]


def measure_setup(w, inputs, workdir, reps=SETUP_REPS):
    """Median set-up time over `reps` fresh processes, cycling inputs, so
    each set-up is cold, as the CLI's is.  Also returns the last set-up's
    phase breakdown, and records each input's pattern count as set-up saw
    it, which every analysis of that input must print too."""
    times, phases = [], {}
    for r in range(reps):
        inp = inputs[r % len(inputs)]
        code, _, _, _, out, err = run_process(setup_cmd(w, inp),
                                              workdir / f"setup{r}")
        if code != 0:
            raise BenchError(f"set-up failed: {err.strip()}")
        fields = out.split()
        phases = {fields[i]: fields[i + 1] for i in range(0, len(fields), 2)}
        times.append(float(phases["setup_s"]))
        inp.patterns = int(phases["patterns"])
    return statistics.median(times), phases


def working_set_mb(w, taxa, patterns):
    """Computed partial-likelihood working set of one engine: directed edges
    x patterns x states x categories x 8 bytes (categories only multiply
    under GAMMA; CAT keeps one strip per pattern)."""
    directed = 2 * (2 * taxa - 3)
    cats = 4 if w.mode == "gamma" else 1
    return (directed + 1) * patterns * 4 * cats * 8 / 2**20


# --- environment stamp ------------------------------------------------------------

def environment(w, inputs, setup_phases):
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return ""

    cpu = ""
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    llc, level = "", 0
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache.glob("index*")) if cache.is_dir() else []:
        lv = int(read(idx / "level") or 0)
        if lv >= level and read(idx / "type") != "Instruction":
            level, llc = lv, read(idx / "size")
    code, _, _, _, out, _ = run_process([binary("rxc_perf"), "env"],
                                        OUT / "env")
    prog = json.loads(out) if code == 0 else {}
    build_type = ""
    for line in read(BUILD / "CMakeCache.txt").splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists() and shutil.which("git"):
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or commit
    patterns = int(setup_phases.get("patterns", inputs[0].patterns))
    return {
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "cpu_model": cpu,
        "llc": f"L{level} {llc}",
        "working_set_mb_computed": round(
            working_set_mb(w, len(inputs[0].taxa), patterns), 3),
        "simd_level": prog.get("simd_level", "unknown"),
        "host_probe_cpu_ms": round(prog.get("host_probe_cpu_ms", 0.0), 3),
        "host_probe_mem_ms": round(prog.get("host_probe_mem_ms", 0.0), 3),
        "device_model": prog.get("device_model", "unknown"),
        "build_type": build_type,
        "commit": commit,
        "source_digest": source_digest(),
    }


def source_digest():
    """sha256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("src", "examples"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file():
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


# --- the two kinds of run -----------------------------------------------------

def trimmed_mean(values):
    """Mean without the lowest and the highest quarter of the values (at
    least one at each end from four values up; a plain mean below that).
    Like a median it ignores a few disturbed analyses, such as a first one
    that pays the host's warm-up; unlike a median it averages several values, so it does not
    jump with whichever single input lands in the middle."""
    v = sorted(values)
    k = max(1, len(v) // 4) if len(v) >= 4 else 0
    return statistics.mean(v[k:len(v) - k])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def tally(analyses):
    """(attempted, failed) tasks: every task of every analysis is attempted,
    and a crashed analysis fails all of its tasks rather than dropping out."""
    return (sum(a.expected_tasks for a in analyses),
            sum(a.failed_tasks() for a in analyses))


def check_repeats(analyses, inputs, problems):
    """Same input analysed twice: every task lnL, the best tree and the Cell
    counts must repeat exactly."""
    seen = {}
    for i, a in enumerate(analyses):
        if a.failed_tasks():
            continue
        k = i % len(inputs)
        if k in seen and seen[k] != a.fingerprint():
            problems.append(f"input {k}: repeated analysis differs")
            a.problems.append("not reproducible")
        seen.setdefault(k, a.fingerprint())


def input_problem(a, inp):
    """None if analysis `a` of input `inp` printed a best tree with the
    input's taxa and the pattern count set-up saw, else why not."""
    if inp.patterns and a.patterns != inp.patterns:
        return (f"CLI compressed to {a.patterns} patterns, set-up to "
                f"{inp.patterns}")
    return tree_problem(a.best_tree, inp.taxa)


def measure(w, seed, seconds, workdir):
    inputs = make_inputs(w, seed, w.inputs, workdir)
    setup_s, phases = measure_setup(w, inputs, workdir)
    env = environment(w, inputs, phases)
    print("env " + json.dumps(env, sort_keys=True))

    # Closed loop: analyses back to back, cycling the inputs, until the run
    # has lasted `seconds` and has its minimum set of analyses.
    analyses, start, problems = [], time.perf_counter(), []
    while True:
        elapsed = time.perf_counter() - start
        if len(analyses) >= w.min_analyses and elapsed >= seconds:
            break
        if len(analyses) >= 2 and elapsed >= RUN_BUDGET_S:
            print(f"  note: run budget of {RUN_BUDGET_S}s spent after "
                  f"{len(analyses)} analyses")
            break
        k = len(analyses) % len(inputs)
        a = run_analysis(analysis_cmd(w, inputs[k]), w.kind, w.tasks,
                         workdir / f"analysis{len(analyses)}")
        if not a.failed_tasks():
            p = input_problem(a, inputs[k])
            if p:
                a.problems.append(p)
        analyses.append(a)
    check_repeats(analyses, inputs, problems)
    for i, a in enumerate(analyses):
        for p in a.problems:
            problems.append(f"analysis {i}: {p}")

    attempted, failed = tally(analyses)
    good = [a for a in analyses if not a.failed_tasks()] or analyses
    walls = [a.wall_s for a in good]
    # One lnL per input, so a repeated input is not counted twice.  Dividing
    # by the input's pattern count, which the program does not choose,
    # leaves each input's relative change as it is but removes most of the
    # lnL's dependence on how many sites the seed happened to make variable.
    lnl_per_pattern = {}
    for i, a in enumerate(analyses):
        if not a.failed_tasks() and a.patterns:
            lnl_per_pattern.setdefault(i % len(inputs),
                                       a.best_lnl / a.patterns)
    metrics = {
        "wall_s": trimmed_mean(walls),
        "setup_s": setup_s,
        "neg_lnl_per_pattern":
            -trimmed_mean(lnl_per_pattern.values() or [0.0]),
        "peak_rss_mb": trimmed_mean([a.rss_mb for a in good]),
    }
    q1, q3 = quartiles(walls)
    print(f"workload {w.name} seed {seed}: {len(analyses)} analyses over "
          f"{len(inputs)} inputs, {attempted} tasks, {failed} failed")
    print(f"  wall_s        {metrics['wall_s']:.4f} s   (trimmed mean of "
          f"{len(walls)}; quartiles {q1:.4f} .. {q3:.4f})")
    print("  analyses (input: wall s) " + " ".join(
        f"{i % len(inputs)}:{a.wall_s:.3f}" for i, a in enumerate(analyses)))
    print(f"  setup_s       {setup_s:.6f} s   (median of {SETUP_REPS})")
    print(f"  best_lnl      {-metrics['neg_lnl_per_pattern']:.6f} nats per "
          f"pattern (trimmed mean over inputs; reported negated)")
    print(f"  peak_rss_mb   {metrics['peak_rss_mb']:.1f} MB")
    if w.kind == "cell":
        vs = sorted({a.values.get("cell.virtual_s", "nan") for a in good})
        print(f"  virtual_s     {', '.join(vs)} s   (one value per input)")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    return not problems and failed == 0, attempted, failed, metrics


def per_layer_from_replay(w, r, proc_cpu_s, proc_wall_s):
    k = r["kernels"]
    c = r["counters"]
    task_wall = sum(t["wall_s"] for t in r["tasks"])
    kernel_s = sum(v["s"] for v in k.values())
    nv = k["newview"]
    hits = c.get("engine.partial.hits", 0)
    misses = c.get("engine.partial.misses", 0)
    acc = c.get("search.moves.accepted", 0)
    rej = c.get("search.moves.rejected", 0)
    m = {
        "io.read_s": r["read_s"],
        "seq.compress_s": r["compress_s"],
        "likelihood.executor_setup_s": r["executor_s"],
        "tree.parsimony_s": r["parsimony_s"],
        "search.self_s": task_wall - kernel_s - r["parsimony_s"],
        "search.rounds": c.get("search.rounds", 0),
        "search.accept_ratio": acc / (acc + rej) if acc + rej else 0.0,
        "likelihood.kernel_s": kernel_s,
        "likelihood.kernel_share": kernel_s / r["traced_s"],
        "likelihood.newview.ns_per_pattern":
            nv["s"] * 1e9 / nv["patterns"] if nv["patterns"] else 0.0,
        "likelihood.newview.batch_width":
            nv["calls"] / nv["dispatches"] if nv["dispatches"] else 0.0,
        "likelihood.exp_calls": c.get("kernel.exp_calls", 0),
        "likelihood.partial_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "mem.partials_mb": working_set_mb(w, r["taxa"], r["patterns"]),
        "trace.wall_s": r["traced_s"],
        "trace.unattributed_s": proc_wall_s - r["untraced_s"],
        "trace.overhead_s": r["traced_s"] - r["untraced_s"],
    }
    for kind, v in k.items():
        m[f"likelihood.{kind}.calls"] = v["calls"]
        m[f"likelihood.{kind}.s"] = v["s"]
    pool(m, c)
    proc(m, proc_cpu_s, proc_wall_s)
    return m


def pool(m, counters):
    m["support.pool.jobs"] = counters.get("pool.jobs", 0)
    m["support.pool.steals"] = counters.get("pool.steals", 0)
    m["support.pool.idle_wakeups"] = counters.get("pool.idle_wakeups", 0)


def proc(m, cpu_s, wall_s):
    m["proc.cpu_s"] = cpu_s
    m["proc.cores_busy"] = cpu_s / wall_s if wall_s > 0 else 0.0


def per_layer_from_cell(w, traced, untraced_host_s, inp):
    v = {k: _num(x) for k, x in traced.values.items()}
    c = {k[len("obs."):]: int(x) for k, x in traced.values.items()
         if k.startswith("obs.")}
    hits = c.get("engine.partial.hits", 0)
    misses = c.get("engine.partial.misses", 0)
    acc = c.get("search.moves.accepted", 0)
    rej = c.get("search.moves.rejected", 0)
    offloads = v.get("core.signaled_offloads", 0)
    m = {key: v[key] for key in v if key.startswith(CELL_EXACT)}
    m.update({
        "io.read_s": v.get("io.read_s", 0.0),
        "seq.compress_s": v.get("seq.compress_s", 0.0),
        "search.rounds": c.get("search.rounds", 0),
        "search.accept_ratio": acc / (acc + rej) if acc + rej else 0.0,
        "likelihood.exp_calls": c.get("kernel.exp_calls", 0),
        "likelihood.partial_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "mem.partials_mb": working_set_mb(w, len(inp.taxa), inp.patterns),
        "core.host_ns_per_offload":
            untraced_host_s * 1e9 / offloads if offloads else 0.0,
        "trace.wall_s": v.get("host.wall_s", 0.0),
    })
    for kind in ("newview", "evaluate", "sumtable", "nr", "edge_gradient"):
        m[f"likelihood.{kind}.calls"] = c.get(f"kernel.{kind}.calls", 0)
    pool(m, c)
    return m


def trace(w, seed, workdir):
    """One input: two untraced analyses, the traced replay (or traced Cell
    run) of the same analysis, then two more untraced analyses.  The
    untraced ones check the outputs and their repeatability, and their
    median is the CLI figure the trace is compared with: taken on both
    sides of the replay, a host that drifts within the run moves both
    alike, and one analysis the host disturbs does not move it."""
    inputs = make_inputs(w, seed, 1, workdir)
    inp = inputs[0]
    _, phases = measure_setup(w, inputs, workdir)
    print("env " + json.dumps(environment(w, inputs, phases), sort_keys=True))
    problems = []

    def untraced(i):
        a = run_analysis(analysis_cmd(w, inp), w.kind, w.tasks,
                         workdir / f"untraced{i}")
        problems.extend(a.problems)
        if not a.failed_tasks():
            p = input_problem(a, inp)
            if p:
                problems.append(p)
        return a

    runs = [untraced(0), untraced(1)]
    ref = runs[0]
    m = {name: 0.0 for name, _ in PER_LAYER}
    attempted, failed, replay, traced = 0, 0, None, None
    if w.kind == "raxml":
        code, _, _, _, out, err = run_process(
            [binary("rxc_perf"), "replay", "--phylip", inp.phylip,
             "--threads", str(THREADS), "--mode", w.mode,
             "--inferences", str(w.inferences),
             "--bootstraps", str(w.bootstraps)],
            workdir / "replay")
        attempted += w.tasks
        try:
            replay = json.loads(out.strip().splitlines()[-1])
        except (ValueError, IndexError):
            replay = None
        if code != 0 or replay is None:
            failed += w.tasks
            problems.append(f"replay failed (exit {code}): {err.strip()}")
            replay = None
    elif w.kind == "cell":
        traced = run_analysis(analysis_cmd(w, inp) + ["--obs"], w.kind,
                              w.tasks, workdir / "traced")
        attempted += w.tasks
        failed += traced.failed_tasks()
        problems.extend(traced.problems)
        if traced.fingerprint() != ref.fingerprint():
            problems.append("counters on changed the Cell run's results")
    runs += [untraced(2), untraced(3)]
    check_repeats(runs, inputs, problems)
    ran, ran_failed = tally(runs)
    attempted, failed = attempted + ran, failed + ran_failed
    cpu_s = statistics.median(a.cpu_s for a in runs)
    wall_s = statistics.median(a.wall_s for a in runs)
    proc(m, cpu_s, wall_s)

    if replay is not None:
        m.update(per_layer_from_replay(w, replay, cpu_s, wall_s))
        replay_problems(replay, ref, problems)
        print_layers(m, replay, wall_s)
    if traced is not None:
        host_s = statistics.median(_num(a.values.get("host.run_s"))
                                   for a in runs)
        m.update(per_layer_from_cell(w, traced, host_s, inp))
        print_cell(m)
    print(f"  untraced CLI: wall {wall_s:.4f} s, cpu {cpu_s:.4f} s, "
          f"{m['proc.cores_busy']:.2f} cores busy (median of "
          + ", ".join(f"{a.wall_s:.4f}" for a in runs) + ")")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    return not problems and failed == 0, attempted, failed, m


def replay_problems(r, ref, problems):
    """The replay must reproduce the CLI's analysis: bitwise between its own
    traced and untraced passes, and to the CLI's printed precision."""
    if not r["bitwise"]:
        problems.append("traced replay is not bitwise equal to untraced")
    if len(r["tasks"]) != len(ref.task_lnl):
        problems.append("replay ran a different number of tasks")
        return
    for i, (t, printed) in enumerate(zip(r["tasks"], ref.task_lnl)):
        lnl = t["lnl"]
        decimals = len(printed.split(".")[1]) if "." in printed else 0
        if lnl is None or f"{lnl:.{decimals}f}" != printed:
            problems.append(f"task {i}: replay lnL {lnl} != CLI {printed}")
    if r["best_tree"] != ref.best_tree:
        problems.append("replay best tree differs from the CLI's")


def print_layers(m, r, cli_wall_s):
    """Self time per layer; the rows add up to the traced wall."""
    total = r["traced_s"]
    rows = [("io.read", m["io.read_s"]),
            ("seq.compress", m["seq.compress_s"]),
            ("likelihood.executor_setup", m["likelihood.executor_setup_s"]),
            ("tree.parsimony", m["tree.parsimony_s"]),
            ("search (self)", m["search.self_s"])]
    rows += [(f"likelihood.{k}", m[f"likelihood.{k}.s"])
             for k in ("newview", "evaluate", "sumtable", "nr",
                       "edge_gradient")]
    print(f"  {'layer':28s} {'self s':>10s} {'share':>7s}")
    for name, s in rows:
        print(f"  {name:28s} {s:10.4f} {s / total:7.1%}")
    print(f"  {'traced wall':28s} {total:10.4f} {1:7.1%}")
    print(f"  untraced replay {r['untraced_s']:.4f} s, so tracing costs "
          f"{m['trace.overhead_s']:+.4f} s; CLI wall {cli_wall_s:.4f} s, so "
          f"{m['trace.unattributed_s']:+.4f} s is unattributed (process "
          f"start-up, support summary, output, noise)")


def print_cell(m):
    total = sum(m[f"cell.cycles.{k}"] for k in
                ("newview", "evaluate", "sumtable", "nr", "edge_gradient"))
    print(f"  virtual {m['cell.virtual_s']:.6f} s; offloads "
          f"{m['core.signaled_offloads']:.0f}; host "
          f"{m['core.host_ns_per_offload']:.0f} ns/offload")
    for k in ("newview", "evaluate", "sumtable", "nr", "edge_gradient"):
        cyc = m[f"cell.cycles.{k}"]
        print(f"  cell.cycles.{k:14s} {cyc:16.0f} "
              f"{cyc / total if total else 0:7.1%}")
    print(f"  dma stall {m['cell.dma_stall_cycles']:.0f} cycles; PPE busy "
          f"{m['core.ppe_busy_frac']:.3f}; SPE busy "
          f"{m['core.spe_busy_frac']:.3f}")


# --- entry point ----------------------------------------------------------------

def result_line(correct, attempted, failed, metrics, units):
    unknown = set(metrics) - {name for name, _ in units}
    if unknown:
        raise BenchError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    out = {}
    for name, unit in units:
        v = float(metrics.get(name, 0.0))
        out[name] = {"value": v if math.isfinite(v) else 0.0, "unit": unit}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": out})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    try:
        ensure_built()
        workdir = WORK / f"{w.name}-{args.seed}-{args.trace}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        if args.trace:
            correct, attempted, failed, m = trace(w, args.seed, workdir)
            units = PER_LAYER
        else:
            correct, attempted, failed, m = measure(w, args.seed,
                                                    args.seconds, workdir)
            units = END_TO_END
        line = result_line(correct, attempted, failed, m, units)
        if correct:  # inputs and logs are kept only when a check failed
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as e:
        print(f"e2ebench: {e}", file=sys.stderr)
        return 2
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
