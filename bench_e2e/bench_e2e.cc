// End-to-end benchmark: what a user of the compiler pays, from program to
// result, on a P=4 team — and, in a separate traced run, where the time
// went layer by layer.
//
//   bench_e2e --workload NAME --seed N --seconds S --trace 0|1
//
// One process, closed loop, one caller.  It drives the public library API
// from outside: driver::Compilation stage accessors for compile,
// Compilation::nativeExec() for the toolchain, and
// cg::SpmdExecutor::runForkJoinLowered / runRegionsLowered on an
// rt::ThreadTeam for runs.  Workloads (README.md says why each exists):
//
//   sync-small     all 17 kernels at their default size, lowered engine
//   stencil-large  11 stencil/sweep/pipeline kernels with >= 8 MiB stores,
//                  native engine
//   compile-cold   all 17 kernels plus two parsed sample programs, native
//                  engine; most of the window goes to cold compiles
//
// Three kinds of operation are timed.  A compile takes one program from a
// fresh session through loweredExec() (compile_ms).  A cold preparation
// is a compile, a cold nativeExec() against an empty object cache
// (native_build_ms) and the first optimized native result; the three sum
// to time_to_result_ms.  A run executes a prepared program's base
// (fork-join) or optimized plan once on the P-thread team (base_run_ms,
// opt_run_ms).
//
// Set-up builds the inputs (programs, sequential reference stores),
// prepares every program once, and then keeps all P threads busy on the
// workload for a fixed warm-up.  The measured window alternates blocks of
// run passes with compile turns (one compile of every program, one cold
// preparation), in a fixed time share per workload, so every metric
// samples the whole window.  Each run pass visits every program in a
// seeded order, alternating which variant runs first; at least 100 passes
// are made, so at least 10 samples lie beyond p90.  The team exists only
// during run blocks: its idle workers spin, which would slow the
// single-threaded compiles in between.
//
// Every operation is checked.  A compile fails when its lowered listing
// differs from the program's first compile; a preparation also fails when
// its native build fails or comes from a cache, or its first result is
// wrong.  A run fails when
// its SyncCounts differ from the program's first run, its store differs
// from ir::runSequential beyond the kernel tolerance (bit-exact for
// reduction-free kernels), or — native runs of reduction kernels — from
// the lowered engine's store.  Failed runs are never timed, and any
// failure makes the exit status non-zero.
//
// Output: one row per program (median and p90 per variant, compile-side
// geometric means), one line per metric, and as the last line one JSON object
// {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
// metrics are the end-to-end ones; with --trace 1 the per-layer ones
// (stage timings, analysis counters, blame buckets, scaling, trace
// overhead).
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "codegen/spmd_executor.h"
#include "driver/compilation.h"
#include "driver/execution.h"
#include "driver/suite.h"
#include "ir/seq_executor.h"
#include "kernels/kernels.h"
#include "obs/critical_path.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "runtime/team.h"

namespace {

using namespace spmd;
using Clock = std::chrono::steady_clock;

constexpr int kBase = 0;
constexpr int kOpt = 1;
constexpr const char* kVariantName[2] = {"base", "opt"};
/// SyncCounts slot of the optimized run on one thread (counter traffic
/// depends on the team size).
constexpr int kOptSingle = 2;

/// All-thread warm-up on the workload before anything is timed: a VM
/// idle for ~20 s runs its first ~1 s of 4-thread work ~5x slow.
constexpr double kWarmupSeconds = 2.0;
/// Minimum measured run passes: with nearest-rank p90, 100 samples leave
/// 10 beyond it.
constexpr int kMinRunPasses = 100;
/// Minimum cold preparations per program in the window (set-up adds one).
constexpr int kMinCompileRounds = 2;
/// Minimum traced passes (--trace 1).
constexpr int kMinTracePasses = 5;
/// Trace ring capacity (events per thread) at which a run that still
/// drops events counts as failed.
constexpr std::size_t kMaxTraceCapacity = std::size_t{1} << 22;

double msSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}
double secondsSince(Clock::time_point start) {
  return msSince(start) / 1000.0;
}

// --- order statistics ------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank 90th percentile.
double p90(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(0.9 * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double logSum = 0.0;
  for (double x : v) logSum += std::log(x);
  return std::exp(logSum / static_cast<double>(v.size()));
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Shortest decimal that reads back as exactly `x`.
std::string number(double x) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, res.ptr);
}

// --- workloads -------------------------------------------------------------

struct ProgramSpec {
  std::string name;
  std::string kernel;      ///< kernel suite name (fromProgram) ...
  std::string sourcePath;  ///< ... or a source file (fromSource)
  i64 n = 0;
  i64 t = 0;
};

struct WorkloadSpec {
  std::string name;
  cg::EngineKind engine = cg::EngineKind::Lowered;
  /// Share of the measured window spent on compile turns.
  double compileShare = 0.5;
  std::vector<ProgramSpec> programs;
};

/// stencil-large sizes: every store is at or above the 8 MiB aggregate L2
/// of the 4 cores (and far below the L3 the VM reports); T is kept small
/// so the sequential reference stays affordable.
struct LargeSize {
  const char* kernel;
  i64 n;
  i64 t;
};
constexpr LargeSize kStencilLarge[] = {
    {"jacobi1d", 524288, 4},   {"jacobi2d", 768, 4},
    {"stencil9", 768, 2},      {"redblack", 1024, 2},
    {"sor_pipeline", 1024, 1}, {"adi", 768, 1},
    {"tridiag_local", 768, 2}, {"shallow", 448, 2},
    {"tomcatv_like", 768, 2},  {"heat3d", 84, 2},
    {"wave1d", 393216, 4},
};

std::vector<ProgramSpec> defaultKernels() {
  std::vector<ProgramSpec> out;
  for (const kernels::KernelSpec& k : kernels::allKernels())
    out.push_back({k.name, k.name, "", k.defaultN, k.defaultT});
  return out;
}

std::optional<WorkloadSpec> workloadByName(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "sync-small") {
    w.engine = cg::EngineKind::Lowered;
    w.compileShare = 0.5;
    w.programs = defaultKernels();
  } else if (name == "stencil-large") {
    w.engine = cg::EngineKind::Native;
    w.compileShare = 0.5;
    for (const LargeSize& s : kStencilLarge)
      w.programs.push_back({s.kernel, s.kernel, "", s.n, s.t});
  } else if (name == "compile-cold") {
    w.engine = cg::EngineKind::Native;
    w.compileShare = 0.85;
    w.programs = defaultKernels();
    // Sample sources at spmdopt's default size.
    for (const char* sample : {"jacobi", "sweep"})
      w.programs.push_back({std::string(sample) + ".f", "",
                            std::string(SPMD_REPO_ROOT) + "/tools/samples/" +
                                sample + ".f",
                            64, 8});
  } else {
    return std::nullopt;
  }
  return w;
}

// --- per-program state -----------------------------------------------------

bool stmtHasReduction(const ir::Stmt& stmt) {
  switch (stmt.kind()) {
    case ir::Stmt::Kind::ScalarAssign:
      return stmt.scalarAssign().reduction != ir::ReductionOp::None;
    case ir::Stmt::Kind::ArrayAssign:
      return stmt.arrayAssign().reduction != ir::ReductionOp::None;
    case ir::Stmt::Kind::Loop:
      for (const ir::StmtPtr& s : stmt.loop().body)
        if (stmtHasReduction(*s)) return true;
      return false;
  }
  return false;
}

bool programHasReduction(const ir::Program& prog) {
  for (const ir::StmtPtr& s : prog.topLevel())
    if (stmtHasReduction(*s)) return true;
  return false;
}

double storeMiB(const ir::Store& store) {
  const ir::Program& prog = store.program();
  std::size_t elements = prog.scalars().size();
  for (std::size_t a = 0; a < prog.arrays().size(); ++a)
    elements += store.elementCount(ir::ArrayId{static_cast<int>(a)});
  return static_cast<double>(elements * sizeof(double)) / (1024.0 * 1024.0);
}

/// Equal within `tol`; tol 0 means bit-exact (checked with memcmp first,
/// which is the common, fast case).
bool storesMatch(const ir::Store& got, const ir::Store& want, double tol) {
  const ir::Program& prog = want.program();
  if (tol == 0.0) {
    bool same = std::memcmp(got.scalarData(), want.scalarData(),
                            prog.scalars().size() * sizeof(double)) == 0;
    for (std::size_t a = 0; same && a < prog.arrays().size(); ++a) {
      const ir::ArrayId id{static_cast<int>(a)};
      same = got.elementCount(id) == want.elementCount(id) &&
             std::memcmp(got.data(id), want.data(id),
                         want.elementCount(id) * sizeof(double)) == 0;
    }
    if (same) return true;
  }
  return ir::Store::maxAbsDifference(got, want) <= tol;
}

bool sameCounts(const rt::SyncCounts& a, const rt::SyncCounts& b) {
  return a.barriers == b.barriers && a.broadcasts == b.broadcasts &&
         a.counterPosts == b.counterPosts && a.counterWaits == b.counterWaits;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Compile pipeline stages, each timed around its accessor call.
constexpr int kStages = 7;
constexpr const char* kStageNames[kStages] = {
    "parse", "validate", "partition", "regions", "optimize", "emit", "lower"};

struct Blame {
  double computeMs = 0, barrierWaitMs = 0, serialMs = 0, counterStallMs = 0,
         imbalanceMs = 0, wallMs = 0;
  int runs = 0;
};

struct Program {
  ProgramSpec spec;
  std::string source;  ///< fromSource programs
  ir::SymbolBindings symbols;
  double tol = 0.0;  ///< 0: bit-exact
  bool hasReduction = false;

  /// Sequential reference, computed on an independent program instance.
  std::optional<driver::Compilation> referenceSession;
  std::optional<ir::Store> reference;

  // Oracles fixed by the first compile / first run.
  std::optional<std::string> listing;
  std::array<std::optional<rt::SyncCounts>, 3> counts;  ///< base, opt, P=1

  // Samples (ms): every compile; per cold preparation its native build,
  // time to result, and whole wall including untimed store and team set-up.
  std::vector<double> compileMs, nativeMs, ttrMs, prepMs;

  // Run state: the set-up preparation's session and plan statistics,
  // stores bound to its program, and executors on the current run team.
  std::optional<driver::Compilation> session;
  core::OptStats plan;
  std::optional<ir::Store> pristine, work;
  /// Lowered-engine stores of native workloads' reduction kernels (the
  /// reduction-free ones are bit-identical to the reference).
  std::array<std::optional<ir::Store>, 2> loweredStore;
  std::optional<cg::SpmdExecutor> executor;
  std::optional<cg::SpmdExecutor> tracedExecutor;
  std::optional<cg::SpmdExecutor> p1Executor;

  std::array<std::vector<double>, 2> runMs;
  std::array<std::vector<double>, 2> tracedMs;
  std::vector<double> p1Ms;
  std::array<Blame, 2> blame;
};

/// A fresh session over freshly built input: a newly constructed kernel
/// (program and decomposition), or the source text, so the parser runs.
driver::Compilation freshSession(const Program& p) {
  if (p.spec.kernel.empty())
    return driver::Compilation::fromSource(p.source, p.spec.name);
  kernels::KernelSpec k = kernels::kernelByName(p.spec.kernel);
  return driver::Compilation::fromProgram(k.program, k.decomp, k.name);
}

/// Scratch directories under the current directory, removed at exit: a
/// fresh, empty object cache per cold native build, and the toolchain's
/// temporary files.
class ScratchDirs {
 public:
  ScratchDirs()
      : root_(std::filesystem::absolute(".bench_build/scratch") /
              std::to_string(::getpid())) {
    std::filesystem::create_directories(root_ / "tmp");
    ::setenv("TMPDIR", (root_ / "tmp").c_str(), 1);
  }
  ~ScratchDirs() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }
  ScratchDirs(const ScratchDirs&) = delete;
  ScratchDirs& operator=(const ScratchDirs&) = delete;

  /// Points SPMD_NATIVE_CACHE_DIR at a new empty directory.  Call only
  /// while no other thread reads the environment.
  void freshObjectCache() {
    const std::filesystem::path dir =
        root_ / ("cache" + std::to_string(next_++));
    std::filesystem::create_directories(dir);
    ::setenv("SPMD_NATIVE_CACHE_DIR", dir.c_str(), 1);
  }

 private:
  std::filesystem::path root_;
  int next_ = 0;
};

/// (name, (value, unit)) in print order.
using MetricList =
    std::vector<std::pair<std::string, std::pair<double, const char*>>>;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

int availableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return 1;
}

// --- the benchmark ---------------------------------------------------------

class Bench {
 public:
  Bench(Options options, WorkloadSpec workload)
      : opt_(std::move(options)),
        wl_(std::move(workload)),
        threads_(std::min(4, availableCores())),
        rng_(opt_.seed) {}

  int run();

 private:
  class RunBlock;

  // Set-up.
  void buildInputs();
  void bindStores();
  void lowerReference(Program& p, rt::ThreadTeam& team);
  void bindExecutors(rt::ThreadTeam& team);
  void unbindExecutors();

  // The measured window.
  void window();
  void traceWindow();

  // Operations.
  driver::Compilation compile(Program& p, std::array<double, kStages>& stage,
                              double& totalMs);
  void compileSample(Program& p);
  void coldCompile(Program& p, bool setup);
  std::optional<double> timedRun(Program& p, int variant,
                                 cg::SpmdExecutor& exec, int countsSlot);
  void runPass(bool record);
  void tracePass();
  void tracedRun(Program& p, int variant);
  void newTracer(rt::ThreadTeam& team, std::size_t capacity);

  /// Checks a finished run's counts and store; false (with `why`) on a
  /// mismatch.  The first run counted in a slot fixes its counts.
  bool verifyRun(Program& p, int variant, int countsSlot,
                 const rt::SyncCounts& counts, const ir::Store& store,
                 std::string& why);
  void fail(const std::string& what) {
    ++failed_;
    std::cerr << "FAILED: " << what << "\n";
  }

  std::vector<Program*> shuffled();
  cg::ExecOptions execOptions(Program& p) const;
  bool native() const { return wl_.engine == cg::EngineKind::Native; }

  // Reporting.
  void printRows() const;
  void endToEnd(MetricList& out) const;
  void perLayer(MetricList& out) const;

  Options opt_;
  WorkloadSpec wl_;
  int threads_;
  std::mt19937_64 rng_;
  std::deque<Program> programs_;  // stable addresses: executors inside
  ScratchDirs scratch_;

  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;

  double inputSeconds_ = 0.0;
  double bindSeconds_ = 0.0;
  double warmupSeconds_ = 0.0;
  int runPasses_ = 0;
  int compileOps_ = 0;

  // Traced run (--trace 1).
  rt::ThreadTeam* traceTeam_ = nullptr;  ///< the run team while tracing
  std::unique_ptr<obs::Tracer> tracer_;
  std::vector<obs::StatRow> stats_;
  std::array<std::vector<double>, kStages> statsStageMs_;
  std::vector<double> statsEmitMs_, statsToolchainMs_, statsLoadMs_,
      statsFirstRunMs_;
  std::uint64_t statsSourceBytes_ = 0, statsUnits_ = 0;
};

/// The run team and the executors bound to it.  Alive only while runs
/// execute: idle workers spin, and would slow the compiles in between.
class Bench::RunBlock {
 public:
  explicit RunBlock(Bench& bench) : bench_(bench), team_(bench.threads_) {
    bench_.bindExecutors(team_);
  }
  ~RunBlock() { bench_.unbindExecutors(); }
  RunBlock(const RunBlock&) = delete;
  RunBlock& operator=(const RunBlock&) = delete;

  rt::ThreadTeam& team() { return team_; }

 private:
  Bench& bench_;
  rt::ThreadTeam team_;
};

std::vector<Program*> Bench::shuffled() {
  std::vector<Program*> order;
  for (Program& p : programs_) order.push_back(&p);
  std::shuffle(order.begin(), order.end(), rng_);
  return order;
}

cg::ExecOptions Bench::execOptions(Program& p) const {
  cg::ExecOptions options;
  options.engine = wl_.engine;
  if (native()) options.native = p.session->nativeExec().module.get();
  return options;
}

void Bench::buildInputs() {
  for (const ProgramSpec& spec : wl_.programs) {
    Program& p = programs_.emplace_back();
    p.spec = spec;
    if (spec.kernel.empty()) p.source = readFile(spec.sourcePath);
    p.referenceSession.emplace(freshSession(p));
    const ir::Program& prog = p.referenceSession->program();
    double tolerance = 1e-9;
    if (spec.kernel.empty()) {
      p.symbols = driver::bindSymbols(prog, {}, spec.n, spec.t);
    } else {
      kernels::KernelSpec k = kernels::kernelByName(spec.kernel);
      p.symbols = k.bindings(spec.n, spec.t);
      tolerance = k.tolerance;
    }
    p.hasReduction = programHasReduction(prog);
    p.tol = p.hasReduction ? tolerance : 0.0;
    p.reference.emplace(prog, p.symbols);
  }
  // The sequential references are independent: spread them over the team.
  std::vector<std::string> errors(programs_.size());
  rt::ThreadTeam team(threads_);
  team.parallelFor(programs_.size(), [&](std::size_t i) {
    try {
      ir::runSequential(programs_[i].referenceSession->program(),
                        *programs_[i].reference);
    } catch (const std::exception& e) {
      errors[i] = e.what();
    }
  });
  for (std::size_t i = 0; i < errors.size(); ++i)
    if (!errors[i].empty())
      throw Error(programs_[i].spec.name + ": reference run failed: " +
                  errors[i]);
}

bool Bench::verifyRun(Program& p, int variant, int countsSlot,
                      const rt::SyncCounts& counts, const ir::Store& store,
                      std::string& why) {
  std::optional<rt::SyncCounts>& first =
      p.counts[static_cast<std::size_t>(countsSlot)];
  if (!first.has_value()) first = counts;
  if (!sameCounts(*first, counts)) {
    why = "SyncCounts differ from the first run";
    return false;
  }
  if (!storesMatch(store, *p.reference, p.tol)) {
    why = "store differs from the sequential reference";
    return false;
  }
  const std::optional<ir::Store>& lowered =
      p.loweredStore[static_cast<std::size_t>(variant)];
  if (lowered.has_value() && !storesMatch(store, *lowered, p.tol)) {
    why = "native store differs from the lowered store";
    return false;
  }
  return true;
}

/// Compiles `p` in a fresh session over freshly built input (not timed)
/// through loweredExec(), timing each stage accessor; checks the lowered
/// listing against the program's first compile.
driver::Compilation Bench::compile(Program& p, std::array<double, kStages>& stage,
                                   double& totalMs) {
  ++attempted_;
  driver::Compilation c = freshSession(p);
  auto timeStage = [&](int i, auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    stage[static_cast<std::size_t>(i)] = msSince(t0);
  };
  const auto start = Clock::now();
  timeStage(0, [&] {
    if (!c.parseOk()) throw Error("program did not parse");
  });
  timeStage(1, [&] {
    if (!c.validated().ok()) throw Error("program did not validate");
  });
  timeStage(2, [&] { c.partitioned(); });
  timeStage(3, [&] { c.regionTree(); });
  timeStage(4, [&] { c.syncPlan(); });
  timeStage(5, [&] { c.lowered(); });
  timeStage(6, [&] { c.loweredExec(); });
  totalMs = msSince(start);
  if (c.diags().hasErrors()) throw Error("compile reported errors");
  const std::string& listing = c.lowered().listing;
  if (!p.listing.has_value()) p.listing = listing;
  if (*p.listing != listing)
    throw Error("lowered listing differs from the first compile");
  return c;
}

/// One compile_ms sample of `p` (a compile costs ~100x less than a native
/// build, so every compile turn of the window takes one per program).
void Bench::compileSample(Program& p) {
  try {
    std::array<double, kStages> stage{};
    double ms = 0.0;
    compile(p, stage, ms);
    p.compileMs.push_back(ms);
  } catch (const std::exception& e) {
    fail(p.spec.name + " (compile): " + e.what());
  }
}

/// One cold preparation of `p`: a fresh-session compile, a cold
/// nativeExec() and the first optimized native result.  The input, the
/// store and the team are made between the timed intervals;
/// time-to-result is the sum of the three intervals.  The set-up
/// preparation keeps its session for the runs; it precedes the warm-up,
/// so its times count only in set-up time.
void Bench::coldCompile(Program& p, bool setup) {
  const auto prepStart = Clock::now();
  try {
    std::array<double, kStages> stage{};
    double compileMs = 0.0;
    driver::Compilation c = compile(p, stage, compileMs);

    scratch_.freshObjectCache();
    const auto nativeStart = Clock::now();
    const driver::NativeExec& ne = c.nativeExec();
    const double nativeMs = msSince(nativeStart);
    if (!ne.available())
      throw Error("native build failed: " + ne.report.message);
    if (ne.report.fromCache) throw Error("cold native build hit the cache");

    ir::Store store(c.program(), p.symbols);
    rt::SyncCounts counts;
    double firstRunMs = 0.0;
    {
      rt::ThreadTeam team(threads_);
      cg::ExecOptions options;
      options.engine = cg::EngineKind::Native;
      options.native = ne.module.get();
      const auto runStart = Clock::now();
      cg::SpmdExecutor exec(c.program(), c.decomp(), team, options);
      counts = exec.runRegionsLowered(*c.loweredExec().program, store);
      firstRunMs = msSince(runStart);
    }
    std::string why;
    if (!verifyRun(p, kOpt, kOpt, counts, store, why)) throw Error(why);

    p.prepMs.push_back(msSince(prepStart));
    if (!setup) {
      p.compileMs.push_back(compileMs);
      p.nativeMs.push_back(nativeMs);
      p.ttrMs.push_back(compileMs + nativeMs + firstRunMs);
    }
    if (obs::statsEnabled()) {
      for (std::size_t i = 0; i < stage.size(); ++i)
        statsStageMs_[i].push_back(stage[i]);
      statsEmitMs_.push_back(ne.report.emitSeconds * 1e3);
      statsToolchainMs_.push_back(ne.report.compileSeconds * 1e3);
      statsLoadMs_.push_back(ne.report.loadSeconds * 1e3);
      statsFirstRunMs_.push_back(firstRunMs);
      statsSourceBytes_ += ne.report.sourceBytes;
      statsUnits_ += ne.report.unitCount;
    }
    if (setup) {
      p.plan = c.syncPlan().stats;
      p.session.emplace(std::move(c));
    }
  } catch (const std::exception& e) {
    fail(p.spec.name + " (compile): " + e.what());
  }
}

/// Runs `p` once per variant on the lowered engine.  Checked against the
/// reference like any run; for reduction kernels of native workloads the
/// store is kept as the one native runs must reproduce.
void Bench::lowerReference(Program& p, rt::ThreadTeam& team) {
  cg::SpmdExecutor exec(p.session->program(), p.session->decomp(), team);
  const exec::LoweredProgram& lp = *p.session->loweredExec().program;
  for (int variant : {kBase, kOpt}) {
    ++attempted_;
    ir::Store store = *p.pristine;
    const rt::SyncCounts counts = variant == kBase
                                      ? exec.runForkJoinLowered(lp, store)
                                      : exec.runRegionsLowered(lp, store);
    std::string why;
    if (!verifyRun(p, variant, variant, counts, store, why)) {
      fail(p.spec.name + " (" + kVariantName[variant] + ", lowered): " + why);
      continue;
    }
    if (native() && p.hasReduction)
      p.loweredStore[static_cast<std::size_t>(variant)].emplace(
          std::move(store));
  }
}

void Bench::bindStores() {
  rt::ThreadTeam team(threads_);
  for (Program& p : programs_) {
    if (!p.session.has_value()) continue;  // its preparation failed
    p.pristine.emplace(p.session->program(), p.symbols);
    p.work.emplace(*p.pristine);
    if (native()) lowerReference(p, team);
  }
}

void Bench::bindExecutors(rt::ThreadTeam& team) {
  for (Program& p : programs_)
    if (p.pristine.has_value())
      p.executor.emplace(p.session->program(), p.session->decomp(), team,
                         execOptions(p));
}

void Bench::unbindExecutors() {
  for (Program& p : programs_) {
    p.executor.reset();
    p.tracedExecutor.reset();
  }
}

std::optional<double> Bench::timedRun(Program& p, int variant,
                                      cg::SpmdExecutor& exec,
                                      int countsSlot) {
  ++attempted_;
  try {
    *p.work = *p.pristine;
    const exec::LoweredProgram& lp = *p.session->loweredExec().program;
    const auto start = Clock::now();
    const rt::SyncCounts counts = variant == kBase
                                      ? exec.runForkJoinLowered(lp, *p.work)
                                      : exec.runRegionsLowered(lp, *p.work);
    const double ms = msSince(start);
    std::string why;
    if (!verifyRun(p, variant, countsSlot, counts, *p.work, why))
      throw Error(why);
    return ms;
  } catch (const std::exception& e) {
    fail(p.spec.name + " (" + kVariantName[variant] + "): " + e.what());
    return std::nullopt;
  }
}

/// One pass over the prepared programs in a seeded order; which variant
/// runs first alternates between passes.
void Bench::runPass(bool record) {
  const bool baseFirst =
      (static_cast<std::uint64_t>(runPasses_) + opt_.seed) % 2 == 0;
  for (Program* p : shuffled()) {
    if (!p->executor.has_value()) continue;
    for (int k = 0; k < 2; ++k) {
      const int variant = (k == 0) == baseFirst ? kBase : kOpt;
      std::optional<double> ms = timedRun(*p, variant, *p->executor, variant);
      if (ms.has_value() && record)
        p->runMs[static_cast<std::size_t>(variant)].push_back(*ms);
    }
  }
  if (record) ++runPasses_;
}

/// The measured window: blocks of run passes alternate with compile turns
/// — one compile of every program and one cold preparation (programs in
/// seeded order, each once per round) — so compile turns take
/// `compileShare` of the time.  It lasts --seconds, or longer until the
/// minimum passes and rounds are done.
void Bench::window() {
  const double share = wl_.compileShare;
  const int minCompileOps =
      kMinCompileRounds * static_cast<int>(programs_.size());
  std::vector<Program*> round;
  std::size_t next = 0;
  double runSeconds = 0.0, compileSeconds = 0.0;
  const auto start = Clock::now();
  for (;;) {
    const bool needRuns = runPasses_ < kMinRunPasses;
    const bool needCompiles = compileOps_ < minCompileOps;
    const bool timeUp = secondsSince(start) >= opt_.seconds;
    if (timeUp && !needRuns && !needCompiles) break;
    bool compileTurn = compileSeconds <= share * (compileSeconds + runSeconds);
    if (timeUp) compileTurn = needCompiles && (compileTurn || !needRuns);
    if (compileTurn) {
      if (next == round.size()) {
        round = shuffled();
        next = 0;
      }
      const auto t0 = Clock::now();
      for (Program* p : shuffled()) compileSample(*p);
      coldCompile(*round[next++], /*setup=*/false);
      ++compileOps_;
      compileSeconds += secondsSince(t0);
    } else {
      const auto t0 = Clock::now();
      RunBlock block(*this);
      do {
        runPass(/*record=*/true);
      } while (runSeconds + secondsSince(t0) <
               (1.0 - share) / share * compileSeconds);
      runSeconds += secondsSince(t0);
    }
  }
}

// --- traced run ------------------------------------------------------------

void Bench::newTracer(rt::ThreadTeam& team, std::size_t capacity) {
  tracer_ = std::make_unique<obs::Tracer>(threads_, capacity);
  for (Program& p : programs_) {
    if (!p.executor.has_value()) continue;
    cg::ExecOptions options = execOptions(p);
    options.trace = tracer_.get();
    p.tracedExecutor.emplace(p.session->program(), p.session->decomp(), team,
                             options);
  }
  // Executors attach their tracer to the team; runs choose explicitly.
  team.setTracer(nullptr);
}

/// A traced run: blame must cover the whole run (ring drops raise the
/// capacity and retry) and its buckets must tile the traced wall exactly.
void Bench::tracedRun(Program& p, int variant) {
  rt::ThreadTeam& team = *traceTeam_;
  for (;;) {
    ++attempted_;
    obs::BlameReport report;
    std::uint64_t dropped = 0;
    try {
      *p.work = *p.pristine;
      const exec::LoweredProgram& lp = *p.session->loweredExec().program;
      tracer_->clear();
      team.setTracer(tracer_.get());
      const auto start = Clock::now();
      const rt::SyncCounts counts =
          variant == kBase ? p.tracedExecutor->runForkJoinLowered(lp, *p.work)
                           : p.tracedExecutor->runRegionsLowered(lp, *p.work);
      const double ms = msSince(start);
      team.setTracer(nullptr);
      std::string why;
      if (!verifyRun(p, variant, variant, counts, *p.work, why))
        throw Error(why);
      const obs::Trace trace = tracer_->snapshot();
      dropped = trace.totalDropped();
      report = obs::buildBlame(trace);
      if (report.complete) {
        if (report.buckets.sum() != report.wallNs)
          throw Error("blame buckets do not sum to the traced wall");
        Blame& b = p.blame[static_cast<std::size_t>(variant)];
        b.computeMs += report.buckets.computeNs / 1e6;
        b.barrierWaitMs += report.buckets.barrierWaitNs / 1e6;
        b.serialMs += report.buckets.serialNs / 1e6;
        b.counterStallMs += report.buckets.counterStallNs / 1e6;
        b.imbalanceMs += report.buckets.imbalanceNs / 1e6;
        b.wallMs += report.wallNs / 1e6;
        ++b.runs;
        p.tracedMs[static_cast<std::size_t>(variant)].push_back(ms);
        return;
      }
    } catch (const std::exception& e) {
      team.setTracer(nullptr);
      fail(p.spec.name + " (" + kVariantName[variant] + ", traced): " +
           e.what());
      return;
    }
    if (dropped == 0 || tracer_->capacity() >= kMaxTraceCapacity) {
      fail(p.spec.name + " (" + kVariantName[variant] +
           ", traced): incomplete blame: " + report.incompleteReason);
      return;
    }
    // The ring wrapped: not an operation; retry with more room.
    --attempted_;
    newTracer(team, tracer_->capacity() * 4);
  }
}

/// One traced pass: per program, untraced base and optimized runs on the
/// P team, the same runs traced, and the optimized run on one thread.
/// Which variant, and which of traced and untraced, runs first alternates.
void Bench::tracePass() {
  const bool baseFirst =
      (static_cast<std::uint64_t>(runPasses_) + opt_.seed) % 2 == 0;
  const bool tracedFirst = (runPasses_ / 2) % 2 == 1;
  for (Program* p : shuffled()) {
    if (!p->executor.has_value()) continue;
    for (int k = 0; k < 2; ++k) {
      const int variant = (k == 0) == baseFirst ? kBase : kOpt;
      if (tracedFirst) tracedRun(*p, variant);
      std::optional<double> ms = timedRun(*p, variant, *p->executor, variant);
      if (ms.has_value())
        p->runMs[static_cast<std::size_t>(variant)].push_back(*ms);
      if (!tracedFirst) tracedRun(*p, variant);
    }
    std::optional<double> ms =
        timedRun(*p, kOpt, *p->p1Executor, kOptSingle);
    if (ms.has_value()) p->p1Ms.push_back(*ms);
  }
  ++runPasses_;
}

/// The traced window: traced passes for half of --seconds, then one cold
/// preparation per program with the statistics registry on.
void Bench::traceWindow() {
  const auto start = Clock::now();
  {
    RunBlock block(*this);
    rt::ThreadTeam single(1);
    for (Program& p : programs_)
      if (p.executor.has_value())
        p.p1Executor.emplace(p.session->program(), p.session->decomp(),
                             single, execOptions(p));
    traceTeam_ = &block.team();
    newTracer(block.team(), std::size_t{1} << 16);
    while (runPasses_ < kMinTracePasses ||
           secondsSince(start) < opt_.seconds / 2)
      tracePass();
    traceTeam_ = nullptr;
    for (Program& p : programs_) p.p1Executor.reset();
  }
  obs::setStatsEnabled(true);
  obs::resetStats();
  for (Program* p : shuffled()) {
    coldCompile(*p, /*setup=*/false);
    ++compileOps_;
  }
  stats_ = obs::statsSnapshot();
  obs::setStatsEnabled(false);
}

// --- reporting -------------------------------------------------------------

void Bench::printRows() const {
  std::cout << "workload " << wl_.name << ": " << programs_.size()
            << " programs, P=" << threads_ << ", engine "
            << cg::engineKindName(wl_.engine) << ", seed " << opt_.seed
            << ", " << runPasses_ << " run passes, " << compileOps_
            << " cold preparations in the window\n";
  std::cout << "set-up: inputs " << number(inputSeconds_)
            << " s, run binding " << number(bindSeconds_) << " s, warm-up "
            << number(warmupSeconds_) << " s\n";
  for (const Program& p : programs_) {
    std::cout << "row " << p.spec.name << " N=" << p.spec.n
              << " T=" << p.spec.t;
    for (int v : {kBase, kOpt}) {
      const std::vector<double>& ms = p.runMs[static_cast<std::size_t>(v)];
      std::cout << " " << kVariantName[v] << "_ms=" << number(median(ms))
                << " " << kVariantName[v] << "_p90_ms=" << number(p90(ms))
                << " " << kVariantName[v] << "_runs=" << ms.size();
    }
    std::cout << " compile_ms=" << number(geomean(p.compileMs))
              << " native_build_ms=" << number(geomean(p.nativeMs))
              << " time_to_result_ms=" << number(geomean(p.ttrMs))
              << " compiles=" << p.compileMs.size()
              << " preparations=" << p.nativeMs.size();
    if (opt_.trace) {
      std::cout << " p1_opt_ms=" << number(median(p.p1Ms));
      for (int v : {kBase, kOpt}) {
        const Blame& b = p.blame[static_cast<std::size_t>(v)];
        const double n = std::max(1, b.runs);
        std::cout << " " << kVariantName[v]
                  << "_blame_ms(compute/barrier/serial/stall/imbalance/wall)="
                  << number(b.computeMs / n) << "/"
                  << number(b.barrierWaitMs / n) << "/"
                  << number(b.serialMs / n) << "/"
                  << number(b.counterStallMs / n) << "/"
                  << number(b.imbalanceMs / n) << "/"
                  << number(b.wallMs / n);
      }
    }
    if (p.pristine.has_value())
      std::cout << " store_mib=" << number(storeMiB(*p.pristine));
    std::cout << "\n";
  }
}

double peakRssMiB() {
  struct rusage usage {};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Geomean over programs of a per-program statistic of some samples.
template <class Samples, class Stat>
double overPrograms(const std::deque<Program>& programs, Samples samples,
                    Stat stat) {
  std::vector<double> values;
  for (const Program& p : programs) {
    const std::vector<double>& v = samples(p);
    if (!v.empty()) values.push_back(stat(v));
  }
  return geomean(values);
}

void Bench::endToEnd(MetricList& out) const {
  auto runs = [](int variant) {
    return [variant](const Program& p) -> const std::vector<double>& {
      return p.runMs[static_cast<std::size_t>(variant)];
    };
  };
  auto field = [](std::vector<double> Program::*samples) {
    return [samples](const Program& p) -> const std::vector<double>& {
      return p.*samples;
    };
  };
  // Compile-side times are geometric means, not medians: host slow phases
  // (~1.5x, seconds long) cover close to half of a window, so a
  // program's samples are bimodal and a median flips between the modes.
  // One set-up: inputs, one preparation of every program (its median over
  // the set-up's and the window's), binding, warm-up.
  double prepSeconds = 0.0;
  for (const Program& p : programs_) prepSeconds += median(p.prepMs) / 1e3;
  const double setup =
      inputSeconds_ + prepSeconds + bindSeconds_ + warmupSeconds_;
  out.push_back({"opt_run_ms", {overPrograms(programs_, runs(kOpt), median),
                                "ms"}});
  out.push_back({"opt_run_p90_ms",
                 {overPrograms(programs_, runs(kOpt), p90), "ms"}});
  out.push_back({"base_run_ms",
                 {overPrograms(programs_, runs(kBase), median), "ms"}});
  out.push_back({"base_run_p90_ms",
                 {overPrograms(programs_, runs(kBase), p90), "ms"}});
  out.push_back({"compile_ms",
                 {overPrograms(programs_, field(&Program::compileMs), geomean),
                  "ms"}});
  out.push_back({"native_build_ms",
                 {overPrograms(programs_, field(&Program::nativeMs), geomean),
                  "ms"}});
  out.push_back({"time_to_result_ms",
                 {overPrograms(programs_, field(&Program::ttrMs), geomean),
                  "ms"}});
  out.push_back({"peak_rss_mb", {peakRssMiB(), "MiB"}});
  out.push_back({"setup_s", {setup, "s"}});
}

void Bench::perLayer(MetricList& out) const {
  for (std::size_t i = 0; i < statsStageMs_.size(); ++i)
    out.push_back({std::string("driver.") + kStageNames[i] + "_ms",
                   {mean(statsStageMs_[i]), "ms"}});

  auto stat = [&](const char* group, const char* name) {
    for (const obs::StatRow& row : stats_)
      if (row.group == group && row.name == name)
        return static_cast<double>(row.value);
    return 0.0;
  };
  auto count = [](auto v) { return static_cast<double>(v); };
  out.push_back({"comm.pair_queries", {stat("comm", "pair-queries"), "count"}});
  out.push_back(
      {"comm.pair_cache_hits", {stat("comm", "pair-cache-hits"), "count"}});
  out.push_back({"comm.dedup_hits", {stat("comm", "dedup-hits"), "count"}});
  out.push_back({"poly.fm_scans", {stat("poly", "fm-scans"), "count"}});
  out.push_back({"poly.fm_scan_cache_hits",
                 {stat("poly", "fm-scan-cache-hits"), "count"}});
  out.push_back(
      {"poly.fm_eliminations", {stat("poly", "fm-eliminations"), "count"}});

  out.push_back({"native.emit_ms", {mean(statsEmitMs_), "ms"}});
  out.push_back({"native.toolchain_ms", {mean(statsToolchainMs_), "ms"}});
  out.push_back({"native.load_ms", {mean(statsLoadMs_), "ms"}});
  out.push_back({"native.objects_compiled",
                 {stat("native", "objects-compiled"), "count"}});
  out.push_back({"native.source_bytes", {count(statsSourceBytes_), "bytes"}});
  out.push_back({"native.units", {count(statsUnits_), "count"}});
  out.push_back({"exec.first_run_ms", {mean(statsFirstRunMs_), "ms"}});

  // Plan and dynamic sync counts, summed over the workload's programs.
  core::OptStats plan;
  rt::SyncCounts base, opt;
  std::vector<double> reductions;
  for (const Program& p : programs_) {
    if (!p.session.has_value()) continue;
    plan.boundaries += p.plan.boundaries;
    plan.eliminated += p.plan.eliminated;
    plan.counters += p.plan.counters;
    plan.barriers += p.plan.barriers;
    plan.backEdgesPipelined += p.plan.backEdgesPipelined;
    if (p.counts[kBase].has_value() && p.counts[kOpt].has_value()) {
      base += *p.counts[kBase];
      opt += *p.counts[kOpt];
      reductions.push_back(driver::reductionPercent(p.counts[kBase]->barriers,
                                                    p.counts[kOpt]->barriers));
    }
  }
  out.push_back({"core.boundaries", {count(plan.boundaries), "count"}});
  out.push_back({"core.eliminated", {count(plan.eliminated), "count"}});
  out.push_back({"core.counters", {count(plan.counters), "count"}});
  out.push_back({"core.barriers", {count(plan.barriers), "count"}});
  out.push_back(
      {"core.backedges_pipelined", {count(plan.backEdgesPipelined), "count"}});
  out.push_back({"sync.base_barriers", {count(base.barriers), "count"}});
  out.push_back({"sync.opt_barriers", {count(opt.barriers), "count"}});
  out.push_back(
      {"sync.opt_counter_waits", {count(opt.counterWaits), "count"}});
  out.push_back({"sync.opt_broadcasts", {count(opt.broadcasts), "count"}});
  // The paper's headline: mean over programs of the barrier reduction.
  out.push_back({"sync.barrier_reduction_pct", {mean(reductions), "%"}});

  // Blame: per program the mean traced run, summed over programs, so the
  // buckets of a variant add up to its wall.
  for (int v : {kBase, kOpt}) {
    Blame sum;
    for (const Program& p : programs_) {
      const Blame& b = p.blame[static_cast<std::size_t>(v)];
      if (b.runs == 0) continue;
      sum.computeMs += b.computeMs / b.runs;
      sum.barrierWaitMs += b.barrierWaitMs / b.runs;
      sum.serialMs += b.serialMs / b.runs;
      sum.counterStallMs += b.counterStallMs / b.runs;
      sum.imbalanceMs += b.imbalanceMs / b.runs;
      sum.wallMs += b.wallMs / b.runs;
    }
    const std::string prefix = std::string("run.") + kVariantName[v] + ".";
    out.push_back({prefix + "compute_ms", {sum.computeMs, "ms"}});
    out.push_back({prefix + "barrier_wait_ms", {sum.barrierWaitMs, "ms"}});
    out.push_back({prefix + "serial_ms", {sum.serialMs, "ms"}});
    out.push_back({prefix + "counter_stall_ms", {sum.counterStallMs, "ms"}});
    out.push_back({prefix + "imbalance_ms", {sum.imbalanceMs, "ms"}});
    out.push_back({prefix + "wall_ms", {sum.wallMs, "ms"}});
  }

  std::vector<double> p1, efficiency, overhead;
  double smallestStore = 0.0;
  for (const Program& p : programs_) {
    if (p.p1Ms.empty() || p.runMs[kOpt].empty() || p.tracedMs[kOpt].empty())
      continue;
    const double p4 = median(p.runMs[kOpt]);
    p1.push_back(median(p.p1Ms));
    efficiency.push_back(median(p.p1Ms) / (threads_ * p4));
    overhead.push_back(median(p.tracedMs[kOpt]) / p4);
    const double mib = storeMiB(*p.pristine);
    smallestStore = smallestStore == 0.0 ? mib : std::min(smallestStore, mib);
  }
  out.push_back({"exec.p1_opt_ms", {geomean(p1), "ms"}});
  out.push_back({"exec.scaling_eff_p4", {geomean(efficiency), "ratio"}});
  out.push_back({"exec.store_mib", {smallestStore, "MiB"}});
  out.push_back({"obs.trace_overhead", {geomean(overhead), "ratio"}});
}

int Bench::run() {
  // Set-up: inputs, one cold preparation of every program (kept for the
  // runs), stores and lowered references, warm-up.
  auto start = Clock::now();
  buildInputs();
  inputSeconds_ = secondsSince(start);
  for (Program& p : programs_) coldCompile(p, /*setup=*/true);
  start = Clock::now();
  bindStores();
  bindSeconds_ = secondsSince(start);
  start = Clock::now();
  {
    RunBlock block(*this);
    do {
      runPass(/*record=*/false);
    } while (secondsSince(start) < kWarmupSeconds);
  }
  warmupSeconds_ = secondsSince(start);

  if (opt_.trace)
    traceWindow();
  else
    window();

  printRows();
  MetricList metrics;
  if (opt_.trace)
    perLayer(metrics);
  else
    endToEnd(metrics);
  for (const auto& [name, value] : metrics)
    std::cout << "metric " << name << " = " << number(value.first) << " "
              << value.second << "\n";

  std::ostringstream json;
  json << "{\"correct\": " << (failed_ == 0 ? "true" : "false")
       << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
       << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [name, value] : metrics) {
    json << sep << "\"" << name << "\": {\"value\": " << number(value.first)
         << ", \"unit\": \"" << value.second << "\"}";
    sep = ", ";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return failed_ == 0 ? 0 : 1;
}

int usage() {
  std::cerr << "usage: bench_e2e --workload sync-small|stencil-large|"
               "compile-cold --seed N --seconds S --trace 0|1\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; i += 2) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[i + 1];
    try {
      if (arg == "--workload")
        options.workload = value;
      else if (arg == "--seed")
        options.seed = std::stoull(value);
      else if (arg == "--seconds")
        options.seconds = std::stod(value);
      else if (arg == "--trace")
        options.trace = value == "1";
      else
        return usage();
    } catch (const std::exception&) {
      return usage();
    }
  }
  std::optional<WorkloadSpec> workload = workloadByName(options.workload);
  if (!workload.has_value() || !(options.seconds > 0.0)) return usage();
  try {
    Bench bench(options, std::move(*workload));
    return bench.run();
  } catch (const std::exception& e) {
    std::cerr << "bench_e2e: " << e.what() << "\n";
    return 2;
  }
}
