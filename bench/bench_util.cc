// Copyright 2026 The ARSP Authors.

#include "bench/bench_util.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "src/common/rng.h"
#include "src/prefs/constraint_generators.h"
#include "src/simd/kernels.h"

namespace arsp {
namespace bench_util {

std::unique_ptr<ArspSolver> MustCreate(const std::string& algo,
                                       const SolverOptions& options) {
  StatusOr<std::unique_ptr<ArspSolver>> solver =
      SolverRegistry::Create(algo, options);
  ARSP_CHECK_MSG(solver.ok(), "%s", solver.status().ToString().c_str());
  return std::move(solver).value();
}

ArspResult MustSolve(ArspSolver& solver, ExecutionContext& context) {
  StatusOr<ArspResult> result = solver.Solve(context);
  ARSP_CHECK_MSG(result.ok(), "%s", result.status().ToString().c_str());
  return std::move(result).value();
}

std::string AlgoName(const std::string& algo) {
  return MustCreate(algo)->display_name();
}

uint32_t AlgoCaps(const std::string& algo) {
  // Memoized: RunAlgo asks for caps inside timed benchmark loops.
  static auto* cache = new std::map<std::string, uint32_t>();
  const auto it = cache->find(algo);
  if (it != cache->end()) return it->second;
  const uint32_t caps = MustCreate(algo)->capabilities();
  (*cache)[algo] = caps;
  return caps;
}

ArspEngine& SharedEngine() {
  static auto* engine = new ArspEngine();
  return *engine;
}

ArspResult RunAlgo(const std::string& algo, const UncertainDataset& dataset,
                   const PreferenceRegion& region,
                   const WeightRatioConstraints* wr) {
  ArspEngine& engine = SharedEngine();
  // The caller owns the dataset for the duration of the call; register it
  // without copying and drop it before returning.
  const DatasetHandle handle = engine.AddDataset(
      std::shared_ptr<const UncertainDataset>(&dataset,
                                              [](const UncertainDataset*) {}));
  QueryRequest request;
  request.dataset = handle;
  if (AlgoCaps(algo) & kCapRequiresWeightRatios) {
    ARSP_CHECK_MSG(wr != nullptr, "%s requires weight ratio constraints",
                   algo.c_str());
    request.constraints = ConstraintSpec::WeightRatios(*wr);
  } else {
    request.constraints = ConstraintSpec::Region(region);
  }
  request.solver = algo;
  // Benchmarks measure repeated cold serial solves — the paper's figures
  // compare serial algorithms: no result cache, no pooled preprocessing,
  // no intra-query workers.
  request.use_cache = false;
  request.pool_context = false;
  request.parallelism = 1;
  StatusOr<QueryResponse> response = engine.Solve(request);
  ARSP_CHECK_MSG(response.ok(), "%s", response.status().ToString().c_str());
  ARSP_CHECK(engine.DropDataset(handle).ok());
  // Moves instead of copying (this call holds the only reference since
  // caching is off) — the timed benchmark loop never pays an O(n) copy.
  return ArspEngine::TakeResult(std::move(*response));
}

DatasetHandle SharedHandle(const UncertainDataset& full) {
  // Benchmarks pass function-local statics, so the address identifies the
  // dataset for the process lifetime; handles are never dropped.
  static auto* handles = new std::map<const UncertainDataset*, DatasetHandle>();
  const auto it = handles->find(&full);
  if (it != handles->end()) return it->second;
  const DatasetHandle handle = SharedEngine().AddDataset(
      std::shared_ptr<const UncertainDataset>(&full,
                                              [](const UncertainDataset*) {}));
  return handles->emplace(&full, handle).first->second;
}

DatasetHandle SharedPrefixHandle(const UncertainDataset& full, int count) {
  static auto* views =
      new std::map<std::pair<const UncertainDataset*, int>, DatasetHandle>();
  const auto key = std::make_pair(&full, count);
  const auto it = views->find(key);
  if (it != views->end()) return it->second;
  StatusOr<DatasetHandle> handle =
      SharedEngine().AddView(SharedHandle(full), ViewSpec::Prefix(count));
  ARSP_CHECK_MSG(handle.ok(), "%s", handle.status().ToString().c_str());
  return views->emplace(key, *handle).first->second;
}

ArspResult RunAlgoOnHandle(const std::string& algo, DatasetHandle handle,
                           const PreferenceRegion& region,
                           const WeightRatioConstraints* wr) {
  ArspEngine& engine = SharedEngine();
  QueryRequest request;
  request.dataset = handle;
  if (AlgoCaps(algo) & kCapRequiresWeightRatios) {
    ARSP_CHECK_MSG(wr != nullptr, "%s requires weight ratio constraints",
                   algo.c_str());
    request.constraints = ConstraintSpec::WeightRatios(*wr);
  } else {
    request.constraints = ConstraintSpec::Region(region);
  }
  request.solver = algo;
  // The warm view path: pooled contexts (views derive from the base's, so
  // a sweep shares one set of full indexes) but no result cache — every
  // iteration still runs the solver, serially like RunAlgo.
  request.use_cache = false;
  request.pool_context = true;
  request.parallelism = 1;
  StatusOr<QueryResponse> response = engine.Solve(request);
  ARSP_CHECK_MSG(response.ok(), "%s", response.status().ToString().c_str());
  return ArspEngine::TakeResult(std::move(*response));
}

double Scale() {
  static const double scale = [] {
    const char* env = std::getenv("ARSP_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double v = std::atof(env);
    return v > 0.01 ? v : 0.01;
  }();
  return scale;
}

int ScaledM(int base) {
  return std::max(16, static_cast<int>(base * Scale()));
}

UncertainDataset MakeSynthetic(Distribution dist, int num_objects, int cnt,
                               int dim, double l, double phi) {
  SyntheticConfig config;
  config.num_objects = num_objects;
  config.max_instances = cnt;
  config.dim = dim;
  config.region_length = l;
  config.phi = phi;
  config.distribution = dist;
  // Seed depends on the workload shape so different sweep points use
  // different (but reproducible) data.
  config.seed = 0x9e3779b9u ^ (static_cast<uint64_t>(num_objects) << 20) ^
                (static_cast<uint64_t>(cnt) << 10) ^
                (static_cast<uint64_t>(dim) << 4) ^
                static_cast<uint64_t>(dist);
  return GenerateSynthetic(config);
}

PreferenceRegion MakeWrRegion(int dim, int c) {
  auto region = PreferenceRegion::FromLinearConstraints(
      MakeWeakRankingConstraints(dim, c));
  ARSP_CHECK(region.ok());
  return std::move(region).value();
}

PreferenceRegion MakeImRegion(int dim, int c, uint64_t seed) {
  Rng rng(seed);
  auto region = PreferenceRegion::FromLinearConstraints(
      MakeInteractiveConstraints(dim, c, rng));
  ARSP_CHECK(region.ok());
  return std::move(region).value();
}

std::string Label(const std::string& panel, const std::string& series,
                  const std::string& point) {
  return panel + "/" + series + "/" + point;
}

namespace {

// Minimal JSON string escaping for benchmark names (quotes, backslashes,
// control characters); names are ASCII labels so this is already overkill.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

// %.17g prints doubles round-trip exactly and without locale surprises.
std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Forwards to the console reporter for display and collects every
// completed run; Finalize writes the arsp-bench-v1 export. Repeated runs
// of one benchmark (--benchmark_repetitions) collapse to the MINIMUM
// ns/op — the standard noise-robust statistic for a shared CI container,
// where the distribution is best-case-plus-interference. Counters must be
// identical across repetitions (deterministic work), so keeping the first
// is exact — except "_ns"-suffixed counters, which are timings a benchmark
// measured itself (bench_scale's build_ns / load_ns) and collapse to the
// minimum like ns_per_op.
class JsonExportReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonExportReporter(std::string path) : path_(std::move(path)) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      if (run.run_type != Run::RT_Iteration) continue;  // skip aggregates
      const std::string name = run.benchmark_name();
      const double ns_per_op =
          run.iterations > 0 ? run.real_accumulated_time * 1e9 /
                                   static_cast<double>(run.iterations)
                             : 0.0;
      auto it = entries_.find(name);
      if (it == entries_.end()) {
        Entry entry;
        entry.ns_per_op = ns_per_op;
        entry.iterations = run.iterations;
        for (const auto& [counter_name, counter] : run.counters) {
          entry.counters.emplace_back(counter_name, counter.value);
        }
        order_.push_back(name);
        entries_.emplace(name, std::move(entry));
      } else {
        if (ns_per_op < it->second.ns_per_op) {
          it->second.ns_per_op = ns_per_op;
          it->second.iterations = run.iterations;
        }
        for (auto& [counter_name, value] : it->second.counters) {
          if (counter_name.size() > 3 &&
              counter_name.compare(counter_name.size() - 3, 3, "_ns") == 0) {
            const auto cit = run.counters.find(counter_name);
            if (cit != run.counters.end() && cit->second.value < value) {
              value = cit->second.value;
            }
          }
        }
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }

  void Finalize() override {
    std::ofstream out(path_);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write --json file %s\n",
                   path_.c_str());
    } else {
      const char* rev = std::getenv("ARSP_GIT_REV");
      out << "{\"schema\":\"arsp-bench-v1\",\"arch\":\""
          << simd::ActiveArchName() << "\",\"scale\":" << JsonNumber(Scale())
          << ",\"git_rev\":\"" << JsonEscape(rev != nullptr ? rev : "unknown")
          << "\"}\n";
      for (const std::string& name : order_) {
        const Entry& entry = entries_[name];
        out << "{\"name\":\"" << JsonEscape(name)
            << "\",\"ns_per_op\":" << JsonNumber(entry.ns_per_op)
            << ",\"iterations\":" << entry.iterations << ",\"counters\":{";
        bool first = true;
        for (const auto& [counter_name, value] : entry.counters) {
          if (!first) out << ",";
          first = false;
          out << "\"" << JsonEscape(counter_name)
              << "\":" << JsonNumber(value);
        }
        out << "}}\n";
      }
    }
    ConsoleReporter::Finalize();
  }

 private:
  struct Entry {
    double ns_per_op = 0.0;
    int64_t iterations = 0;
    std::vector<std::pair<std::string, double>> counters;
  };
  std::string path_;
  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;  // first-seen order for stable output
};

}  // namespace

int BenchMain(int argc, char** argv) {
  std::string json_path;
  if (const char* env = std::getenv("ARSP_BENCH_JSON")) json_path = env;
  // Strip --json[=PATH] before benchmark::Initialize sees (and rejects) it.
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else {
      args.push_back(argv[i]);
    }
  }
  args.push_back(nullptr);  // argv contract: argv[argc] == nullptr
  int new_argc = static_cast<int>(args.size()) - 1;
  benchmark::Initialize(&new_argc, args.data());
  if (json_path.empty()) {
    benchmark::RunSpecifiedBenchmarks();
  } else {
    JsonExportReporter reporter(json_path);
    benchmark::RunSpecifiedBenchmarks(&reporter);
  }
  benchmark::Shutdown();
  return 0;
}

}  // namespace bench_util
}  // namespace arsp
