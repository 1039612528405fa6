// Copyright 2026 The ARSP Authors.

#include "src/workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <thread>
#include <unordered_map>
#include <utility>

#include "src/cluster/coordinator.h"
#include "src/cluster/remote_shard.h"
#include "src/core/engine.h"
#include "src/net/client.h"
#include "src/net/server.h"
#include "src/uncertain/generators.h"

namespace e2ebench {
namespace {

using arsp::ArspEngine;
using arsp::ArspResult;
using arsp::DatasetHandle;
using arsp::DerivedKind;
using arsp::QueryRequest;
using arsp::SolverStats;
using arsp::Status;
using arsp::StatusOr;
namespace net = arsp::net;
namespace cluster = arsp::cluster;

// set-up runs this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 5;
// Wire frames carry an 8-byte header before the payload.
constexpr size_t kFrameHeaderBytes = 8;
// Request/response pairs kept from the traced phase for net.codec_us.
constexpr size_t kCodecSamples = 32;

double Median(std::vector<double> values) {
  return NearestRank(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double MsBetween(uint64_t start_ns, uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

double PeakRssMiB() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------- the loop

/// One request as the client saw it.
struct Sample {
  Outcome outcome = Outcome::kFailed;
  double latency_ms = 0.0;
  /// A solver ran for this answer (false for cache hits and failures).
  bool solved = false;
  SolverStats stats;
  /// Traced wire runs: encoded sizes, frame header included.
  size_t request_bytes = 0;
  size_t response_bytes = 0;
};

struct Phase {
  Tally tally;
  std::vector<Sample> samples;
  double wall_s = 0.0;

  std::vector<double> CorrectLatencies() const {
    std::vector<double> out;
    for (const Sample& s : samples) {
      if (s.outcome == Outcome::kCorrect) out.push_back(s.latency_ms);
    }
    return out;
  }
};

/// Closed loop: `clients` threads, each sending its next request only after
/// the previous one completed, until `seconds` have passed. Requests in
/// flight at the deadline complete and count.
Phase ClosedLoop(int clients, double seconds,
                 const std::function<Sample(int)>& request) {
  std::vector<std::vector<Sample>> per_client(static_cast<size_t>(clients));
  const uint64_t start = NowNs();
  const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (NowNs() < deadline) {
        per_client[static_cast<size_t>(c)].push_back(request(c));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  Phase phase;
  phase.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  for (const std::vector<Sample>& samples : per_client) {
    for (const Sample& s : samples) {
      phase.tally.Add(s.outcome);
      phase.samples.push_back(s);
    }
  }
  return phase;
}

// ---------------------------------------------------------- the workloads

class Workload {
 public:
  virtual ~Workload() = default;

  virtual std::string Provenance() const = 0;
  virtual int clients() const = 0;
  /// Builds the workload's stack from nothing, replacing the previous one:
  /// dataset generation, registration or LOAD, server start and the first
  /// query (which builds the pooled context and indexes). Timed as setup_s.
  virtual Status Setup() = 0;
  /// Computes the reference answers (untimed). An error means the
  /// references disagree with each other — a wrong answer.
  virtual Status PrepareOracle() = 0;
  /// Issues one request from client `c` and checks its answer.
  virtual Sample Request(int c) = 0;
  virtual void Teardown() {}

  /// Engine result-cache counters summed over the workload's engines.
  virtual ArspEngine::CacheStats CacheStats() const { return {}; }
  /// False when requests bypass the result cache (use_cache=false).
  virtual bool uses_cache() const { return false; }
  /// Traced run only: metrics that need extra, workload-specific
  /// measurements after the traced phase.
  virtual void ExtraLayerMetrics(std::map<std::string, double>*) {}

  /// Context-build time the first query of each set-up reported.
  std::vector<double> context_build_ms;
  /// Records only while enabled, i.e. during the traced phase.
  SpanStore spans;
  /// A traced run: set-up installs the TimedBackend decorators.
  bool traced = false;

  /// Request/response pairs for net.codec_us (traced wire runs).
  void KeepCodecSample(const net::QueryRequestWire& request,
                       const net::QueryResponseWire& response) {
    std::lock_guard<std::mutex> lock(codec_mu_);
    if (codec_samples_.size() < kCodecSamples) {
      codec_samples_.emplace_back(request, response);
    }
  }
  /// Median microseconds to encode and decode one request and its response.
  double CodecMicros() const;

 private:
  mutable std::mutex codec_mu_;
  std::vector<std::pair<net::QueryRequestWire, net::QueryResponseWire>>
      codec_samples_;
};

double Workload::CodecMicros() const {
  std::lock_guard<std::mutex> lock(codec_mu_);
  std::vector<double> per_pair;
  for (const auto& [request, response] : codec_samples_) {
    std::vector<double> reps;
    for (int rep = 0; rep < 5; ++rep) {
      const uint64_t start = NowNs();
      net::QueryRequestWire request_copy;
      net::QueryResponseWire response_copy;
      const Status a = request_copy.DecodePayload(request.EncodePayload());
      const Status b = response_copy.DecodePayload(response.EncodePayload());
      const uint64_t end = NowNs();
      if (!a.ok() || !b.ok()) return 0.0;
      reps.push_back(static_cast<double>(end - start) / 1e3);
    }
    per_pair.push_back(Median(std::move(reps)));
  }
  return Median(std::move(per_pair));
}

// In-process ArspEngine::Solve, one caller, full ARSP, use_cache=false,
// pooled context: solve-nba and solve-large.
class SolveWorkload : public Workload {
 public:
  /// `serial_oracle`: the reference is a parallelism=1 solve (parallel
  /// determinism contract); otherwise it is the first answer, cross-checked
  /// against the kdtt solver within 1e-9.
  SolveWorkload(std::string spec, std::string constraints, uint64_t seed,
                bool serial_oracle)
      : spec_(std::move(spec)),
        constraints_(std::move(constraints)),
        seed_(seed),
        serial_oracle_(serial_oracle) {}

  std::string Provenance() const override {
    return "data " + spec_ + " (objects and instances shuffled by the run "
           "seed); constraints " + constraints_ +
           "; full ARSP, solver auto, use_cache=false, pooled context; "
           "1 caller, closed loop, in-process ArspEngine::Solve";
  }
  int clients() const override { return 1; }

  Status Setup() override {
    engine_.reset();
    auto dataset = MakeDataset();
    if (!dataset.ok()) return dataset.status();
    engine_ = std::make_unique<ArspEngine>();
    const DatasetHandle handle = engine_->AddDataset(std::move(*dataset));
    auto constraints = arsp::ParseConstraintSpec(
        constraints_, engine_->dataset(handle)->dim());
    if (!constraints.ok()) return constraints.status();
    request_ = QueryRequest{};
    request_.dataset = handle;
    request_.constraints = std::move(*constraints);
    request_.use_cache = false;
    auto first = engine_->Solve(request_);
    if (!first.ok()) return first.status();
    first_ = first->result;
    context_build_ms.push_back(first->stats.setup_millis);
    return Status::OK();
  }

  Status PrepareOracle() override {
    if (serial_oracle_) {
      QueryRequest serial = request_;
      serial.parallelism = 1;
      auto reference = engine_->Solve(serial);
      if (!reference.ok()) return reference.status();
      reference_ = reference->result->instance_probs;
      if (!SameBits(first_->instance_probs, reference_)) {
        return Status::Internal(
            "the first (parallel) answer differs from the parallelism=1 "
            "answer");
      }
      return Status::OK();
    }
    reference_ = first_->instance_probs;
    QueryRequest second = request_;
    second.solver = "kdtt";
    auto cross = engine_->Solve(second);
    if (!cross.ok()) return cross.status();
    if (!WithinTolerance(cross->result->instance_probs, reference_, 1e-9)) {
      return Status::Internal("kdtt disagrees with the first answer by > 1e-9");
    }
    return Status::OK();
  }

  Sample Request(int) override {
    Sample sample;
    const bool tracing = spans.enabled();
    const uint64_t id = tracing ? spans.NewId() : 0;
    const uint64_t start = NowNs();
    auto response = engine_->Solve(request_);
    const uint64_t end = NowNs();
    sample.latency_ms = MsBetween(start, end);
    if (!response.ok()) {
      sample.outcome = OutcomeOf(response.status());
      return sample;
    }
    sample.solved = !response->cache_hit;
    sample.stats = response->stats;
    sample.outcome = SameBits(response->result->instance_probs, reference_)
                         ? Outcome::kCorrect
                         : Outcome::kWrong;
    if (tracing) {
      spans.Add(SpanRecord{.id = id,
                           .name = "engine_solve",
                           .start_ns = start,
                           .end_ns = end,
                           .solve_ms = response->stats.solve_millis,
                           .cache_hit = response->cache_hit});
    }
    return sample;
  }

  void Teardown() override { engine_.reset(); }

  void ExtraLayerMetrics(std::map<std::string, double>* out) override {
    if (!serial_oracle_) return;  // the arena works on solve-large only
    // common.arena.speedup: the same query at parallelism=1 over the
    // parallel (policy) run, alternating so drift hits both alike.
    QueryRequest serial = request_;
    serial.parallelism = 1;
    std::vector<double> parallel_ms;
    std::vector<double> serial_ms;
    int64_t workers = 1;
    for (int i = 0; i < 5; ++i) {
      for (const QueryRequest* r : {&request_, &serial}) {
        const uint64_t start = NowNs();
        auto response = engine_->Solve(*r);
        const double ms = MsBetween(start, NowNs());
        if (!response.ok()) return;
        if (r == &serial) {
          serial_ms.push_back(ms);
        } else {
          parallel_ms.push_back(ms);
          workers = std::max<int64_t>(1, response->stats.parallel_workers);
        }
      }
    }
    const double serial_median = Median(serial_ms);
    const double speedup = serial_median / Median(parallel_ms);
    // common.arena.ceiling: `workers` threads each run independent serial
    // solves on their own engine and dataset, nothing shared; their
    // aggregate throughput over one serial solve's is what the host can
    // deliver to a perfectly parallel query.
    constexpr int kSolvesPerThread = 3;
    const int threads = static_cast<int>(workers);
    std::vector<double> thread_rate(static_cast<size_t>(threads), 0.0);
    std::latch ready(threads);
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&, t] {
        ArspEngine engine;
        auto dataset = MakeDataset();
        QueryRequest own = serial;
        bool ok = dataset.ok();
        if (ok) {
          own.dataset = engine.AddDataset(std::move(*dataset));
          ok = engine.Solve(own).ok();  // builds the private context
        }
        ready.arrive_and_wait();
        if (!ok) return;
        const uint64_t start = NowNs();
        for (int i = 0; i < kSolvesPerThread; ++i) {
          if (!engine.Solve(own).ok()) return;
        }
        thread_rate[static_cast<size_t>(t)] =
            kSolvesPerThread / MsBetween(start, NowNs());
      });
    }
    for (std::thread& t : pool) t.join();
    const double aggregate =
        std::accumulate(thread_rate.begin(), thread_rate.end(), 0.0);
    const double ceiling = aggregate * serial_median;
    (*out)["common.arena.speedup"] = speedup;
    (*out)["common.arena.ceiling"] = ceiling;
    (*out)["common.arena.efficiency"] = ceiling > 0 ? speedup / ceiling : 0.0;
  }

 private:
  // The generator's dataset with its objects, and the instances within each
  // object, in an order drawn from the run seed: every seed presents a
  // different input with the same work, so figures compare across seeds.
  // (Fresh generator seeds change the work itself — by up to 1.7x in
  // dominance tests between NBA-like datasets — which no run length could
  // average out.)
  StatusOr<arsp::UncertainDataset> MakeDataset() const {
    auto base = arsp::GenerateFromSpec(spec_);
    if (!base.ok()) return base.status();
    std::mt19937_64 rng(seed_);
    std::vector<int> objects(static_cast<size_t>(base->num_objects()));
    std::iota(objects.begin(), objects.end(), 0);
    std::shuffle(objects.begin(), objects.end(), rng);
    arsp::UncertainDatasetBuilder builder(base->dim());
    for (const int j : objects) {
      const auto [begin, end] = base->object_range(j);
      std::vector<int> instances(static_cast<size_t>(end - begin));
      std::iota(instances.begin(), instances.end(), begin);
      std::shuffle(instances.begin(), instances.end(), rng);
      std::vector<arsp::Point> points;
      std::vector<double> probs;
      for (const int i : instances) {
        points.push_back(base->point(i));
        probs.push_back(base->prob(i));
      }
      builder.AddObject(std::move(points), std::move(probs));
    }
    return builder.Build();
  }

  std::string spec_;
  std::string constraints_;
  uint64_t seed_;
  bool serial_oracle_;
  std::unique_ptr<ArspEngine> engine_;
  QueryRequest request_;
  std::shared_ptr<const ArspResult> first_;
  std::vector<double> reference_;
};

/// Starts an ArspServer on an ephemeral loopback port over `backend`.
StatusOr<std::unique_ptr<net::ArspServer>> StartServer(
    std::shared_ptr<net::ServiceBackend> backend) {
  net::ServerOptions options;
  options.port = 0;
  options.backend = std::move(backend);
  auto server = std::make_unique<net::ArspServer>(std::move(options));
  const Status started = server->Start();
  if (!started.ok()) return started;
  return server;
}

void StopServer(std::unique_ptr<net::ArspServer>* server) {
  if (*server == nullptr) return;
  (*server)->Shutdown();
  (*server)->Wait();
  server->reset();
}

/// Wraps `backend` in a TimedBackend when the run is traced.
std::shared_ptr<net::ServiceBackend> MaybeTimed(
    bool traced, std::shared_ptr<net::ServiceBackend> backend,
    const std::string& name, int shard, bool stamp_children,
    SpanStore* store) {
  if (!traced) return backend;
  return std::make_shared<TimedBackend>(std::move(backend), name, shard,
                                        stamp_children, store);
}

/// Shared client side of the two wire workloads: `clients` ArspClient
/// connections to the front server, one per closed-loop caller.
class WireWorkload : public Workload {
 public:
  Sample Request(int c) override {
    net::QueryRequestWire request = NextRequest(c);
    Sample sample;
    const bool tracing = spans.enabled();
    const uint64_t id = tracing ? spans.NewId() : 0;
    request.trace_id = id;  // links the server-side spans (see TimedBackend)
    net::ArspClient& client = clients_[static_cast<size_t>(c)];
    const uint64_t start = NowNs();
    auto response = client.Query(request);
    const uint64_t end = NowNs();
    sample.latency_ms = MsBetween(start, end);
    if (tracing) {
      spans.Add(SpanRecord{
          .id = id, .name = "rpc", .start_ns = start, .end_ns = end});
    }
    if (!response.ok()) {
      sample.outcome = OutcomeOf(response.status());
      if (response.status().code() != arsp::StatusCode::kUnavailable) {
        Reconnect(c);  // the connection may be unusable after an error
      }
      return sample;
    }
    sample.solved = !response->cache_hit;
    sample.stats = response->stats.ToSolverStats();
    sample.outcome = Check(request, *response) ? Outcome::kCorrect
                                               : Outcome::kWrong;
    if (tracing) {
      sample.request_bytes = request.EncodePayload().size() + kFrameHeaderBytes;
      sample.response_bytes =
          response->EncodePayload().size() + kFrameHeaderBytes;
      KeepCodecSample(request, *response);
    }
    return sample;
  }

 protected:
  virtual net::QueryRequestWire NextRequest(int c) = 0;
  virtual bool Check(const net::QueryRequestWire& request,
                     const net::QueryResponseWire& response) const = 0;

  /// Connects the callers to the front server, LOADs `spec` through the
  /// first one and sends `first` with use_cache=false, so it builds the
  /// pooled context and indexes without filling the result cache.
  Status ConnectAndLoad(const std::string& spec, net::QueryRequestWire first) {
    front_port_ = front_->port();
    clients_.clear();
    for (int c = 0; c < clients(); ++c) {
      auto client = net::ArspClient::Connect("127.0.0.1", front_port_);
      if (!client.ok()) return client.status();
      clients_.push_back(std::move(*client));
    }
    net::LoadDatasetRequest load;
    load.name = kDatasetName;
    load.source = net::LoadSource::kGenerator;
    load.payload = spec;
    auto loaded = clients_[0].LoadDataset(load);
    if (!loaded.ok()) return loaded.status();
    first.use_cache = false;
    auto response = clients_[0].Query(first);
    if (!response.ok()) return response.status();
    context_build_ms.push_back(response->stats.setup_millis);
    return Status::OK();
  }

  void Reconnect(int c) {
    auto client = net::ArspClient::Connect("127.0.0.1", front_port_);
    if (client.ok()) clients_[static_cast<size_t>(c)] = std::move(*client);
  }

  static constexpr char kDatasetName[] = "bench";
  std::unique_ptr<net::ArspServer> front_;
  std::vector<net::ArspClient> clients_;
  int front_port_ = -1;
};

/// Zipf(s = 1) over ranks 0..n-1: P(rank r) ∝ 1 / (r + 1).
class Zipf {
 public:
  explicit Zipf(int n) : cdf_(static_cast<size_t>(n)) {
    double total = 0.0;
    for (int r = 0; r < n; ++r) {
      total += 1.0 / (r + 1);
      cdf_[static_cast<size_t>(r)] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  int Sample(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(
        std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                         cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

/// Reference rankings from a single in-process engine: one full solve
/// (allow_pushdown=false, cached), then each goal sliced post hoc from the
/// cached full answer — an independent path from the served pushdown one.
struct SingleEngineOracle {
  Status Build(const std::string& spec, const std::string& constraints) {
    auto dataset = arsp::GenerateFromSpec(spec);
    if (!dataset.ok()) return dataset.status();
    base.dataset = engine.AddDataset(std::move(*dataset));
    auto parsed = arsp::ParseConstraintSpec(
        constraints, engine.dataset(base.dataset)->dim());
    if (!parsed.ok()) return parsed.status();
    base.constraints = std::move(*parsed);
    base.allow_pushdown = false;
    auto full = engine.Solve(base);
    if (!full.ok()) return full.status();
    full_probs = full->result->instance_probs;
    return Status::OK();
  }
  StatusOr<std::vector<std::pair<int, double>>> Ranked(DerivedKind kind,
                                                       int k,
                                                       double threshold) {
    QueryRequest request = base;
    request.derived.kind = kind;
    request.derived.k = k;
    request.derived.threshold = threshold;
    auto response = engine.Solve(request);
    if (!response.ok()) return response.status();
    return response->ranked;
  }

  ArspEngine engine;
  QueryRequest base;
  std::vector<double> full_probs;
};

// serve-hot: 2 callers on one in-process ArspServer (default EngineOptions)
// drawing Zipf-distributed top-k and threshold goals with use_cache=true.
class ServeHotWorkload : public WireWorkload {
 public:
  static constexpr int kGoals = 1024;
  static constexpr char kConstraints[] = "rank:2";

  explicit ServeHotWorkload(uint64_t seed)
      : spec_("synthetic:m=512,cnt=8,d=3,l=0.2,dist=IND,seed=1"),
        zipf_(kGoals),
        goal_of_rank_(kGoals) {
    std::iota(goal_of_rank_.begin(), goal_of_rank_.end(), 0);
    std::mt19937_64 rng(seed);
    std::shuffle(goal_of_rank_.begin(), goal_of_rank_.end(), rng);
    for (int c = 0; c < clients(); ++c) {
      rngs_.emplace_back(seed * 1000003u + static_cast<uint64_t>(c) + 1);
    }
  }

  std::string Provenance() const override {
    return "data " + spec_ + "; constraints " + kConstraints +
           "; Zipf(s=1) over 1024 goals (top-k objects k=1..512, "
           "threshold p=(j+0.5)/512; the run seed draws the goal ranks and "
           "the request streams), solver auto, use_cache=true, "
           "default EngineOptions (256-entry cache); 2 callers, closed "
           "loop, ArspClient -> ArspServer on loopback";
  }
  int clients() const override { return 2; }
  bool uses_cache() const override { return true; }

  Status Setup() override {
    Teardown();
    engine_backend_ = std::make_shared<net::EngineBackend>();
    auto server = StartServer(MaybeTimed(traced, engine_backend_,
                                         "engine_backend", -1, false, &spans));
    if (!server.ok()) return server.status();
    front_ = std::move(*server);
    return ConnectAndLoad(spec_, MakeRequest(0));
  }

  Status PrepareOracle() override {
    SingleEngineOracle oracle;
    ARSP_RETURN_IF_ERROR(oracle.Build(spec_, kConstraints));
    references_.clear();
    for (int g = 0; g < kGoals; ++g) {
      const net::QueryRequestWire goal = MakeRequest(g);
      auto ranked = oracle.Ranked(
          goal.derived_kind == net::WireDerivedKind::kTopKObjects
              ? DerivedKind::kTopKObjects
              : DerivedKind::kObjectsAboveThreshold,
          goal.k, goal.threshold);
      if (!ranked.ok()) return ranked.status();
      references_.push_back(std::move(*ranked));
    }
    return Status::OK();
  }

  void Teardown() override {
    clients_.clear();
    StopServer(&front_);
    engine_backend_.reset();
  }

  ArspEngine::CacheStats CacheStats() const override {
    return engine_backend_->engine().cache_stats();
  }

 protected:
  net::QueryRequestWire NextRequest(int c) override {
    const int rank = zipf_.Sample(rngs_[static_cast<size_t>(c)]);
    return MakeRequest(goal_of_rank_[static_cast<size_t>(rank)]);
  }

  bool Check(const net::QueryRequestWire& request,
             const net::QueryResponseWire& response) const override {
    return SameRanking(references_[static_cast<size_t>(GoalIndex(request))],
                       response.ranked);
  }

 private:
  // Goal g < 512 is top-k objects with k = g + 1; goal 512 + j is the
  // p-threshold query with p = (j + 0.5) / 512.
  static net::QueryRequestWire MakeRequest(int goal) {
    net::QueryRequestWire request;
    request.dataset = kDatasetName;
    request.constraint_spec = kConstraints;
    if (goal < kGoals / 2) {
      request.derived_kind = net::WireDerivedKind::kTopKObjects;
      request.k = goal + 1;
    } else {
      request.derived_kind = net::WireDerivedKind::kObjectsAboveThreshold;
      request.threshold = (goal - kGoals / 2 + 0.5) / (kGoals / 2);
    }
    return request;
  }
  static int GoalIndex(const net::QueryRequestWire& request) {
    if (request.derived_kind == net::WireDerivedKind::kTopKObjects) {
      return request.k - 1;
    }
    const long j = std::lround(request.threshold * (kGoals / 2) - 0.5);
    return kGoals / 2 + static_cast<int>(j);
  }

  std::string spec_;
  Zipf zipf_;
  std::vector<int> goal_of_rank_;
  std::vector<std::mt19937_64> rngs_;
  std::shared_ptr<net::EngineBackend> engine_backend_;
  std::vector<std::vector<std::pair<int, double>>> references_;
};

// cluster-scatter: 2 callers on a front ArspServer whose backend is a
// Coordinator over 2 loopback shard ArspServers reached through
// RemoteShard — the topology `arspd --shards` builds.
class ClusterWorkload : public WireWorkload {
 public:
  static constexpr int kShards = 2;
  static constexpr int kMaxK = 32;
  static constexpr char kConstraints[] = "rank:2";

  explicit ClusterWorkload(uint64_t seed)
      : spec_("synthetic:m=5000,cnt=20,d=3,l=0.2,dist=IND,seed=1") {
    for (int c = 0; c < clients(); ++c) {
      rngs_.emplace_back(seed * 7919u + static_cast<uint64_t>(c) + 1);
      sent_.push_back(std::uniform_int_distribution<int>(0, 4)(rngs_.back()));
    }
  }

  std::string Provenance() const override {
    return "data " + spec_ + "; constraints " + kConstraints +
           "; per caller, every 5th request (seeded offset) is full ARSP with "
           "include_instances, the rest top-k objects with seeded k uniform "
           "in 1..32; solver auto, "
           "use_cache=false; 2 callers, "
           "closed loop, ArspClient -> ArspServer(Coordinator) -> "
           "2x RemoteShard -> 2 shard ArspServers on loopback";
  }
  int clients() const override { return 2; }

  Status Setup() override {
    Teardown();
    std::vector<std::shared_ptr<net::ServiceBackend>> legs;
    std::vector<std::string> names;
    for (int i = 0; i < kShards; ++i) {
      shard_backends_.push_back(std::make_shared<net::EngineBackend>());
      auto server = StartServer(MaybeTimed(traced, shard_backends_.back(),
                                           "shard_backend", i, false, &spans));
      if (!server.ok()) return server.status();
      legs.push_back(MaybeTimed(
          traced,
          std::make_shared<cluster::RemoteShard>("127.0.0.1",
                                                 (*server)->port()),
          "leg", i, true, &spans));
      names.push_back("shard-" + std::to_string(i));
      shard_servers_.push_back(std::move(*server));
    }
    auto coordinator = std::make_shared<cluster::Coordinator>(
        std::move(legs), std::move(names), cluster::CoordinatorOptions{});
    auto front = StartServer(
        MaybeTimed(traced, coordinator, "coordinator", -1, true, &spans));
    if (!front.ok()) return front.status();
    front_ = std::move(*front);
    return ConnectAndLoad(spec_, TopK(1));
  }

  Status PrepareOracle() override {
    SingleEngineOracle oracle;
    ARSP_RETURN_IF_ERROR(oracle.Build(spec_, kConstraints));
    full_reference_ = std::move(oracle.full_probs);
    topk_references_.clear();
    for (int k = 1; k <= kMaxK; ++k) {
      auto ranked = oracle.Ranked(DerivedKind::kTopKObjects, k, 0.0);
      if (!ranked.ok()) return ranked.status();
      topk_references_.push_back(std::move(*ranked));
    }
    return Status::OK();
  }

  void Teardown() override {
    clients_.clear();
    StopServer(&front_);
    for (auto& server : shard_servers_) StopServer(&server);
    shard_servers_.clear();
    shard_backends_.clear();
  }

  ArspEngine::CacheStats CacheStats() const override {
    ArspEngine::CacheStats total;
    for (const auto& backend : shard_backends_) {
      const ArspEngine::CacheStats s = backend->engine().cache_stats();
      total.hits += s.hits;
      total.misses += s.misses;
      total.entries += s.entries;
    }
    return total;
  }

 protected:
  net::QueryRequestWire NextRequest(int c) override {
    std::mt19937_64& rng = rngs_[static_cast<size_t>(c)];
    // Every 5th request of a caller is full, from a seeded offset: the mix
    // is exactly 80/20 in every run, so the share of large replies — which
    // decides where p90 falls — does not vary between runs.
    if (sent_[static_cast<size_t>(c)]++ % 5 == 0) {
      net::QueryRequestWire full = TopK(0);
      full.derived_kind = net::WireDerivedKind::kNone;
      full.include_instances = true;
      return full;
    }
    return TopK(std::uniform_int_distribution<int>(1, kMaxK)(rng));
  }

  bool Check(const net::QueryRequestWire& request,
             const net::QueryResponseWire& response) const override {
    if (request.derived_kind == net::WireDerivedKind::kNone) {
      return response.complete &&
             SameBits(response.instance_probs, full_reference_);
    }
    return SameRanking(topk_references_[static_cast<size_t>(request.k - 1)],
                       response.ranked);
  }

 private:
  static net::QueryRequestWire TopK(int k) {
    net::QueryRequestWire request;
    request.dataset = kDatasetName;
    request.constraint_spec = kConstraints;
    request.derived_kind = net::WireDerivedKind::kTopKObjects;
    request.k = k;
    request.use_cache = false;
    return request;
  }

  std::string spec_;
  std::vector<std::mt19937_64> rngs_;
  std::vector<int> sent_;  ///< per caller: requests drawn + seeded offset
  std::vector<std::shared_ptr<net::EngineBackend>> shard_backends_;
  std::vector<std::unique_ptr<net::ArspServer>> shard_servers_;
  std::vector<double> full_reference_;
  std::vector<std::vector<std::pair<int, double>>> topk_references_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "solve-nba") {
    return std::make_unique<SolveWorkload>("nba:m=250,d=4,seed=1", "rank:3",
                                           seed, false);
  }
  if (name == "solve-large") {
    return std::make_unique<SolveWorkload>(
        "synthetic:m=16000,cnt=50,d=3,l=0.2,dist=IND,seed=1", "rank:2", seed,
        true);
  }
  if (name == "serve-hot") return std::make_unique<ServeHotWorkload>(seed);
  if (name == "cluster-scatter") {
    return std::make_unique<ClusterWorkload>(seed);
  }
  return nullptr;
}

// ------------------------------------------------------------- metrics

/// The per-layer metric catalog, in report order.
const std::vector<std::pair<std::string, std::string>>& LayerCatalog() {
  static const auto* catalog =
      new std::vector<std::pair<std::string, std::string>>{
          {"simd.dominance_tests", "count"},
          {"simd.tests_per_us", "1/us"},
          {"core.solver.solve_ms", "ms"},
          {"core.solver.nodes_visited", "count"},
          {"core.solver.nodes_pruned", "count"},
          {"core.solver.index_probes", "count"},
          {"core.solver.objects_pruned", "count"},
          {"core.solver.early_exit_depth", "count"},
          {"core.solver.share", "fraction"},
          {"core.engine.call_ms", "ms"},
          {"core.engine.overhead_ms", "ms"},
          {"core.engine.cache_hit_ratio", "fraction"},
          {"core.engine.cache_entries", "count"},
          {"core.engine.context_build_ms", "ms"},
          {"common.arena.workers", "count"},
          {"common.arena.tasks_spawned", "count"},
          {"common.arena.tasks_stolen", "count"},
          {"common.arena.speedup", "x"},
          {"common.arena.ceiling", "x"},
          {"common.arena.efficiency", "fraction"},
          {"net.rtt_ms", "ms"},
          {"net.backend_ms", "ms"},
          {"net.wire_ms", "ms"},
          {"net.codec_us", "us"},
          {"net.request_bytes", "B"},
          {"net.response_bytes", "B"},
          {"net.retry_later", "count"},
          {"cluster.coordinator_ms", "ms"},
          {"cluster.leg_ms", "ms"},
          {"cluster.leg_max_ms", "ms"},
          {"cluster.shard_backend_ms", "ms"},
          {"cluster.hop_ms", "ms"},
          {"cluster.merge_ms", "ms"},
          {"cluster.legs_per_query", "count"},
          {"cluster.refine_share", "fraction"},
          {"obs.trace_overhead", "fraction"},
      };
  return *catalog;
}

/// The recorded spans with parent → children links.
struct SpanIndex {
  explicit SpanIndex(std::vector<SpanRecord> records)
      : all(std::move(records)) {
    for (const SpanRecord& span : all) {
      children[span.parent].push_back(&span);
    }
  }
  std::vector<const SpanRecord*> Named(const std::string& name) const {
    std::vector<const SpanRecord*> out;
    for (const SpanRecord& span : all) {
      if (span.name == name) out.push_back(&span);
    }
    return out;
  }
  const std::vector<const SpanRecord*>& ChildrenOf(
      const SpanRecord& span) const {
    static const std::vector<const SpanRecord*> kNone;
    const auto it = children.find(span.id);
    return it == children.end() ? kNone : it->second;
  }

  std::vector<SpanRecord> all;
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
};

std::vector<double> Durations(const std::vector<const SpanRecord*>& spans) {
  std::vector<double> out;
  for (const SpanRecord* span : spans) out.push_back(span->DurationMs());
  return out;
}

/// Median over `spans` of (duration − the solver time its answer reported).
double MedianOverhead(const std::vector<const SpanRecord*>& spans) {
  std::vector<double> out;
  for (const SpanRecord* span : spans) {
    out.push_back(span->DurationMs() - span->solve_ms);
  }
  return Median(std::move(out));
}

std::map<std::string, double> LayerMetrics(
    Workload& workload, const Phase& untraced, const Phase& traced,
    const ArspEngine::CacheStats& cache_before,
    const ArspEngine::CacheStats& cache_after) {
  std::map<std::string, double> m;
  const double p50 = Median(traced.CorrectLatencies());

  // simd + core.solver: the SolverStats of every answer a solver produced.
  std::vector<const SolverStats*> solved;
  double solver_ms_total = 0.0;
  int64_t answered = 0;
  for (const Sample& s : traced.samples) {
    if (s.outcome != Outcome::kCorrect) continue;
    ++answered;
    if (!s.solved) continue;
    solved.push_back(&s.stats);
    solver_ms_total += s.stats.solve_millis;
  }
  if (!solved.empty()) {
    const auto mean = [&](int64_t SolverStats::*field) {
      double total = 0.0;
      for (const SolverStats* s : solved) {
        total += static_cast<double>(s->*field);
      }
      return total / static_cast<double>(solved.size());
    };
    std::vector<double> solve_ms;
    for (const SolverStats* s : solved) solve_ms.push_back(s->solve_millis);
    m["simd.dominance_tests"] = mean(&SolverStats::dominance_tests);
    m["simd.tests_per_us"] =
        mean(&SolverStats::dominance_tests) / (Mean(solve_ms) * 1e3);
    m["core.solver.solve_ms"] = Median(solve_ms);
    m["core.solver.nodes_visited"] = mean(&SolverStats::nodes_visited);
    m["core.solver.nodes_pruned"] = mean(&SolverStats::nodes_pruned);
    m["core.solver.index_probes"] = mean(&SolverStats::index_probes);
    m["core.solver.objects_pruned"] = mean(&SolverStats::objects_pruned);
    m["core.solver.early_exit_depth"] = mean(&SolverStats::early_exit_depth);
    m["core.solver.share"] =
        solver_ms_total / static_cast<double>(answered) / p50;
    if (mean(&SolverStats::parallel_workers) > 0) {
      m["common.arena.workers"] = mean(&SolverStats::parallel_workers);
      m["common.arena.tasks_spawned"] = mean(&SolverStats::tasks_spawned);
      m["common.arena.tasks_stolen"] = mean(&SolverStats::tasks_stolen);
    }
  }

  // core.engine: bench-timed Solve calls, or the spans around the
  // EngineBackend(s) behind the wire.
  const SpanIndex spans(workload.spans.Snapshot());
  std::vector<const SpanRecord*> engine_calls = spans.Named("engine_solve");
  for (const char* name : {"engine_backend", "shard_backend"}) {
    for (const SpanRecord* span : spans.Named(name)) {
      engine_calls.push_back(span);
    }
  }
  m["core.engine.call_ms"] = Median(Durations(engine_calls));
  m["core.engine.overhead_ms"] = MedianOverhead(engine_calls);
  m["core.engine.context_build_ms"] = Median(workload.context_build_ms);
  if (workload.uses_cache()) {
    const double hits =
        static_cast<double>(cache_after.hits - cache_before.hits);
    const double lookups =
        hits + static_cast<double>(cache_after.misses - cache_before.misses);
    m["core.engine.cache_hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;
    m["core.engine.cache_entries"] = static_cast<double>(cache_after.entries);
  }

  // net: the client's rpc span and the front backend span it caused.
  const std::vector<const SpanRecord*> rpcs = spans.Named("rpc");
  if (!rpcs.empty()) {
    std::vector<double> backend_ms;
    std::vector<double> wire_ms;
    for (const SpanRecord* rpc : rpcs) {
      for (const SpanRecord* front : spans.ChildrenOf(*rpc)) {
        backend_ms.push_back(front->DurationMs());
        wire_ms.push_back(rpc->DurationMs() - front->DurationMs());
      }
    }
    std::vector<double> request_bytes;
    std::vector<double> response_bytes;
    for (const Sample& s : traced.samples) {
      if (s.outcome != Outcome::kCorrect) continue;
      request_bytes.push_back(static_cast<double>(s.request_bytes));
      response_bytes.push_back(static_cast<double>(s.response_bytes));
    }
    m["net.rtt_ms"] = Median(Durations(rpcs));
    m["net.backend_ms"] = Median(backend_ms);
    m["net.wire_ms"] = Median(wire_ms);
    m["net.codec_us"] = workload.CodecMicros();
    m["net.request_bytes"] = Mean(request_bytes);
    m["net.response_bytes"] = Mean(response_bytes);
    m["net.retry_later"] = static_cast<double>(traced.tally.retry_later);
  }

  // cluster: coordinator → legs (RemoteShard) → shard EngineBackends.
  const std::vector<const SpanRecord*> coordinators =
      spans.Named("coordinator");
  if (!coordinators.empty()) {
    std::vector<double> leg_max_ms;
    std::vector<double> merge_ms;
    std::vector<double> legs_per_query;
    double refined = 0.0;
    for (const SpanRecord* coordinator : coordinators) {
      const auto& legs = spans.ChildrenOf(*coordinator);
      const std::vector<double> leg_ms = Durations(legs);
      leg_max_ms.push_back(
          leg_ms.empty() ? 0.0
                         : *std::max_element(leg_ms.begin(), leg_ms.end()));
      merge_ms.push_back(SelfTimeMs(*coordinator, legs));
      legs_per_query.push_back(static_cast<double>(legs.size()));
      if (legs.size() > static_cast<size_t>(ClusterWorkload::kShards)) {
        refined += 1.0;
      }
    }
    std::vector<double> hop_ms;
    const std::vector<const SpanRecord*> legs = spans.Named("leg");
    for (const SpanRecord* leg : legs) {
      for (const SpanRecord* shard : spans.ChildrenOf(*leg)) {
        hop_ms.push_back(leg->DurationMs() - shard->DurationMs());
      }
    }
    m["cluster.coordinator_ms"] = Median(Durations(coordinators));
    m["cluster.leg_ms"] = Median(Durations(legs));
    m["cluster.leg_max_ms"] = Median(leg_max_ms);
    m["cluster.shard_backend_ms"] =
        Median(Durations(spans.Named("shard_backend")));
    m["cluster.hop_ms"] = Median(hop_ms);
    m["cluster.merge_ms"] = Median(merge_ms);
    m["cluster.legs_per_query"] = Mean(legs_per_query);
    m["cluster.refine_share"] =
        refined / static_cast<double>(coordinators.size());
  }

  workload.ExtraLayerMetrics(&m);
  m["obs.trace_overhead"] = p50 / Median(untraced.CorrectLatencies()) - 1.0;
  return m;
}

std::vector<Metric> EndToEndMetrics(const Phase& phase,
                                    const std::vector<double>& setup_s) {
  const std::vector<double> latencies = phase.CorrectLatencies();
  const std::string n = "n=" + std::to_string(latencies.size());
  return {
      {"p50_ms", "ms", NearestRank(latencies, 0.5), false, n},
      {"p90_ms", "ms", NearestRank(latencies, 0.9), false,
       "nearest rank, " + n},
      {"qps", "1/s",
       static_cast<double>(phase.tally.correct) / phase.wall_s, false,
       "correct answers / measured wall time"},
      // error_rate is 0 on a correct build, so the JSON carries its
      // complement (main prints error_rate itself from the tally).
      {"correct_rate", "fraction", 1.0 - phase.tally.error_rate(), false,
       "1 - error_rate"},
      {"setup_s", "s", Median(setup_s), false,
       "median of " + std::to_string(setup_s.size()) + " set-ups"},
      {"peak_rss_mb", "MiB", PeakRssMiB(), false, "getrusage ru_maxrss"},
  };
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const auto* names = new std::vector<std::string>{
      "solve-nba", "solve-large", "serve-hot", "cluster-scatter"};
  return *names;
}

StatusOr<Report> RunWorkload(const RunConfig& config) {
  std::unique_ptr<Workload> workload =
      MakeWorkload(config.workload, config.seed);
  if (workload == nullptr) {
    return Status::NotFound("unknown workload '" + config.workload + "'");
  }
  workload->traced = config.trace;
  Report report;
  report.provenance = workload->Provenance();

  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const uint64_t start = NowNs();
    const Status st = workload->Setup();
    if (!st.ok()) {
      workload->Teardown();
      return st;
    }
    setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  const Status oracle = workload->PrepareOracle();
  if (!oracle.ok()) {
    report.oracle_error = oracle.ToString();
  }

  // A traced run keeps the run length: its untraced and traced phases each
  // take half of it.
  const double phase_s = config.trace ? config.seconds / 2 : config.seconds;
  const auto measure = [&] {
    return ClosedLoop(workload->clients(), phase_s,
                      [&](int c) { return workload->Request(c); });
  };
  const Phase untraced = measure();
  report.tally = untraced.tally;
  if (!config.trace) {
    report.metrics = EndToEndMetrics(untraced, setup_s);
    workload->Teardown();
    return report;
  }

  const ArspEngine::CacheStats cache_before = workload->CacheStats();
  workload->spans.Enable(true);
  const Phase traced = measure();
  workload->spans.Enable(false);
  const ArspEngine::CacheStats cache_after = workload->CacheStats();
  report.tally.Merge(traced.tally);
  const std::map<std::string, double> layer =
      LayerMetrics(*workload, untraced, traced, cache_before, cache_after);
  workload->Teardown();
  for (const auto& [name, unit] : LayerCatalog()) {
    const auto it = layer.find(name);
    report.metrics.push_back(Metric{name, unit,
                                    it == layer.end() ? 0.0 : it->second,
                                    it == layer.end(), ""});
  }
  if (!config.trace_path.empty()) {
    ARSP_RETURN_IF_ERROR(workload->spans.WriteChromeTrace(config.trace_path));
  }
  return report;
}

}  // namespace e2ebench
